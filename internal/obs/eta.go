package obs

import (
	"sync"
	"time"
)

// ETA is the completed-cost ETA model behind /status: every freshly
// computed point contributes its wall cost, and the estimate for the
// remaining work is mean completed cost × points outstanding, divided by
// the largest number of points the sweep has seen running at once (a
// local sweep's workers, a fleet's leases; at least 1). Replayed
// points are free (journal hits cost microseconds, not simulation
// time), so they advance completion without skewing the mean. The
// total is declared when the sweep shape is known and grows lazily
// otherwise — experiments discover points as tables request them, so
// the estimate is a floor until the last table is enumerated.
//
// The clock is injectable for tests; the model itself never reads
// simulated time.
type ETA struct {
	mu      sync.Mutex
	now     func() time.Time
	start   time.Time
	total   int // declared sweep size; grows to seen if exceeded
	seen    int // points that have entered any state
	done    int // computed + replayed + failed (work no longer outstanding)
	costNS  int64
	samples int // computed points contributing to costNS
	running int // most points seen running at once
}

// NewETAAt starts the model on the given clock (the sweep's; tests use
// a fake).
func NewETAAt(now func() time.Time) *ETA {
	e := &ETA{now: now}
	e.start = now()
	return e
}

// SetTotal declares the sweep's point count, when known.
func (e *ETA) SetTotal(n int) {
	e.mu.Lock()
	if n > e.total {
		e.total = n
	}
	e.mu.Unlock()
}

// Saw records that a point exists (entered any state).
func (e *ETA) Saw() {
	e.mu.Lock()
	e.seen++
	if e.seen > e.total {
		e.total = e.seen
	}
	e.mu.Unlock()
}

// Running records that n points are running at once.
func (e *ETA) Running(n int) {
	e.mu.Lock()
	e.running = max(e.running, n)
	e.mu.Unlock()
}

// Completed records one freshly computed point and its wall cost.
func (e *ETA) Completed(cost time.Duration) {
	e.mu.Lock()
	e.done++
	e.costNS += int64(cost)
	e.samples++
	e.mu.Unlock()
}

// CompletedFree records a point that finished without simulation work
// (journal replay) or that will never finish (recorded failure): the
// work is no longer outstanding, but no cost sample is taken.
func (e *ETA) CompletedFree() {
	e.mu.Lock()
	e.done++
	e.mu.Unlock()
}

// Estimate is the model's current output.
type Estimate struct {
	ElapsedMS     int64 `json:"elapsedMs"`
	TotalPoints   int   `json:"totalPoints"`
	DonePoints    int   `json:"donePoints"`
	MeanPointMS   int64 `json:"meanPointMs,omitempty"`
	RemainingMS   int64 `json:"remainingMs,omitempty"`
	HaveRemaining bool  `json:"haveRemaining"`
}

// Estimate returns elapsed wall time and, once at least one computed
// point has landed, the projected time to finish the declared total.
func (e *ETA) Estimate() Estimate {
	e.mu.Lock()
	defer e.mu.Unlock()
	est := Estimate{
		ElapsedMS:   e.now().Sub(e.start).Milliseconds(),
		TotalPoints: e.total,
		DonePoints:  e.done,
	}
	if e.samples == 0 {
		return est
	}
	mean := e.costNS / int64(e.samples)
	est.MeanPointMS = mean / int64(time.Millisecond)
	remaining := e.total - e.done
	if remaining < 0 {
		remaining = 0
	}
	est.RemainingMS = mean * int64(remaining) / int64(max(e.running, 1)) / int64(time.Millisecond)
	est.HaveRemaining = true
	return est
}
