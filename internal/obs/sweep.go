package obs

import (
	"fmt"
	"sync"
	"time"

	"clustersim/internal/perf"
)

// StatusSchemaV1 identifies the GET /status document (documented in
// EXPERIMENTS.md).
const StatusSchemaV1 = "clustersim/status/v1"

// PointState is the lifecycle of one sweep point as /status reports it.
type PointState string

const (
	PointPending  PointState = "pending"
	PointRunning  PointState = "running"
	PointDone     PointState = "done"
	PointFailed   PointState = "failed"
	PointReplayed PointState = "replayed"
)

// wallBuckets are the point wall-cost histogram bounds in seconds:
// point costs span orders of magnitude (MP3D vs Barnes), so the grid
// is exponential.
var wallBuckets = []float64{0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100, 300, 1000}

// Point identifies one sweep point, the key every Sweep hook takes. Its
// Name is the one spelling of the point across events, /status rows,
// artifact file stems and the fabric's progress lines.
type Point struct {
	App     string
	Cluster int
	CacheKB int // 0 = infinite
}

// Name is the point's display name, app-cN-cache (e.g. ocean-c4-16k).
func (p Point) Name() string {
	return fmt.Sprintf("%s-c%d-%s", p.App, p.Cluster, CacheLabel(p.CacheKB))
}

// CacheLabel spells a per-processor cache size as point names do: "inf"
// for the infinite cache (0), otherwise the size in KB with a k suffix.
func CacheLabel(kb int) string {
	if kb == 0 {
		return "inf"
	}
	return fmt.Sprintf("%dk", kb)
}

// Sweep tracks one sweep's live state for the observability plane: the
// per-point state machine behind GET /status, the sweep-level series
// in the metrics registry, and the structured events in the run-event
// log. Registry and log are both optional (nil disables that output),
// and a nil *Sweep disables the whole plane, so the experiments suite
// and the fabric coordinator call these hooks unconditionally.
//
// A point counts once: its first terminal report (done, replayed or
// failed) moves the counts, the ETA and the metrics, and a later one
// changes nothing and emits nothing — except that a success replaces a
// failure, in the row and the event stream, without counting the point
// again. A distributed sweep leans on this: stolen and reassigned
// points report twice, and the coordinator's render pass replays every
// point the fleet already settled.
//
// Lock order is caller → sweep → log: the fabric coordinator reports
// while holding its own lock, so the sweep never calls out (the workers
// source included) while holding its lock.
//
// Everything here is wall-clock-side harness state: the only
// simulation-derived inputs are finished Results' exec times, passed
// in by value. Sweep is a member of the simlint readonly observer set.
type Sweep struct {
	mu      sync.Mutex
	run     string
	args    string
	procs   int
	size    string
	started time.Time
	now     func() time.Time

	points  map[Point]*PointStatus
	order   []Point
	workers func() []WorkerStatus

	running       int // points in PointRunning
	journalHits   int
	journalMisses int
	interrupted   bool
	finished      bool
	failedExps    int

	eta *ETA
	log *Log

	reg            *Registry
	cRunning       *Gauge
	cDone          *Counter
	cFailed        *Counter
	cReplayed      *Counter
	cJournalHits   *Counter
	cJournalMisses *Counter
	cVirtCycles    *Counter
	hWall          *Histogram
}

// PointStatus is one point's row in the /status document. Worker is
// the fleet worker that settled (or is running) the point; it is empty
// in a local sweep.
type PointStatus struct {
	Point      string     `json:"point"`
	Worker     string     `json:"worker,omitempty"`
	App        string     `json:"app"`
	Cluster    int        `json:"cluster"`
	Cache      string     `json:"cache"`
	State      PointState `json:"state"`
	WallMS     int64      `json:"wallMs,omitempty"`
	VirtCycles int64      `json:"virtCycles,omitempty"`
	Error      string     `json:"error,omitempty"`
}

// WorkerStatus is one fleet worker's row in a coordinator's /status:
// the coordinator's live link state and its per-worker tallies.
type WorkerStatus struct {
	Worker         string `json:"worker"`
	Alive          bool   `json:"alive"`
	LeasesHeld     int    `json:"leasesHeld"`
	HeartbeatAgeMS int64  `json:"heartbeatAgeMs,omitempty"`
	Done           int    `json:"done"`
	Replayed       int    `json:"replayed"`
	Failed         int    `json:"failed"`
	Duplicates     int    `json:"duplicates"`
}

// JournalStats is the journal cache-hit split of the /status document.
type JournalStats struct {
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
}

// HostStatus is the /status host block: static identity plus the live
// runtime gauges at render time.
type HostStatus struct {
	perf.Host
	HeapBytes  uint64 `json:"heapBytes"`
	Goroutines int    `json:"goroutines"`
}

// PointCounts tallies points by state.
type PointCounts struct {
	Pending  int `json:"pending"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Replayed int `json:"replayed"`
}

// StatusDoc is the GET /status response (schema clustersim/status/v1).
type StatusDoc struct {
	Schema        string         `json:"schema"`
	Run           string         `json:"run"`
	Args          string         `json:"args,omitempty"`
	Procs         int            `json:"procs,omitempty"`
	Size          string         `json:"size,omitempty"`
	State         string         `json:"state"` // running | done | failed | interrupted
	StartedUnixMS int64          `json:"startedUnixMs"`
	Counts        PointCounts    `json:"counts"`
	Journal       JournalStats   `json:"journal"`
	ETA           Estimate       `json:"eta"`
	Host          HostStatus     `json:"host"`
	Workers       []WorkerStatus `json:"workers,omitempty"`
	Points        []PointStatus  `json:"points"`
}

// NewSweep creates a tracker labelled run, feeding the registry and
// event log (either may be nil).
func NewSweep(run string, reg *Registry, log *Log) *Sweep {
	// Harness wall clock: sweep timing is host-side reporting only.
	return NewSweepAt(run, reg, log, func() time.Time { return time.Now() }) //simlint:allow wallclock
}

// NewSweepAt injects the clock (tests use a fake).
func NewSweepAt(run string, reg *Registry, log *Log, now func() time.Time) *Sweep {
	s := &Sweep{
		run:    run,
		now:    now,
		points: make(map[Point]*PointStatus),
		eta:    NewETAAt(now),
		log:    log,
		reg:    reg,
	}
	s.started = now()
	if reg != nil {
		s.cRunning = reg.Gauge("clustersim_sweep_points_running", "Points simulating right now.")
		s.cDone = reg.Counter("clustersim_sweep_points_total", "Points finished, by outcome.", L("state", "done"))
		s.cFailed = reg.Counter("clustersim_sweep_points_total", "Points finished, by outcome.", L("state", "failed"))
		s.cReplayed = reg.Counter("clustersim_sweep_points_total", "Points finished, by outcome.", L("state", "replayed"))
		s.cJournalHits = reg.Counter("clustersim_sweep_journal_lookups_total", "Journal lookups, by outcome.", L("outcome", "hit"))
		s.cJournalMisses = reg.Counter("clustersim_sweep_journal_lookups_total", "Journal lookups, by outcome.", L("outcome", "miss"))
		s.cVirtCycles = reg.Counter("clustersim_sweep_virtual_cycles_total", "Simulated cycles accumulated over finished points.")
		s.hWall = reg.Histogram("clustersim_point_wall_seconds", "Wall-clock cost of freshly computed points.", wallBuckets)
	}
	log.Emit(Event{Kind: EventSweepStart, Run: run})
	return s
}

// SetIdentity records what the sweep is (the requested experiments,
// machine size and problem size) for the /status header.
func (s *Sweep) SetIdentity(args string, procs int, size string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.args, s.procs, s.size = args, procs, size
	s.mu.Unlock()
}

// SetTotalPoints declares the sweep's expected point count for the ETA
// model, when the caller knows it up front.
func (s *Sweep) SetTotalPoints(n int) {
	if s == nil {
		return
	}
	s.eta.SetTotal(n)
}

// SetWorkers installs the source of the /status workers block (a
// coordinator passes its FleetWorkers). Status calls it outside the
// sweep's lock, because the source takes the lock its caller holds
// while reporting points.
func (s *Sweep) SetWorkers(fn func() []WorkerStatus) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.workers = fn
	s.mu.Unlock()
}

// Log returns the attached event log (nil-safe), so the process can
// route additional events through the sweep's stream.
func (s *Sweep) Log() *Log {
	if s == nil {
		return nil
	}
	return s.log
}

// row finds or creates a point's row (caller holds s.mu).
func (s *Sweep) row(p Point) *PointStatus {
	r := s.points[p]
	if r == nil {
		r = &PointStatus{Point: p.Name(), App: p.App, Cluster: p.Cluster, Cache: CacheLabel(p.CacheKB), State: PointPending}
		s.points[p] = r
		s.order = append(s.order, p)
		s.eta.Saw()
	}
	return r
}

// event is a point event carrying the row's identity.
func event(kind, span string, r *PointStatus, worker string) Event {
	return Event{Kind: kind, Span: span, Point: r.Point, Worker: worker, App: r.App, Cluster: r.Cluster, Cache: r.Cache}
}

// settle applies a terminal report under the count-once rule (caller
// holds s.mu). ok is false when the report must be dropped; first is
// true when it is the point's first terminal transition, the only one
// that moves the counts, the ETA and the metrics. span is SpanEnd when
// the report closes a running point.
func (s *Sweep) settle(p Point, to PointState, worker string) (r *PointStatus, first bool, span string, ok bool) {
	r = s.row(p)
	switch r.State {
	case PointDone, PointReplayed:
		return r, false, "", false
	case PointFailed:
		if to == PointFailed {
			return r, false, "", false
		}
	case PointRunning:
		first, span = true, SpanEnd
		s.running--
		if s.cRunning != nil {
			s.cRunning.Add(-1)
		}
	default:
		first = true
	}
	r.State, r.Worker, r.Error = to, worker, ""
	return r, first, span, true
}

// PointStarted marks a point as simulating on worker ("" in a local
// sweep); detail says why, for a fabric lease: fresh, reassign
// attempt=N, steal or local. Only a pending point moves to running; a
// start for any other point (a steal or a reassignment of one already
// running) is recorded as an event only.
func (s *Sweep) PointStarted(p Point, worker, detail string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.row(p)
	if r.State == PointPending {
		r.State, r.Worker = PointRunning, worker
		s.running++
		s.eta.Running(s.running)
		if s.cRunning != nil {
			s.cRunning.Add(1)
		}
	}
	e := event(EventPointStart, SpanBegin, r, worker)
	e.Detail = detail
	s.log.Emit(e)
}

// PointDone marks a point freshly computed on worker, at the given
// wall cost.
func (s *Sweep) PointDone(p Point, worker string, wall time.Duration, virtCycles int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r, first, span, ok := s.settle(p, PointDone, worker)
	if !ok {
		return
	}
	r.WallMS, r.VirtCycles = wall.Milliseconds(), virtCycles
	if first {
		s.eta.Completed(wall)
		if s.reg != nil {
			s.cDone.Inc()
			s.cVirtCycles.Add(float64(virtCycles))
			s.hWall.Observe(wall.Seconds())
		}
	}
	e := event(EventPointDone, span, r, worker)
	e.VirtCycles, e.DurNS = virtCycles, int64(wall)
	s.log.Emit(e)
}

// PointReplayed marks a point served from a journal (a cache hit — no
// simulation work): the sweep's own, or on a coordinator the journal
// of the worker that resumed it.
func (s *Sweep) PointReplayed(p Point, worker string, virtCycles int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r, first, span, ok := s.settle(p, PointReplayed, worker)
	if !ok {
		return
	}
	r.VirtCycles = virtCycles
	if first {
		s.eta.CompletedFree()
		if s.reg != nil {
			s.cReplayed.Inc()
			s.cVirtCycles.Add(float64(virtCycles))
		}
	}
	e := event(EventPointReplay, span, r, worker)
	e.VirtCycles = virtCycles
	s.log.Emit(e)
}

// JournalLookup records one lookup in the sweep's own journal: a hit
// (the point replays) or a miss (it will simulate). It counts every
// lookup, including a replay of a point already settled.
func (s *Sweep) JournalLookup(hit bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n, c := &s.journalMisses, s.cJournalMisses
	if hit {
		n, c = &s.journalHits, s.cJournalHits
	}
	*n++
	if c != nil {
		c.Inc()
	}
}

// PointFailed marks a point failed on worker (panic, engine error, or a
// journalled failure surfacing on replay).
func (s *Sweep) PointFailed(p Point, worker, errMsg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r, first, span, ok := s.settle(p, PointFailed, worker)
	if !ok {
		return
	}
	r.Error = errMsg
	if first {
		s.eta.CompletedFree()
		if s.reg != nil {
			s.cFailed.Inc()
		}
	}
	e := event(EventPointFail, span, r, worker)
	e.Error = errMsg
	s.log.Emit(e)
}

// PointTimeout records the watchdog firing on a wedged point; the
// process exits right after, so this is the last event of the log.
func (s *Sweep) PointTimeout(p Point, budget time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if r := s.points[p]; r != nil {
		r.State = PointFailed
		r.Error = "watchdog timeout"
	}
	s.mu.Unlock()
	s.log.Emit(Event{Kind: EventWatchdog, Span: SpanEnd, Point: p.Name(), DurNS: int64(budget),
		Error: "point exceeded the wall-clock budget"})
}

// Interrupted records a cooperative stop (SIGINT/SIGTERM or
// -stop-after) between points.
func (s *Sweep) Interrupted() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.interrupted = true
	s.mu.Unlock()
	s.log.Emit(Event{Kind: EventSignalStop, Detail: "suite stopped between points; completed work flushed"})
}

// Finish records the end of the sweep; failedExperiments is how many
// requested experiments returned errors.
func (s *Sweep) Finish(failedExperiments int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.finished = true
	s.failedExps = failedExperiments
	summary := formatSummary(s.statusLocked().Counts)
	s.mu.Unlock()
	s.log.Emit(Event{Kind: EventSweepDone, Detail: summary})
}

// formatSummary is the one-line replayed-vs-computed split carried by
// the sweep-done event (the CLI prints its own from suite counters).
func formatSummary(c PointCounts) string {
	return fmt.Sprintf("%d points computed, %d replayed from journal, %d failed",
		c.Done, c.Replayed, c.Failed)
}

// Status renders the current /status document. The host block reads
// the live runtime gauges at call time; the workers block, when a
// source is set, is read before the sweep's lock is taken.
func (s *Sweep) Status() *StatusDoc {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	source := s.workers
	s.mu.Unlock()
	var workers []WorkerStatus
	if source != nil {
		workers = source()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	doc := s.statusLocked()
	doc.Workers = workers
	return doc
}

func (s *Sweep) statusLocked() *StatusDoc {
	doc := &StatusDoc{
		Schema:        StatusSchemaV1,
		Run:           s.run,
		Args:          s.args,
		Procs:         s.procs,
		Size:          s.size,
		StartedUnixMS: s.started.UnixMilli(),
		Journal:       JournalStats{Hits: s.journalHits, Misses: s.journalMisses},
		ETA:           s.eta.Estimate(),
	}
	doc.Host.Host = perf.ReadHost()
	doc.Host.HeapBytes, doc.Host.Goroutines = perf.ReadHostGauges()
	for _, p := range s.order {
		r := *s.points[p]
		doc.Points = append(doc.Points, r)
		switch r.State {
		case PointPending:
			doc.Counts.Pending++
		case PointRunning:
			doc.Counts.Running++
		case PointDone:
			doc.Counts.Done++
		case PointFailed:
			doc.Counts.Failed++
		case PointReplayed:
			doc.Counts.Replayed++
		}
	}
	switch {
	case s.interrupted:
		doc.State = "interrupted"
	case s.finished && (s.failedExps > 0 || doc.Counts.Failed > 0):
		doc.State = "failed"
	case s.finished:
		doc.State = "done"
	default:
		doc.State = "running"
	}
	return doc
}
