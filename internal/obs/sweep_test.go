package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// Drive a small sweep through every lifecycle transition and check the
// /status document, the metric series, and the event stream all agree.
func TestSweepLifecycle(t *testing.T) {
	reg := NewRegistry()
	var evbuf bytes.Buffer
	log := NewLog(&evbuf, "run-t")
	log.SetClock(fakeClock(time.Unix(2000, 0), time.Second))
	sw := NewSweepAt("run-t", reg, log, fakeClock(time.Unix(2000, 0), time.Second))
	sw.SetIdentity("fig2", 16, "default")
	sw.SetTotalPoints(4)

	// Point 1: journal hit.
	sw.JournalLookup(false) // a prior lookup that missed
	sw.JournalLookup(true)
	sw.PointReplayed(Point{"fft", 1, 0}, "", 100)
	// Point 2: computed.
	sw.PointStarted(Point{"fft", 4, 0}, "", "")
	sw.PointDone(Point{"fft", 4, 0}, "", 2*time.Second, 12345)
	// Point 3: fails while running.
	sw.PointStarted(Point{"lu", 4, 0}, "", "")
	sw.PointFailed(Point{"lu", 4, 0}, "", "boom")
	// Point 4: still running at render time.
	sw.PointStarted(Point{"lu", 8, 0}, "", "")

	doc := sw.Status()
	if doc.Schema != StatusSchemaV1 || doc.Run != "run-t" || doc.Args != "fig2" || doc.Procs != 16 {
		t.Fatalf("status header: %+v", doc)
	}
	if doc.State != "running" {
		t.Errorf("state = %q, want running", doc.State)
	}
	want := PointCounts{Running: 1, Done: 1, Failed: 1, Replayed: 1}
	if doc.Counts != want {
		t.Errorf("counts = %+v, want %+v", doc.Counts, want)
	}
	if doc.Journal != (JournalStats{Hits: 1, Misses: 1}) {
		t.Errorf("journal = %+v", doc.Journal)
	}
	if len(doc.Points) != 4 {
		t.Fatalf("%d point rows, want 4", len(doc.Points))
	}
	if p := doc.Points[1]; p.Point != "fft-c4-inf" || p.State != PointDone || p.WallMS != 2000 || p.VirtCycles != 12345 {
		t.Errorf("computed point row: %+v", p)
	}
	if p := doc.Points[2]; p.State != PointFailed || p.Error != "boom" {
		t.Errorf("failed point row: %+v", p)
	}
	// ETA: one cost sample (2s), one point of four outstanding.
	if !doc.ETA.HaveRemaining || doc.ETA.MeanPointMS != 2000 || doc.ETA.RemainingMS != 2000 {
		t.Errorf("eta = %+v", doc.ETA)
	}
	if doc.Host.Goroutines <= 0 {
		t.Errorf("host gauges not populated: %+v", doc.Host)
	}

	// Metric series match the state machine.
	checks := map[string]float64{
		"running gauge":  reg.Gauge("clustersim_sweep_points_running", "").Value(),
		"done counter":   reg.Counter("clustersim_sweep_points_total", "", L("state", "done")).Value(),
		"failed counter": reg.Counter("clustersim_sweep_points_total", "", L("state", "failed")).Value(),
	}
	for name, got := range checks {
		if got != 1 {
			t.Errorf("%s = %v, want 1", name, got)
		}
	}
	if got := reg.Counter("clustersim_sweep_virtual_cycles_total", "").Value(); got != 12445 {
		t.Errorf("virtual cycles = %v, want 12445 (replay + computed)", got)
	}

	sw.PointDone(Point{"lu", 8, 0}, "", time.Second, 1)
	sw.Finish(0)
	doc = sw.Status()
	// One point failed, so the sweep as a whole is failed even with zero
	// failed experiments.
	if doc.State != "failed" {
		t.Errorf("final state = %q, want failed", doc.State)
	}

	evs, err := ReadEvents(strings.NewReader(evbuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, e := range evs {
		kinds = append(kinds, e.Kind)
	}
	wantKinds := []string{
		EventSweepStart, EventPointReplay, EventPointStart, EventPointDone,
		EventPointStart, EventPointFail, EventPointStart, EventPointDone, EventSweepDone,
	}
	if strings.Join(kinds, " ") != strings.Join(wantKinds, " ") {
		t.Errorf("event kinds:\n got %v\nwant %v", kinds, wantKinds)
	}
	last := evs[len(evs)-1]
	if !strings.Contains(last.Detail, "2 points computed, 1 replayed from journal, 1 failed") {
		t.Errorf("sweep-done summary: %q", last.Detail)
	}
}

func TestSweepInterruptedAndCleanStates(t *testing.T) {
	sw := NewSweepAt("r", nil, nil, fakeClock(time.Unix(0, 0), time.Second))
	sw.PointStarted(Point{"fft", 1, 0}, "", "")
	sw.PointDone(Point{"fft", 1, 0}, "", time.Second, 1)
	sw.Finish(0)
	if got := sw.Status().State; got != "done" {
		t.Errorf("clean sweep state = %q, want done", got)
	}

	sw = NewSweepAt("r", nil, nil, fakeClock(time.Unix(0, 0), time.Second))
	sw.Interrupted()
	if got := sw.Status().State; got != "interrupted" {
		t.Errorf("interrupted sweep state = %q", got)
	}
}

// All hooks are nil-receiver safe: the suite calls them unconditionally.
func TestNilSweepIsSafe(t *testing.T) {
	var sw *Sweep
	sw.SetIdentity("x", 1, "s")
	sw.SetTotalPoints(3)
	sw.SetWorkers(func() []WorkerStatus { return nil })
	sw.PointStarted(Point{"a", 1, 0}, "w", "fresh")
	sw.PointDone(Point{"a", 1, 0}, "w", time.Second, 1)
	sw.PointReplayed(Point{"a", 1, 0}, "w", 1)
	sw.JournalLookup(true)
	sw.PointFailed(Point{"a", 1, 0}, "w", "e")
	sw.PointTimeout(Point{"a", 1, 0}, time.Second)
	sw.Interrupted()
	sw.Finish(0)
	if sw.Status() != nil || sw.Log() != nil {
		t.Error("nil sweep leaked non-nil state")
	}
}

// TestSweepDuplicateCompletionCountsOnce pins the count-once rule a
// distributed sweep depends on: a point's first terminal report moves
// the counts, the ETA and the metrics, and a later one (a stolen copy's
// completion, a journal replay of a point already computed) changes
// nothing and emits nothing; and a steal's second start is an event
// only.
func TestSweepDuplicateCompletionCountsOnce(t *testing.T) {
	reg := NewRegistry()
	var evbuf bytes.Buffer
	sw := NewSweepAt("run-dup", reg, NewLog(&evbuf, "run-dup"), fakeClock(time.Unix(3000, 0), time.Second))
	sw.SetTotalPoints(2)
	dup, stolen := Point{"fft", 4, 0}, Point{"lu", 2, 0}

	// A computed point is delivered again: by a stolen copy with a
	// different measured cost, then as a journal replay.
	sw.PointStarted(dup, "w1", "fresh")
	sw.PointDone(dup, "w1", 2*time.Second, 100)
	sw.PointDone(dup, "w2", 8*time.Second, 100)
	sw.PointReplayed(dup, "w2", 100)

	// A steal's second start is recorded, not counted.
	sw.PointStarted(stolen, "w1", "fresh")
	sw.PointStarted(stolen, "w2", "steal")
	running := reg.Gauge("clustersim_sweep_points_running", "")
	if running.Value() != 1 {
		t.Errorf("running gauge = %v after a steal, want 1", running.Value())
	}
	sw.PointDone(stolen, "w2", 4*time.Second, 200)

	doc := sw.Status()
	if doc.Counts != (PointCounts{Done: 2}) {
		t.Errorf("counts = %+v, want 2 done", doc.Counts)
	}
	// Two cost samples (2s, 4s): the duplicate's 8s must not skew the
	// mean, and each point is done once.
	if doc.ETA.DonePoints != 2 || doc.ETA.TotalPoints != 2 || doc.ETA.MeanPointMS != 3000 {
		t.Errorf("eta = %+v, want 2 of 2 points at a 3000ms mean", doc.ETA)
	}
	if r := doc.Points[0]; r.State != PointDone || r.Worker != "w1" || r.WallMS != 2000 {
		t.Errorf("duplicated point row = %+v, want w1's first completion (2000ms)", r)
	}

	checkSweepCounters(t, reg, map[string]float64{"running gauge": 0, "done counter": 2,
		"failed counter": 0, "replayed counter": 0, "virtual cycles counter": 300})
	checkSweepEvents(t, evbuf.String(), []string{
		"point-start fft-c4-inf w1", "point-done fft-c4-inf w1",
		"point-start lu-c2-inf w1", "point-start lu-c2-inf w2", "point-done lu-c2-inf w2",
	})
}

// A success replaces a failure without counting the point again, a
// repeated failure is dropped, and a failure arriving after the success
// does not demote the point: fail → fail → success → late failure is
// one point, one failure and one success in the event stream.
func TestSweepFailThenSuccessCountsOnce(t *testing.T) {
	reg := NewRegistry()
	var evbuf bytes.Buffer
	sw := NewSweepAt("run-flaky", reg, NewLog(&evbuf, "run-flaky"), fakeClock(time.Unix(3000, 0), time.Second))
	sw.SetTotalPoints(1)
	flaky := Point{"ocean", 8, 16}

	sw.PointStarted(flaky, "w1", "fresh")
	sw.PointFailed(flaky, "w1", "watchdog")
	sw.PointFailed(flaky, "w2", "watchdog again")
	sw.PointDone(flaky, "w2", 6*time.Second, 300)
	sw.PointFailed(flaky, "w1", "late")

	doc := sw.Status()
	if doc.Counts != (PointCounts{Done: 1}) {
		t.Errorf("counts = %+v, want the success to win", doc.Counts)
	}
	// The failure settled the point for the ETA; the success that
	// replaced it is not a second completion or a cost sample.
	if doc.ETA.DonePoints != 1 || doc.ETA.TotalPoints != 1 || doc.ETA.MeanPointMS != 0 {
		t.Errorf("eta = %+v, want 1 of 1 points and no cost sample", doc.ETA)
	}
	if r := doc.Points[0]; r.State != PointDone || r.Worker != "w2" || r.Error != "" {
		t.Errorf("recovered point row = %+v, want done by w2 with no error", r)
	}

	checkSweepCounters(t, reg, map[string]float64{"running gauge": 0, "done counter": 0,
		"failed counter": 1, "replayed counter": 0, "virtual cycles counter": 0})
	checkSweepEvents(t, evbuf.String(), []string{
		"point-start ocean-c8-16k w1", "point-fail ocean-c8-16k w1", "point-done ocean-c8-16k w2",
	})
}

// checkSweepCounters compares the sweep's point series with want.
func checkSweepCounters(t *testing.T, reg *Registry, want map[string]float64) {
	t.Helper()
	got := map[string]float64{
		"running gauge":          reg.Gauge("clustersim_sweep_points_running", "").Value(),
		"done counter":           reg.Counter("clustersim_sweep_points_total", "", L("state", "done")).Value(),
		"failed counter":         reg.Counter("clustersim_sweep_points_total", "", L("state", "failed")).Value(),
		"replayed counter":       reg.Counter("clustersim_sweep_points_total", "", L("state", "replayed")).Value(),
		"virtual cycles counter": reg.Counter("clustersim_sweep_virtual_cycles_total", "").Value(),
	}
	for name, v := range got {
		if v != want[name] {
			t.Errorf("%s = %v, want %v", name, v, want[name])
		}
	}
}

// checkSweepEvents compares the log's events after sweep-start, as
// "kind point worker" lines, with want.
func checkSweepEvents(t *testing.T, log string, want []string) {
	t.Helper()
	evs, err := ReadEvents(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range evs[1:] { // after sweep-start
		got = append(got, e.Kind+" "+e.Point+" "+e.Worker)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("events:\n got %q\nwant %q", got, want)
	}
}

// Point names are the one spelling of a point across events, /status
// rows and artifact file stems.
func TestPointName(t *testing.T) {
	for p, want := range map[Point]string{
		{"ocean", 4, 16}: "ocean-c4-16k",
		{"fft", 1, 0}:    "fft-c1-inf",
	} {
		if got := p.Name(); got != want {
			t.Errorf("%+v.Name() = %q, want %q", p, got, want)
		}
	}
	if CacheLabel(0) != "inf" || CacheLabel(16) != "16k" {
		t.Errorf("CacheLabel(0), CacheLabel(16) = %q, %q; want inf, 16k", CacheLabel(0), CacheLabel(16))
	}
}

// A coordinator's /status gains a worker column and a workers block; a
// local sweep's document has neither key.
func TestSweepStatusWorkersBlock(t *testing.T) {
	local := NewSweep("local", nil, nil)
	local.PointStarted(Point{"fft", 1, 0}, "", "")
	local.PointDone(Point{"fft", 1, 0}, "", time.Second, 1)
	js, err := json.Marshal(local.Status())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(js), `"worker`) {
		t.Errorf("local /status carries fleet keys:\n%s", js)
	}

	rows := []WorkerStatus{
		{Worker: "w1", Alive: true, LeasesHeld: 2, HeartbeatAgeMS: 40, Done: 1},
		{Worker: "w2", Replayed: 1, Duplicates: 3},
	}
	coord := NewSweep("coord", nil, nil)
	coord.SetWorkers(func() []WorkerStatus { return rows })
	coord.PointStarted(Point{"fft", 1, 0}, "w1", "fresh")
	coord.PointDone(Point{"fft", 1, 0}, "w1", time.Second, 1)
	doc := coord.Status()
	if !reflect.DeepEqual(doc.Workers, rows) {
		t.Errorf("workers block = %+v, want %+v", doc.Workers, rows)
	}
	if doc.Points[0].Worker != "w1" {
		t.Errorf("point row worker = %q, want w1", doc.Points[0].Worker)
	}
}

// TestSweepStatusLockOrder pins the lock order coordinator → sweep →
// log: a coordinator reports points while holding the lock its workers
// source takes, so Status must call the source outside the sweep's
// lock. The first round forces the interleaving that deadlocks under
// the reversed order (Status blocked in the source while the reporter,
// holding the source's lock, reports); the rest poll under -race.
func TestSweepStatusLockOrder(t *testing.T) {
	var coordMu sync.Mutex
	inSource := make(chan struct{}, 1)
	sw := NewSweep("coord", NewRegistry(), NewLog(nil, "coord"))
	sw.SetWorkers(func() []WorkerStatus {
		select {
		case inSource <- struct{}{}:
		default:
		}
		coordMu.Lock()
		defer coordMu.Unlock()
		return []WorkerStatus{{Worker: "w1", Alive: true}}
	})
	const points = 200
	done := make(chan struct{})
	go func() { //simlint:allow goroutine — test harness
		defer close(done)
		coordMu.Lock()
		<-inSource // Status is now calling the source
		sw.PointStarted(Point{"warmup", 1, 0}, "w1", "fresh")
		coordMu.Unlock()
		for i := 0; i < points; i++ {
			coordMu.Lock()
			p := Point{"app", i, 0}
			sw.PointStarted(p, "w1", "fresh")
			sw.PointDone(p, "w1", time.Millisecond, 1)
			coordMu.Unlock()
		}
	}()
	polled := make(chan struct{})
	go func() { //simlint:allow goroutine — test harness
		defer close(polled)
		for {
			doc := sw.Status()
			if len(doc.Workers) != 1 {
				t.Errorf("workers block = %+v", doc.Workers)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	select {
	case <-polled:
	case <-time.After(10 * time.Second): //simlint:allow wallclock — deadlock deadline
		t.Fatal("Status and a reporting coordinator deadlocked")
	}
	<-done
	if got := sw.Status().Counts.Done; got != points {
		t.Errorf("done = %d, want %d", got, points)
	}
}
