package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clustersim/internal/core"
	"clustersim/internal/obs"
)

// fakeResult derives a deterministic, spec-unique result — the stand-in
// for the simulator's actual determinism guarantee.
func fakeResult(spec PointSpec) *core.Result {
	return &core.Result{ExecTime: int64(fnv1a(spec.Key()) % 1_000_000)}
}

func fakeRunner(spec PointSpec) (*core.Result, bool, error) {
	return fakeResult(spec), false, nil
}

func makeSpecs(n int) []PointSpec {
	specs := make([]PointSpec, n)
	for i := range specs {
		specs[i] = PointSpec{
			App: fmt.Sprintf("app%d", i), Size: "small",
			ClusterSize: 1 << (uint(i) % 4), CacheKB: 0, Procs: 16,
			ConfigHash: fmt.Sprintf("hash%04d", i),
		}
	}
	return specs
}

// testFabric is one assembled coordinator+fleet harness over a simnet.
type testFabric struct {
	net   *Net
	coord *Coordinator
	log   *obs.Log
	mu    sync.Mutex
	done  map[string]*core.Result // OnResult sink
}

func newTestFabric(t *testing.T, plan ChaosPlan, cfg CoordinatorConfig) *testFabric {
	t.Helper()
	n, err := NewNet(plan)
	if err != nil {
		t.Fatal(err)
	}
	tf := &testFabric{net: n, log: obs.NewLog(nil, "test"), done: make(map[string]*core.Result)}
	cfg.Obs = NewObs(obs.NewSweep("test", nil, tf.log))
	if cfg.OnResult == nil {
		cfg.OnResult = func(spec PointSpec, res *core.Result, resumed bool) error {
			tf.mu.Lock()
			defer tf.mu.Unlock()
			tf.done[spec.Key()] = res
			return nil
		}
	}
	tf.coord = NewCoordinator(cfg)
	go tf.coord.Serve(n.Listener()) //simlint:allow goroutine — test harness
	return tf
}

// startWorker connects one worker and serves it until drain/death.
func (tf *testFabric) startWorker(t *testing.T, id string, run Runner) <-chan error {
	t.Helper()
	conn, err := tf.net.Dial(id)
	if err != nil {
		t.Fatalf("dial %s: %v", id, err)
	}
	w := NewWorker(WorkerConfig{ID: id, Heartbeat: 25 * time.Millisecond, Run: run})
	errc := make(chan error, 1)
	go func() { errc <- w.RunConn(conn) }() //simlint:allow goroutine — test harness
	return errc
}

// quickCfg keeps recovery timings test-sized.
func quickCfg() CoordinatorConfig {
	return CoordinatorConfig{
		DeadAfter:    200 * time.Millisecond,
		LeaseTimeout: 500 * time.Millisecond,
		BackoffBase:  10 * time.Millisecond,
		BackoffCap:   100 * time.Millisecond,
		LocalGrace:   time.Hour, // tests that want local fallback override this
		Run:          fakeRunner,
	}
}

func checkResults(t *testing.T, specs []PointSpec, results map[string]*core.Result) {
	t.Helper()
	if len(results) != len(specs) {
		t.Fatalf("completed %d of %d points", len(results), len(specs))
	}
	for _, s := range specs {
		got, ok := results[s.Key()]
		if !ok {
			t.Fatalf("point %s missing", s.Name())
		}
		want := fakeResult(s)
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if string(gj) != string(wj) {
			t.Fatalf("point %s: result %s, want %s", s.Name(), gj, wj)
		}
	}
}

func (tf *testFabric) eventKinds() map[string]int {
	kinds := make(map[string]int)
	for _, e := range tf.log.Recent() {
		kinds[e.Kind]++
	}
	return kinds
}

// count is how many logged events have the kind and, where non-empty,
// the detail and the worker.
func (tf *testFabric) count(kind, detail, worker string) int {
	n := 0
	for _, e := range tf.log.Recent() {
		if e.Kind == kind && (detail == "" || e.Detail == detail) && (worker == "" || e.Worker == worker) {
			n++
		}
	}
	return n
}

func TestFabricHappyPath(t *testing.T) {
	tf := newTestFabric(t, ChaosPlan{}, quickCfg())
	specs := makeSpecs(8)
	w1 := tf.startWorker(t, "w1", fakeRunner)
	w2 := tf.startWorker(t, "w2", fakeRunner)
	results, err := tf.coord.Run(specs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkResults(t, specs, results)
	if err := <-w1; err != nil {
		t.Errorf("w1 exit: %v", err)
	}
	if err := <-w2; err != nil {
		t.Errorf("w2 exit: %v", err)
	}
	kinds := tf.eventKinds()
	if kinds[EventWorkerJoin] != 2 || kinds[obs.EventPointDone] != 8 || kinds[EventDrain] != 1 {
		t.Errorf("event kinds = %v, want 2 joins, 8 point completions, 1 drain", kinds)
	}
	ws := tf.coord.FleetWorkers()
	if len(ws) != 2 || ws[0].Done+ws[1].Done != 8 {
		t.Errorf("workers = %+v, want w1 and w2 with 8 completions between them", ws)
	}
	// The OnResult sink saw exactly the returned results.
	tf.mu.Lock()
	defer tf.mu.Unlock()
	if len(tf.done) != len(results) {
		t.Errorf("OnResult saw %d completions, Run returned %d", len(tf.done), len(results))
	}
}

// TestFabricWorkerCrashReassigns kills a worker mid-sweep and requires
// the coordinator to notice, requeue its leases, and finish on the
// survivor.
func TestFabricWorkerCrashReassigns(t *testing.T) {
	tf := newTestFabric(t, ChaosPlan{}, quickCfg())
	specs := makeSpecs(10)

	var once sync.Once
	crashed := make(chan struct{})
	// w1 dies the moment it starts its first point: a crash with a
	// lease in flight. The survivor holds each of its own points until
	// the crash has happened — otherwise its instant turnaround could
	// drain the whole queue before w1 ever receives an assignment, and
	// the sweep would finish with nothing to recover.
	w1Run := func(spec PointSpec) (*core.Result, bool, error) {
		once.Do(func() {
			tf.net.Crash("w1")
			close(crashed)
		})
		// Simulate the host dying mid-compute: linger, then fail to
		// deliver on the crashed link.
		<-crashed
		time.Sleep(50 * time.Millisecond) //simlint:allow wallclock — test pacing
		return fakeResult(spec), false, nil
	}
	w2Run := func(spec PointSpec) (*core.Result, bool, error) {
		<-crashed
		return fakeResult(spec), false, nil
	}
	tf.startWorker(t, "w1", w1Run)
	tf.startWorker(t, "w2", w2Run)

	results, err := tf.coord.Run(specs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkResults(t, specs, results)
	kinds := tf.eventKinds()
	if kinds[EventWorkerDead] == 0 {
		t.Errorf("no %s event after a crash; kinds = %v", EventWorkerDead, kinds)
	}
	if kinds[EventRequeue] == 0 {
		t.Errorf("no %s event after a crash with a lease in flight; kinds = %v", EventRequeue, kinds)
	}
}

// TestFabricDuplicateResultsDropped runs with every message duplicated:
// each Result arrives twice and the coordinator must verify the copies
// byte-identical and drop them.
func TestFabricDuplicateResultsDropped(t *testing.T) {
	tf := newTestFabric(t, ChaosPlan{Seed: 11, DupPerMille: 1000}, quickCfg())
	specs := makeSpecs(6)
	tf.startWorker(t, "w1", fakeRunner)
	results, err := tf.coord.Run(specs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkResults(t, specs, results)
	if kinds := tf.eventKinds(); kinds[EventResultDup] == 0 {
		t.Errorf("DupPerMille=1000 produced no %s events: %v", EventResultDup, kinds)
	}
	if ws := tf.coord.FleetWorkers(); ws[0].Done != len(specs) || ws[0].Duplicates == 0 {
		t.Errorf("w1 row = %+v, want %d completions and the dropped duplicates", ws[0], len(specs))
	}
}

// TestFabricStealDuplicatesSlowPoint pins work stealing: with one slow
// point and an idle second worker, the idle worker must steal a
// speculative copy, and the loser's completion must be dropped as a
// byte-identical duplicate.
func TestFabricStealDuplicatesSlowPoint(t *testing.T) {
	cfg := quickCfg()
	cfg.Steal = true
	cfg.LeaseTimeout = time.Hour // isolate stealing from the deadline backstop
	tf := newTestFabric(t, ChaosPlan{}, cfg)
	specs := makeSpecs(1)
	slow := func(spec PointSpec) (*core.Result, bool, error) {
		time.Sleep(150 * time.Millisecond) //simlint:allow wallclock — test pacing
		return fakeResult(spec), false, nil
	}
	tf.startWorker(t, "w1", slow)
	tf.startWorker(t, "w2", slow)
	results, err := tf.coord.Run(specs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkResults(t, specs, results)
	if tf.count(obs.EventPointStart, "steal", "") == 0 {
		t.Fatalf("no steal assignment happened; events = %v", tf.eventKinds())
	}
}

// TestFabricLocalFallback starts no workers at all: after LocalGrace
// the coordinator must degrade to local execution and still finish.
func TestFabricLocalFallback(t *testing.T) {
	cfg := quickCfg()
	cfg.LocalGrace = 20 * time.Millisecond
	tf := newTestFabric(t, ChaosPlan{}, cfg)
	specs := makeSpecs(4)
	results, err := tf.coord.Run(specs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkResults(t, specs, results)
	if n := tf.count(obs.EventPointStart, "local", "(local)"); n != 4 {
		t.Errorf("%d local point starts, want 4; kinds = %v", n, tf.eventKinds())
	}
}

// dialWorker connects one worker built from cfg once the coordinator
// has registered it, so a test's local fallback cannot race the join.
func (tf *testFabric) dialWorker(t *testing.T, cfg WorkerConfig) <-chan error {
	t.Helper()
	conn, err := tf.net.Dial(cfg.ID)
	if err != nil {
		t.Fatalf("dial %s: %v", cfg.ID, err)
	}
	errc := make(chan error, 1)
	go func() { errc <- NewWorker(cfg).RunConn(conn) }() //simlint:allow goroutine — test harness
	for len(tf.coord.FleetWorkers()) == 0 {
		time.Sleep(time.Millisecond) //simlint:allow wallclock — test pacing
	}
	return errc
}

// TestFabricWorkerStopsAfterCurrentPoint pins the interrupt contract:
// a worker whose Stop hook fires mid-point reports that point, asks for
// no more work and leaves with ErrStopped; local fallback finishes the
// sweep.
func TestFabricWorkerStopsAfterCurrentPoint(t *testing.T) {
	cfg := quickCfg()
	cfg.LocalGrace = 20 * time.Millisecond
	tf := newTestFabric(t, ChaosPlan{}, cfg)
	specs := makeSpecs(6)
	var stop atomic.Bool
	var ran atomic.Int32
	errc := tf.dialWorker(t, WorkerConfig{
		ID: "w1", Heartbeat: 25 * time.Millisecond, Stop: stop.Load,
		Run: func(spec PointSpec) (*core.Result, bool, error) {
			ran.Add(1)
			stop.Store(true) // the operator's SIGINT lands mid-point
			return fakeResult(spec), false, nil
		},
	})
	results, err := tf.coord.Run(specs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkResults(t, specs, results)
	if err := <-errc; !errors.Is(err, ErrStopped) {
		t.Errorf("worker exit = %v, want ErrStopped", err)
	}
	if n := ran.Load(); n != 1 {
		t.Errorf("worker ran %d points, want only the one in flight at the stop", n)
	}
	byW1, local := tf.count(obs.EventPointDone, "", "w1"), tf.count(obs.EventPointStart, "local", "(local)")
	if byW1 != 1 || local != len(specs)-1 {
		t.Errorf("w1 delivered %d results, local ran %d points; want 1 and %d (kinds %v)",
			byW1, local, len(specs)-1, tf.eventKinds())
	}
}

// TestFabricStoppedWorkerTakesNoWork: a worker stopped while idle
// leaves without running anything, and the sweep still completes on
// another worker.
func TestFabricStoppedWorkerTakesNoWork(t *testing.T) {
	tf := newTestFabric(t, ChaosPlan{}, quickCfg())
	specs := makeSpecs(4)
	var ran atomic.Int32
	errc := tf.dialWorker(t, WorkerConfig{
		ID: "w1", Heartbeat: 25 * time.Millisecond, Stop: func() bool { return true },
		Run: func(spec PointSpec) (*core.Result, bool, error) {
			ran.Add(1)
			return fakeResult(spec), false, nil
		},
	})
	tf.startWorker(t, "w2", fakeRunner)
	results, err := tf.coord.Run(specs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkResults(t, specs, results)
	if err := <-errc; !errors.Is(err, ErrStopped) {
		t.Errorf("worker exit = %v, want ErrStopped", err)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("stopped worker ran %d points, want 0", n)
	}
}

// TestFabricWorkerRestartResumes is the crash-restart story: a worker
// computes a point behind a partition (its Result vanishes), restarts,
// is reassigned the same point, and replays it from its local journal
// instead of recomputing.
func TestFabricWorkerRestartResumes(t *testing.T) {
	cfg := quickCfg()
	cfg.Run = nil
	tf := newTestFabric(t, ChaosPlan{}, cfg)
	specs := makeSpecs(1)

	// A journal shared across worker incarnations, as the on-disk
	// journal is shared across worker process restarts. The first
	// computation blocks on release after journaling, so the test can
	// crash the link while the result is provably journaled but not yet
	// sent — the worst-case crash point.
	var mu sync.Mutex
	journal := make(map[string]*core.Result)
	computed := make(chan struct{}, 8)
	release := make(chan struct{})
	journaled := func(spec PointSpec) (*core.Result, bool, error) {
		mu.Lock()
		if res, ok := journal[spec.Key()]; ok {
			mu.Unlock()
			return res, true, nil
		}
		mu.Unlock()
		res := fakeResult(spec)
		mu.Lock()
		journal[spec.Key()] = res
		mu.Unlock()
		computed <- struct{}{}
		<-release
		return res, false, nil
	}

	tf.startWorker(t, "w1", journaled)

	done := make(chan struct{})
	var results map[string]*core.Result
	var runErr error
	go func() { //simlint:allow goroutine — test harness
		results, runErr = tf.coord.Run(specs)
		close(done)
	}()

	// Incarnation one journals the point; crash before its Result can
	// leave the host, then let the doomed runner finish (its send fails
	// on the dead conn).
	<-computed
	tf.net.Crash("w1")
	close(release)

	// Restart: same ID, same journal. The coordinator requeues the
	// lease, reassigns it to the new incarnation, and the runner replays
	// from the journal.
	tf.startWorker(t, "w1", journaled)

	<-done
	if runErr != nil {
		t.Fatalf("Run: %v", runErr)
	}
	checkResults(t, specs, results)
	mu.Lock()
	stores := len(journal)
	mu.Unlock()
	if stores != 1 {
		t.Errorf("journal holds %d entries, want 1", stores)
	}
	select {
	case <-computed:
		t.Error("the point was computed twice despite the journal")
	default:
	}
	if tf.count(obs.EventPointReplay, "", "w1") != 1 {
		t.Errorf("want one point-replay by w1 for the resumed completion; events = %v", tf.eventKinds())
	}
	if ws := tf.coord.FleetWorkers(); len(ws) != 1 || ws[0].Replayed != 1 || ws[0].Done != 0 {
		t.Errorf("workers = %+v, want one w1 row across both incarnations with one replayed point", ws)
	}
}

// TestFabricPermanentFailure pins the failure path: a deterministic
// point failure is reported once, recorded via OnFailure, and fails the
// sweep without hanging it.
func TestFabricPermanentFailure(t *testing.T) {
	cfg := quickCfg()
	var mu sync.Mutex
	var failures []string
	cfg.OnFailure = func(spec PointSpec, msg string) {
		mu.Lock()
		failures = append(failures, spec.Name()+": "+msg)
		mu.Unlock()
	}
	tf := newTestFabric(t, ChaosPlan{}, cfg)
	specs := makeSpecs(4)
	bad := specs[2]
	runner := func(spec PointSpec) (*core.Result, bool, error) {
		if spec.Key() == bad.Key() {
			return nil, false, fmt.Errorf("panic: index out of range (annotated)")
		}
		return fakeResult(spec), false, nil
	}
	tf.startWorker(t, "w1", runner)
	results, err := tf.coord.Run(specs)
	if err == nil {
		t.Fatal("Run must report the failed point")
	}
	if !strings.Contains(err.Error(), bad.Name()) {
		t.Errorf("error %q does not name the failed point %s", err, bad.Name())
	}
	if len(results) != 3 {
		t.Errorf("healthy points completed = %d, want 3", len(results))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(failures) != 1 || !strings.Contains(failures[0], "index out of range") {
		t.Errorf("OnFailure saw %v, want one annotated panic", failures)
	}
	if ws := tf.coord.FleetWorkers(); ws[0].Done != 3 || ws[0].Failed != 1 {
		t.Errorf("w1 row = %+v, want 3 done and 1 failed", ws[0])
	}
	if n := tf.count(obs.EventPointFail, "", "w1"); n != 1 {
		t.Errorf("%d point-fail events, want 1", n)
	}
}

// TestFabricDeterminismViolationAborts white-boxes the one
// unrecoverable fault: two completions of the same point that are NOT
// byte-identical mean the determinism contract is broken, and the
// coordinator must refuse to pick a winner.
func TestFabricDeterminismViolationAborts(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	spec := makeSpecs(1)[0]
	key := spec.Key()
	c.points[key] = &point{spec: spec}
	c.order = append(c.order, key)
	c.remaining = 1
	c.workers["w1"] = &workerState{id: "w1", conn: nil, leases: map[uint64]bool{}}
	c.workers["w2"] = &workerState{id: "w2", conn: nil, leases: map[uint64]bool{}}
	l1 := c.newLeaseLocked(key, c.workers["w1"])
	l2 := c.newLeaseLocked(key, c.workers["w2"])

	c.deliverResult("w1", Msg{Type: MsgResult, Lease: l1.id, Result: &core.Result{ExecTime: 1}})
	c.deliverResult("w2", Msg{Type: MsgResult, Lease: l2.id, Result: &core.Result{ExecTime: 2}})

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fatal == nil || !strings.Contains(c.fatal.Error(), "determinism violation") {
		t.Fatalf("fatal = %v, want a determinism-violation error", c.fatal)
	}
}

// TestFabricBackoffCaps pins the capped exponential schedule.
func TestFabricBackoffCaps(t *testing.T) {
	cfg := CoordinatorConfig{BackoffBase: 100 * time.Millisecond, BackoffCap: 1 * time.Second}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second, time.Second,
	}
	for i, w := range want {
		if got := cfg.backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

// TestFabricChaosMatrix is the hermetic suite: the full fault matrix ×
// steal on/off, each cell asserting every point completes with the
// exact deterministic result. This is the test that says "the fabric
// recovers from a hostile network", and it runs with no sockets.
func TestFabricChaosMatrix(t *testing.T) {
	plans := []struct {
		name string
		plan ChaosPlan
	}{
		{"clean", ChaosPlan{Seed: 1}},
		{"drop", ChaosPlan{Seed: 2, DropPerMille: 100}},
		{"delay", ChaosPlan{Seed: 3, DelayPerMille: 400, DelayMax: 5 * time.Millisecond}},
		{"dup", ChaosPlan{Seed: 4, DupPerMille: 300}},
		{"storm", ChaosPlan{Seed: 5, DropPerMille: 80, DupPerMille: 200, DelayPerMille: 300}},
	}
	for _, steal := range []bool{false, true} {
		for _, pc := range plans {
			name := fmt.Sprintf("%s/steal=%v", pc.name, steal)
			pc := pc
			steal := steal
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := quickCfg()
				cfg.Steal = steal
				cfg.DeadAfter = 300 * time.Millisecond
				cfg.LeaseTimeout = 400 * time.Millisecond
				tf := newTestFabric(t, pc.plan, cfg)
				specs := makeSpecs(12)
				for i := 0; i < 3; i++ {
					tf.startWorker(t, fmt.Sprintf("w%d", i), fakeRunner)
				}
				results, err := tf.coord.Run(specs)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				checkResults(t, specs, results)
			})
		}
	}
}
