package experiments

import (
	"bytes"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clustersim/internal/apps"
	"clustersim/internal/core"
	"clustersim/internal/fabric"
	"clustersim/internal/obs"
	"clustersim/internal/obs/fleet"
)

func fabricOpt() Options {
	return Options{Procs: 8, Size: apps.SizeTest, Out: io.Discard}
}

// TestPlanPointsMatchesSuiteDemand pins that PlanPoints enumerates
// exactly the points the memoizing suite simulates on demand: plan
// table7, run table7 locally, and require the journal to replay every
// point of a second render with zero fresh simulations.
func TestPlanPointsMatchesSuiteDemand(t *testing.T) {
	opt := fabricOpt()
	specs, err := PlanPoints([]string{"table7"}, opt)
	if err != nil {
		t.Fatalf("PlanPoints: %v", err)
	}
	// table7: ocean and lu at (1,inf) plus every cluster size — the
	// base point is part of the sweep, so 2 apps × 4 sizes.
	if len(specs) != 2*len(ClusterSizes) {
		t.Fatalf("planned %d points, want %d", len(specs), 2*len(ClusterSizes))
	}

	// Execute the plan via the runner (as a worker would), into a journal.
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run := FabricRunner(j, 0, nil, nil)
	for _, spec := range specs {
		if _, resumed, err := run(spec); err != nil || resumed {
			t.Fatalf("run %s: resumed=%v err=%v", spec.Name(), resumed, err)
		}
	}

	// The rendering pass must find every point already journalled.
	opt.Journal = j
	s := NewSuite(opt)
	if err := s.PrintTable7(); err != nil {
		t.Fatalf("PrintTable7: %v", err)
	}
	if s.Fresh() != 0 {
		t.Fatalf("rendering simulated %d fresh points; the plan missed them", s.Fresh())
	}
	if s.Replayed() != len(specs) {
		t.Fatalf("replayed %d points, want %d", s.Replayed(), len(specs))
	}
}

// TestPlanPointsDedupsAcrossExperiments pins de-duplication: table5 and
// table7 share the unclustered infinite-cache points.
func TestPlanPointsDedupsAcrossExperiments(t *testing.T) {
	opt := fabricOpt()
	t7, err := PlanPoints([]string{"table7"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	both, err := PlanPoints([]string{"table7", "table7"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(both) != len(t7) {
		t.Fatalf("repeating an experiment added points: %d vs %d", len(both), len(t7))
	}
	seen := map[string]bool{}
	for _, s := range t7 {
		if seen[s.Key()] {
			t.Fatalf("duplicate spec %s", s.Key())
		}
		seen[s.Key()] = true
	}
}

// TestFabricRunnerRejectsHashMismatch pins the fleet-skew guard: a spec
// whose config hash does not match what this binary derives is refused.
func TestFabricRunnerRejectsHashMismatch(t *testing.T) {
	opt := fabricOpt()
	specs, err := PlanPoints([]string{"table7"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	spec := specs[0]
	spec.ConfigHash = "0000deadbeef"
	if _, _, err := FabricRunner(nil, 0, nil, nil)(spec); err == nil {
		t.Fatal("a hash-mismatched spec must be refused")
	}
}

// TestDistributedSweepByteIdentical is the keystone proof: a table-7
// sweep distributed over the simulated network — under message chaos,
// with a worker crash mid-sweep and a journal-backed restart — renders
// byte-for-byte the same table as a plain local run, with the rendering
// pass replaying every point from the coordinator's journal.
func TestDistributedSweepByteIdentical(t *testing.T) {
	// Golden: the plain local suite.
	var local bytes.Buffer
	lopt := fabricOpt()
	lopt.Out = &local
	if err := NewSuite(lopt).PrintTable7(); err != nil {
		t.Fatalf("local render: %v", err)
	}

	// Distributed: coordinator journal + two workers on a chaotic simnet.
	opt := fabricOpt()
	coordJournal, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs, err := PlanPoints([]string{"table7"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	net, err := fabric.NewNet(fabric.ChaosPlan{
		Seed: 7, DropPerMille: 60, DupPerMille: 150, DelayPerMille: 250,
		DelayMax: 3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	evlog := obs.NewLog(nil, "keystone")
	onResult, onFailure := CoordinatorSinks(coordJournal)
	coord := fabric.NewCoordinator(fabric.CoordinatorConfig{
		DeadAfter:    250 * time.Millisecond,
		LeaseTimeout: 2 * time.Second,
		BackoffBase:  10 * time.Millisecond,
		Steal:        true,
		LocalGrace:   time.Hour, // the fleet must do the work in this test
		OnResult:     onResult,
		OnFailure:    onFailure,
		Obs:          fabric.NewObs(nil, evlog),
	})
	go coord.Serve(net.Listener()) //simlint:allow goroutine — test harness

	// Worker 1 crashes right after its second completion lands in its
	// local journal; its restart must resume from that journal.
	w1Journal, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var w1Done int32
	crashOnce := sync.Once{}
	crashed := make(chan struct{})
	w1Inner := FabricRunner(w1Journal, 0, nil, nil)
	startW1 := func() {
		conn, err := net.Dial("w1")
		if err != nil {
			t.Fatalf("dial w1: %v", err)
		}
		w := fabric.NewWorker(fabric.WorkerConfig{
			ID: "w1", Heartbeat: 30 * time.Millisecond,
			Run: func(spec fabric.PointSpec) (*core.Result, bool, error) {
				res, resumed, err := w1Inner(spec)
				if err == nil && !resumed && atomic.AddInt32(&w1Done, 1) == 2 {
					crashOnce.Do(func() {
						net.Crash("w1")
						close(crashed)
					})
				}
				return res, resumed, err
			},
		})
		go w.RunConn(conn) //simlint:allow goroutine — test harness
	}

	w2Journal, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	startW2 := func() {
		conn, err := net.Dial("w2")
		if err != nil {
			t.Fatalf("dial w2: %v", err)
		}
		w := fabric.NewWorker(fabric.WorkerConfig{
			ID: "w2", Heartbeat: 30 * time.Millisecond,
			Run: FabricRunner(w2Journal, 0, nil, nil),
		})
		go w.RunConn(conn) //simlint:allow goroutine — test harness
	}

	startW1()
	startW2()
	// Restart w1 after its scripted crash.
	go func() { //simlint:allow goroutine — test harness
		<-crashed
		time.Sleep(50 * time.Millisecond) //simlint:allow wallclock — restart delay
		conn, err := net.Dial("w1")
		if err != nil {
			return
		}
		w := fabric.NewWorker(fabric.WorkerConfig{
			ID: "w1", Heartbeat: 30 * time.Millisecond, Run: w1Inner,
		})
		go w.RunConn(conn) //simlint:allow goroutine — test harness
	}()

	if _, err := coord.Run(specs); err != nil {
		t.Fatalf("distributed sweep: %v", err)
	}

	// Render from the coordinator's journal: zero fresh simulations,
	// byte-identical table.
	var dist bytes.Buffer
	ropt := fabricOpt()
	ropt.Out = &dist
	ropt.Journal = coordJournal
	s := NewSuite(ropt)
	if err := s.PrintTable7(); err != nil {
		t.Fatalf("distributed render: %v", err)
	}
	if s.Fresh() != 0 {
		t.Errorf("rendering simulated %d fresh points; the fleet should have delivered all of them", s.Fresh())
	}
	if !bytes.Equal(local.Bytes(), dist.Bytes()) {
		t.Errorf("distributed table differs from local run:\n--- local ---\n%s\n--- distributed ---\n%s",
			local.String(), dist.String())
	}

	// The chaos left footprints: the crash was noticed and recovered.
	kinds := map[string]int{}
	for _, e := range evlog.Recent() {
		kinds[e.Kind]++
	}
	if kinds[fabric.EventWorkerDead] == 0 {
		t.Errorf("no %s event despite the scripted crash; kinds = %v", fabric.EventWorkerDead, kinds)
	}
	if kinds[fabric.EventResult] != len(specs) {
		t.Errorf("%d first completions, want %d; kinds = %v", kinds[fabric.EventResult], len(specs), kinds)
	}
}

// TestFleetTimelineCompleteUnderChaos is the fleet-observability
// keystone: a chaotic distributed sweep (drop/dup/delay, a mid-sweep
// worker crash with journal-backed restart, and a network partition
// that black-holes the other worker past the liveness deadline) must
// still produce a coordinator timeline in which every assigned point
// reaches exactly one terminal state, the /fleet totals account for
// every planned point, and the rendered table is byte-identical to a
// plain local run.
func TestFleetTimelineCompleteUnderChaos(t *testing.T) {
	// Golden: the plain local suite.
	var local bytes.Buffer
	lopt := fabricOpt()
	lopt.Out = &local
	if err := NewSuite(lopt).PrintTable7(); err != nil {
		t.Fatalf("local render: %v", err)
	}

	opt := fabricOpt()
	coordJournal, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs, err := PlanPoints([]string{"table7"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	net, err := fabric.NewNet(fabric.ChaosPlan{
		Seed: 41, DropPerMille: 60, DupPerMille: 150, DelayPerMille: 250,
		DelayMax: 3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Coordinator-side fleet plane: the event log mirrors synchronously
	// into the view, so the fleet timeline is lossless by construction.
	evlog := obs.NewLog(nil, "keystone")
	view := fleet.NewView("keystone")
	evlog.SetMirror(view.Observe)
	view.SetTotal(len(specs))
	onResult, onFailure := CoordinatorSinks(coordJournal)
	coord := fabric.NewCoordinator(fabric.CoordinatorConfig{
		DeadAfter:    250 * time.Millisecond,
		LeaseTimeout: 2 * time.Second,
		BackoffBase:  10 * time.Millisecond,
		Steal:        true,
		LocalGrace:   time.Hour, // the fleet must do the work in this test
		OnResult:     onResult,
		OnFailure:    onFailure,
		Obs:          fabric.NewObs(nil, evlog),
	})
	view.SetSource(coord.FleetWorkers)
	go coord.Serve(net.Listener()) //simlint:allow goroutine — test harness

	// Each worker runs its own obs plane, as with -events or -serve: a
	// sweep feeding a process-local event log.
	workerObs := func(id string) *obs.Sweep {
		return obs.NewSweep("worker-"+id, nil, obs.NewLog(nil, "worker-"+id))
	}

	// Worker 1 crashes right after its second fresh completion; its
	// restart resumes from its journal.
	w1Journal, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w1Sweep := workerObs("w1")
	w1Inner := FabricRunner(w1Journal, 0, nil, w1Sweep)
	var w1Done int32
	crashOnce := sync.Once{}
	crashed := make(chan struct{})
	startW1 := func(run fabric.Runner) {
		conn, err := net.Dial("w1")
		if err != nil {
			t.Fatalf("dial w1: %v", err)
		}
		w := fabric.NewWorker(fabric.WorkerConfig{
			ID: "w1", Heartbeat: 30 * time.Millisecond, Run: run,
		})
		go w.RunConn(conn) //simlint:allow goroutine — test harness
	}
	startW1(func(spec fabric.PointSpec) (*core.Result, bool, error) {
		res, resumed, err := w1Inner(spec)
		if err == nil && !resumed && atomic.AddInt32(&w1Done, 1) == 2 {
			crashOnce.Do(func() {
				net.Crash("w1")
				close(crashed)
			})
		}
		return res, resumed, err
	})
	go func() { //simlint:allow goroutine — test harness
		<-crashed
		time.Sleep(50 * time.Millisecond) //simlint:allow wallclock — restart delay
		startW1(w1Inner)
	}()

	// Worker 2 is partitioned (black-holed, conn nominally up) after its
	// second fresh completion, long enough for the coordinator to declare
	// it dead and requeue its leases; after the heal it redials.
	w2Journal, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w2Sweep := workerObs("w2")
	w2Inner := FabricRunner(w2Journal, 0, nil, w2Sweep)
	var w2Done int32
	partOnce := sync.Once{}
	partitioned := make(chan struct{})
	startW2 := func(run fabric.Runner) {
		conn, err := net.Dial("w2")
		if err != nil {
			t.Fatalf("dial w2: %v", err)
		}
		w := fabric.NewWorker(fabric.WorkerConfig{
			ID: "w2", Heartbeat: 30 * time.Millisecond, Run: run,
		})
		go w.RunConn(conn) //simlint:allow goroutine — test harness
	}
	startW2(func(spec fabric.PointSpec) (*core.Result, bool, error) {
		res, resumed, err := w2Inner(spec)
		if err == nil && !resumed && atomic.AddInt32(&w2Done, 1) == 2 {
			partOnce.Do(func() {
				net.Partition("w2")
				close(partitioned)
			})
		}
		return res, resumed, err
	})
	go func() { //simlint:allow goroutine — test harness
		<-partitioned
		// Outlast DeadAfter so the silence is noticed and the leases move.
		time.Sleep(400 * time.Millisecond) //simlint:allow wallclock — partition window
		net.Heal("w2")
		startW2(w2Inner)
	}()

	if _, err := coord.Run(specs); err != nil {
		t.Fatalf("distributed sweep: %v", err)
	}

	// Tables byte-identical, zero fresh simulations on render.
	var dist bytes.Buffer
	ropt := fabricOpt()
	ropt.Out = &dist
	ropt.Journal = coordJournal
	s := NewSuite(ropt)
	if err := s.PrintTable7(); err != nil {
		t.Fatalf("distributed render: %v", err)
	}
	if s.Fresh() != 0 {
		t.Errorf("rendering simulated %d fresh points; the fleet should have delivered all of them", s.Fresh())
	}
	if !bytes.Equal(local.Bytes(), dist.Bytes()) {
		t.Errorf("distributed table differs from local run:\n--- local ---\n%s\n--- distributed ---\n%s",
			local.String(), dist.String())
	}

	// Completeness: every planned point was assigned and reached exactly
	// one terminal state, despite the crash, the partition, and the
	// message chaos.
	a := view.Audit()
	if a.Points != len(specs) || a.Assigned != len(specs) {
		t.Errorf("audit saw %d points (%d assigned), want %d", a.Points, a.Assigned, len(specs))
	}
	if len(a.Incomplete) != 0 {
		t.Errorf("points with no terminal state: %v", a.Incomplete)
	}
	if len(a.MultiResult) != 0 {
		t.Errorf("points with more than one first-completion: %v", a.MultiResult)
	}
	if a.Failed != 0 {
		t.Errorf("audit counted %d failed points, want 0", a.Failed)
	}
	if a.Done+a.Replayed != len(specs) {
		t.Errorf("done %d + replayed %d != %d planned points", a.Done, a.Replayed, len(specs))
	}

	// The /fleet doc's totals must account for every planned point.
	doc := view.Doc()
	if doc.Schema != fleet.SchemaV1 {
		t.Errorf("fleet doc schema = %q, want %s", doc.Schema, fleet.SchemaV1)
	}
	if doc.Totals.Points != len(specs) || doc.Totals.Done+doc.Totals.Replayed != len(specs) || doc.Totals.Failed != 0 {
		t.Errorf("fleet totals %+v do not account for %d planned points", doc.Totals, len(specs))
	}
	if doc.Totals.Workers < 2 {
		t.Errorf("fleet doc saw %d workers, want at least w1 and w2", doc.Totals.Workers)
	}

	// Every point's timeline is reachable by name.
	for _, spec := range specs {
		if tr, ok := view.Trace(spec.Name()); !ok || len(tr.Events) == 0 {
			t.Fatalf("no timeline for point %s", spec.Name())
		}
	}

	// Both failure injections left liveness footprints.
	kinds := map[string]int{}
	for _, e := range evlog.Recent() {
		kinds[e.Kind]++
	}
	if kinds[fabric.EventWorkerDead] < 2 {
		t.Errorf("want at least 2 %s events (crash + partition), got %d; kinds = %v",
			fabric.EventWorkerDead, kinds[fabric.EventWorkerDead], kinds)
	}
	if kinds[fabric.EventResult] != len(specs) {
		t.Errorf("%d first completions, want %d; kinds = %v", kinds[fabric.EventResult], len(specs), kinds)
	}
}
