package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clustersim/internal/apps"
	"clustersim/internal/core"
	"clustersim/internal/fabric"
	"clustersim/internal/obs"
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
	run := FabricRunner(Options{Journal: j})
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
	if _, _, err := FabricRunner(Options{})(spec); err == nil {
		t.Fatal("a hash-mismatched spec must be refused")
	}
}

// TestNamesIsAllList pins the catalog's order to the expansion of
// "all": later experiments replay points earlier ones computed, and the
// distribution plan follows the same order.
func TestNamesIsAllList(t *testing.T) {
	want := []string{"table1", "table2", "table3", "table4", "table5",
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table6", "table7",
		"ext-assoc", "ext-org", "ext-scaling", "ext-faults"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v\nwant      %v", got, want)
	}
	if err := NewSuite(fabricOpt()).RunExperiment("table9"); err == nil {
		t.Error("an unknown experiment name must be an error")
	}
}

// TestPlanPointsAllDigest pins the plan of "all" at -procs 16 -size
// test: 147 specs in render order, digested as the sha256 of their
// newline-terminated Key lines. Keys carry config hashes, so a
// deliberate config-hash change updates the digest.
func TestPlanPointsAllDigest(t *testing.T) {
	specs, err := PlanPoints(Names(), Options{Procs: 16, Size: apps.SizeTest})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, spec := range specs {
		io.WriteString(h, spec.Key()+"\n")
	}
	const want = "ff364e095f85852e858926500233eee45ecddb92072a1b59d7a6856cf64f67f1"
	if got := hex.EncodeToString(h.Sum(nil)); len(specs) != 147 || got != want {
		t.Fatalf("planned %d specs with digest %s; want 147 with %s", len(specs), got, want)
	}
}

// storeFailure journals spec as failed, as a watchdog abort would.
func storeFailure(t *testing.T, j *Journal, spec fabric.PointSpec) {
	t.Helper()
	if err := j.StoreFailure(FailureRecord{
		App: spec.App, Size: spec.Size, ClusterSize: spec.ClusterSize,
		CacheKB: spec.CacheKB, ConfigHash: spec.ConfigHash, Error: "scripted failure",
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFilterJournalledSkipsFailures: a resumed coordinator treats a
// journalled failure as settled, as a local resume does. The point is
// skipped and counted instead of being redistributed, unless
// RetryFailed.
func TestFilterJournalledSkipsFailures(t *testing.T) {
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs, err := PlanPoints([]string{"table7"}, fabricOpt())
	if err != nil {
		t.Fatal(err)
	}
	failed := specs[3]
	storeFailure(t, j, failed)
	todo, skipped, err := FilterJournalled(Options{Journal: j}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(todo) != len(specs)-1 || skipped != 1 {
		t.Fatalf("todo %d, skipped %d; want %d and 1", len(todo), skipped, len(specs)-1)
	}
	for _, spec := range todo {
		if spec.Key() == failed.Key() {
			t.Fatalf("journalled failure %s was planned again", failed.Name())
		}
	}
	todo, skipped, err = FilterJournalled(Options{Journal: j, RetryFailed: true}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(todo) != len(specs) || skipped != 0 {
		t.Fatalf("with RetryFailed: todo %d, skipped %d; want %d and 0", len(todo), skipped, len(specs))
	}
}

// TestFabricRunnerHonoursJournalledFailure: like Suite.Run, the runner
// reports a point its journal records as failed instead of re-running
// it, and re-runs it (superseding the record) with RetryFailed.
func TestFabricRunnerHonoursJournalledFailure(t *testing.T) {
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := pointSpec(fabricOpt(), obs.Point{App: "lu", Cluster: 2})
	if err != nil {
		t.Fatal(err)
	}
	storeFailure(t, j, spec)
	if _, _, err := FabricRunner(Options{Journal: j})(spec); err == nil ||
		!strings.Contains(err.Error(), "journalled as failed") {
		t.Fatalf("runner error = %v, want the journalled failure", err)
	}
	res, resumed, err := FabricRunner(Options{Journal: j, RetryFailed: true})(spec)
	if err != nil || resumed || res == nil {
		t.Fatalf("RetryFailed run: resumed=%v err=%v", resumed, err)
	}
	if _, ok, _ := j.LoadFailure(spec.App, spec.Size, spec.ClusterSize, spec.CacheKB, spec.ConfigHash); ok {
		t.Error("the retried success did not supersede the failure record")
	}
	if _, resumed, err := FabricRunner(Options{Journal: j})(spec); err != nil || !resumed {
		t.Errorf("third run: resumed=%v err=%v, want a journal replay", resumed, err)
	}
}

// TestFabricRunnerIgnoresStop: the worker's own Stop hook decides
// between points, so the runner clears Stop and an interrupt cannot
// come back as a point failure.
func TestFabricRunnerIgnoresStop(t *testing.T) {
	spec, err := pointSpec(fabricOpt(), obs.Point{App: "lu", Cluster: 2})
	if err != nil {
		t.Fatal(err)
	}
	run := FabricRunner(Options{Stop: func() bool { return true }})
	if _, _, err := run(spec); err != nil {
		t.Fatalf("runner with a stop requested: %v", err)
	}
}

// TestFabricRunnerWritesLocalArtifacts: the runner writes the same
// per-point profile, critpath and trace files, byte for byte, as a
// local Suite.Run of that point, and takes the machine from the spec.
func TestFabricRunnerWritesLocalArtifacts(t *testing.T) {
	artifacts := func(opt Options, dir string) Options {
		opt.ProfileDir = filepath.Join(dir, "profile")
		opt.CritpathDir = filepath.Join(dir, "critpath")
		opt.TraceDir = filepath.Join(dir, "trace")
		return opt
	}
	localDir, fleetDir := t.TempDir(), t.TempDir()
	if _, err := NewSuite(artifacts(fabricOpt(), localDir)).Run("lu", 2, 4); err != nil {
		t.Fatal(err)
	}
	spec, err := pointSpec(fabricOpt(), obs.Point{App: "lu", Cluster: 2, CacheKB: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := FabricRunner(artifacts(Options{}, fleetDir))(spec); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"profile", "critpath", "trace"} {
		local, err := os.ReadDir(filepath.Join(localDir, sub))
		if err != nil {
			t.Fatal(err)
		}
		if len(local) != 1 {
			t.Fatalf("local %s: %d files, want 1", sub, len(local))
		}
		name := local[0].Name()
		want, err := os.ReadFile(filepath.Join(localDir, sub, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(fleetDir, sub, name))
		if err != nil {
			t.Fatalf("runner wrote no %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs between the runner and a local Suite.Run", name)
		}
	}
}

// settled wraps a worker's runner so the test's cleanup first waits for
// the points in flight. A worker still computing a stolen duplicate when
// the sweep drains would otherwise store into its journal while the
// test removes the directory. Call it after creating the journal's
// TempDir: cleanups run last-registered first.
func settled(t *testing.T, run fabric.Runner) fabric.Runner {
	var inflight sync.RWMutex
	t.Cleanup(inflight.Lock)
	return func(spec fabric.PointSpec) (*core.Result, bool, error) {
		inflight.RLock()
		defer inflight.RUnlock()
		return run(spec)
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
		Obs:          fabric.NewObs(obs.NewSweep("keystone", nil, evlog)),
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
	w1Inner := settled(t, FabricRunner(Options{Journal: w1Journal}))
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
			Run: settled(t, FabricRunner(Options{Journal: w2Journal})),
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
	if n := kinds[obs.EventPointDone] + kinds[obs.EventPointReplay]; n != len(specs) {
		t.Errorf("%d first completions, want %d; kinds = %v", n, len(specs), kinds)
	}
}

// TestFleetTimelineCompleteUnderChaos is the fleet-observability
// keystone: a chaotic distributed sweep (drop/dup/delay, a mid-sweep
// worker crash with journal-backed restart, and a network partition
// that black-holes the other worker past the liveness deadline) must
// still produce a coordinator timeline in which every planned point was
// leased to a worker and reached exactly one terminal state, a
// coordinator /status that accounts for every planned point, and a
// rendered table byte-identical to a plain local run. The render pass
// reports to the coordinator's sweep, as in the CLI, and its replays of
// the points the fleet settled must add nothing.
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

	// The coordinator's sweep, with its whole log captured through the
	// lossless mirror for the audit below.
	evlog := obs.NewLog(nil, "keystone")
	var logMu sync.Mutex
	var timeline []obs.Event
	evlog.SetMirror(func(e obs.Event) {
		logMu.Lock()
		timeline = append(timeline, e)
		logMu.Unlock()
	})
	sweep := obs.NewSweep("keystone", nil, evlog)
	sweep.SetTotalPoints(len(specs))
	onResult, onFailure := CoordinatorSinks(coordJournal)
	coord := fabric.NewCoordinator(fabric.CoordinatorConfig{
		DeadAfter:    250 * time.Millisecond,
		LeaseTimeout: 2 * time.Second,
		BackoffBase:  10 * time.Millisecond,
		Steal:        true,
		LocalGrace:   time.Hour, // the fleet must do the work in this test
		OnResult:     onResult,
		OnFailure:    onFailure,
		Obs:          fabric.NewObs(sweep),
	})
	sweep.SetWorkers(coord.FleetWorkers)
	go coord.Serve(net.Listener()) //simlint:allow goroutine — test harness

	// Each worker runs its own obs plane, as with -events or -serve: a
	// sweep feeding a process-local event log.
	workerObs := func(id string) *obs.Sweep {
		return obs.NewSweep("worker-"+id, nil, obs.NewLog(nil, "worker-"+id))
	}

	// Once a fault is injected, every point completion waits until the
	// faulted worker is back (w1 re-dialed, w2 healed and re-dialed).
	// The sweep therefore outlasts the partition, so the coordinator
	// sees w2 go silent past DeadAfter however fast points simulate,
	// and no restart dials a network the finished sweep has closed.
	crashed, w1Back := make(chan struct{}), make(chan struct{})
	partitioned, w2Back := make(chan struct{}), make(chan struct{})
	held := func(run fabric.Runner) fabric.Runner {
		return func(spec fabric.PointSpec) (*core.Result, bool, error) {
			res, resumed, err := run(spec)
			select {
			case <-crashed:
				<-w1Back
			default:
			}
			select {
			case <-partitioned:
				<-w2Back
			default:
			}
			return res, resumed, err
		}
	}

	// Worker 1 crashes right after its second fresh completion; its
	// restart resumes from its journal.
	w1Journal, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w1Sweep := workerObs("w1")
	w1Inner := settled(t, FabricRunner(Options{Journal: w1Journal, Obs: w1Sweep}))
	var w1Done int32
	crashOnce := sync.Once{}
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
	startW1(held(func(spec fabric.PointSpec) (*core.Result, bool, error) {
		res, resumed, err := w1Inner(spec)
		if err == nil && !resumed && atomic.AddInt32(&w1Done, 1) == 2 {
			crashOnce.Do(func() {
				net.Crash("w1")
				close(crashed)
			})
		}
		return res, resumed, err
	}))
	go func() { //simlint:allow goroutine — test harness
		defer close(w1Back)
		<-crashed
		time.Sleep(50 * time.Millisecond) //simlint:allow wallclock — restart delay
		startW1(held(w1Inner))
	}()

	// Worker 2 is partitioned (black-holed, conn nominally up) after its
	// second fresh completion, long enough for the coordinator to declare
	// it dead and requeue its leases; after the heal it redials.
	w2Journal, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w2Sweep := workerObs("w2")
	w2Inner := settled(t, FabricRunner(Options{Journal: w2Journal, Obs: w2Sweep}))
	var w2Done int32
	partOnce := sync.Once{}
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
	startW2(held(func(spec fabric.PointSpec) (*core.Result, bool, error) {
		res, resumed, err := w2Inner(spec)
		if err == nil && !resumed && atomic.AddInt32(&w2Done, 1) == 2 {
			partOnce.Do(func() {
				net.Partition("w2")
				close(partitioned)
			})
		}
		return res, resumed, err
	}))
	go func() { //simlint:allow goroutine — test harness
		defer close(w2Back)
		<-partitioned
		// Outlast DeadAfter so the silence is noticed and the leases move.
		time.Sleep(400 * time.Millisecond) //simlint:allow wallclock — partition window
		net.Heal("w2")
		startW2(held(w2Inner))
	}()

	if _, err := coord.Run(specs); err != nil {
		t.Fatalf("distributed sweep: %v", err)
	}

	// Tables byte-identical, zero fresh simulations on render.
	var dist bytes.Buffer
	ropt := fabricOpt()
	ropt.Out = &dist
	ropt.Journal = coordJournal
	ropt.Obs = sweep
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

	// Completeness: every planned point was leased to a worker and
	// reached exactly one terminal state, carried by a worker (so none
	// came from the render pass), despite the crash, the partition and
	// the message chaos.
	logMu.Lock()
	evs := append([]obs.Event(nil), timeline...)
	logMu.Unlock()
	leased, terminal := map[string]int{}, map[string]int{}
	dead := 0
	for _, e := range evs {
		switch e.Kind {
		case obs.EventPointStart:
			if e.Worker != "" {
				leased[e.Point]++
			}
		case obs.EventPointDone, obs.EventPointReplay:
			terminal[e.Point]++
			if e.Worker == "" {
				t.Errorf("%s of %s carries no worker: the render pass reported it", e.Kind, e.Point)
			}
		case obs.EventPointFail:
			t.Errorf("point %s failed: %s", e.Point, e.Error)
		case fabric.EventWorkerDead:
			dead++
		}
	}
	for _, spec := range specs {
		name := spec.Name()
		if leased[name] == 0 {
			t.Errorf("point %s was never leased to a worker", name)
		}
		if terminal[name] != 1 {
			t.Errorf("point %s has %d terminal events, want 1", name, terminal[name])
		}
	}
	// Both failure injections left liveness footprints.
	if dead < 2 {
		t.Errorf("want at least 2 %s events (crash + partition), got %d", fabric.EventWorkerDead, dead)
	}

	// The coordinator's /status accounts for every planned point.
	doc := sweep.Status()
	if c := doc.Counts; c.Done+c.Replayed != len(specs) || c.Failed != 0 || len(doc.Points) != len(specs) {
		t.Errorf("status counts %+v over %d rows do not account for %d planned points", c, len(doc.Points), len(specs))
	}
	if doc.ETA.DonePoints != doc.ETA.TotalPoints || doc.ETA.TotalPoints != len(specs) {
		t.Errorf("eta %d of %d points, want %d of %d", doc.ETA.DonePoints, doc.ETA.TotalPoints, len(specs), len(specs))
	}
	if len(doc.Workers) < 2 {
		t.Errorf("status workers block %+v, want at least w1 and w2", doc.Workers)
	}
}
