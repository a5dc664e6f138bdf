package critpath

import (
	"bytes"
	"strings"
	"testing"

	"clustersim/internal/memory"
	"clustersim/internal/stats"
)

// attach sizes a for procs processors in clusters clusters, as a
// machine attaching it would.
func attach(a *Analyzer, procs, clusters int) {
	as, _ := memory.New(4096, clusters)
	a.Attach(as, nil, make([]stats.Proc, procs))
}

// driveAnalyzer replays a small hand-built run: 2 PEs, one barrier
// closing two phases, one contended lock.
func driveAnalyzer() *Analyzer {
	a := New()
	attach(a, 2, 1)
	a.DefineSync(0, stats.SyncBarrier, "main", 2)
	a.DefineSync(1, stats.SyncLock, "tally", 0)
	a.Reset(0, 0)

	// Phase 1: PE0 computes 100, PE1 computes 60 then waits 40.
	a.BarrierRelease(0,
		[]Arrival{{PE: 1, At: 60}, {PE: 0, At: 100}}, 100,
		[]stats.Breakdown{
			{CPU: 100},
			{CPU: 60, SyncWait: 40},
		})

	// Lock episode inside phase 2: PE0 holds [100,130); PE1 blocks at
	// 110 and is granted at 130.
	a.LockAcquired(1, 0, 100)
	a.LockBlocked(1, 1, 110, 1)
	a.LockHandoff(1, 0, 1, 110, 130, 130)
	a.LockReleased(1, 1, 150)

	// Phase 2: PE1 is now the straggler.
	a.BarrierRelease(0,
		[]Arrival{{PE: 0, At: 160}, {PE: 1, At: 200}}, 200,
		[]stats.Breakdown{
			{CPU: 140, SyncWait: 60},
			{CPU: 140, SyncWait: 60},
		})

	// Run end: both finish at 220.
	a.Finish(220, []Clock{220, 220}, []stats.Breakdown{
		{CPU: 160, SyncWait: 60},
		{CPU: 160, SyncWait: 60},
	})
	return a
}

func TestAnalyzerPhases(t *testing.T) {
	r := driveAnalyzer().Report(0)
	if len(r.Phases) != 3 {
		t.Fatalf("phases = %d, want 3 (two barrier phases + run end)", len(r.Phases))
	}
	p := r.Phases[0]
	if p.Name != "main#1" || p.Start != 0 || p.End != 100 || p.LastArriver != 0 {
		t.Errorf("phase 0 = %+v", p)
	}
	if p.ImbalanceCycles != 40 {
		t.Errorf("phase 0 imbalance = %d, want 40", p.ImbalanceCycles)
	}
	if want := (stats.Breakdown{CPU: 60, SyncWait: 40}); p.PerPE[1] != want {
		t.Errorf("phase 0 PE1 = %+v, want %+v", p.PerPE[1], want)
	}
	p = r.Phases[1]
	if p.Name != "main#2" || p.Start != 100 || p.End != 200 || p.LastArriver != 1 {
		t.Errorf("phase 1 = %+v", p)
	}
	// Phase deltas, not cumulative values.
	if want := (stats.Breakdown{CPU: 40, SyncWait: 60}); p.PerPE[0] != want {
		t.Errorf("phase 1 PE0 = %+v, want %+v", p.PerPE[0], want)
	}
	p = r.Phases[2]
	if p.Name != "(run end)" || p.SyncID != -1 || p.Start != 200 || p.End != 220 {
		t.Errorf("run-end phase = %+v", p)
	}
	// Tiling: phase deltas per PE sum to the final cumulative breakdown.
	for pe := 0; pe < 2; pe++ {
		var sum stats.Breakdown
		for _, ph := range r.Phases {
			sum = sum.Plus(ph.PerPE[pe])
		}
		if want := (stats.Breakdown{CPU: 160, SyncWait: 60}); sum != want {
			t.Errorf("PE%d phase sum = %+v, want %+v", pe, sum, want)
		}
	}
}

func TestAnalyzerIdealSpeedup(t *testing.T) {
	r := driveAnalyzer().Report(0)
	// Work: phase 0 = 160 CPU, phase 1 = 120, phase 2 = 40; over 2 PEs
	// ideal spans are 80, 60, 20 → ideal exec 160 of 220.
	if r.IdealExecTime != 160 {
		t.Errorf("ideal exec = %d, want 160", r.IdealExecTime)
	}
	if want := 220.0 / 160.0; r.BalanceSpeedup != want {
		t.Errorf("balance speedup = %v, want %v", r.BalanceSpeedup, want)
	}
}

func TestAnalyzerBarriersAndLocks(t *testing.T) {
	r := driveAnalyzer().Report(0)
	if len(r.Barriers) != 1 {
		t.Fatalf("barriers = %+v", r.Barriers)
	}
	b := r.Barriers[0]
	if b.Name != "main" || b.Episodes != 2 || b.WaitCycles != 40+0+40+0 || b.MaxWait != 40 {
		t.Errorf("barrier = %+v", b)
	}
	if len(b.LastArrivers) != 2 || b.LastArrivers[0].Count != 1 || b.LastArrivers[1].Count != 1 {
		t.Errorf("last arrivers = %+v", b.LastArrivers)
	}
	if len(r.Locks) != 1 || r.LocksTotal != 1 {
		t.Fatalf("locks = %+v", r.Locks)
	}
	l := r.Locks[0]
	if l.Name != "tally" || l.Acquisitions != 2 || l.Contended != 1 {
		t.Errorf("lock = %+v", l)
	}
	// PE0 held [100,130), PE1 held [130,150): 50 cycles, max 30.
	if l.HoldCycles != 50 || l.MaxHold != 30 {
		t.Errorf("hold = %+v", l)
	}
	if l.WaitCycles != 20 || l.MaxWait != 20 || l.MaxQueueDepth != 1 {
		t.Errorf("wait = %+v", l)
	}
	if len(l.Pairs) != 1 || l.Pairs[0] != (HolderWaiter{Holder: 0, Waiter: 1, WaitCycles: 20}) {
		t.Errorf("pairs = %+v", l.Pairs)
	}
}

func TestAnalyzerCriticalPath(t *testing.T) {
	r := driveAnalyzer().Report(0)
	if len(r.CriticalPath) != 3 {
		t.Fatalf("path = %+v", r.CriticalPath)
	}
	if r.CriticalPath[0].PE != 0 || r.CriticalPath[1].PE != 1 {
		t.Errorf("path PEs = %+v", r.CriticalPath)
	}
	if r.CriticalPath[1].SpanCycles != 100 {
		t.Errorf("path[1] span = %d", r.CriticalPath[1].SpanCycles)
	}
	s := r.Summary()
	if s.Phases != 3 || s.ExecTime != 220 || s.TopLock != "tally" || s.TopLockWait != 20 {
		t.Errorf("summary = %+v", s)
	}
}

// Virtual-time ties at a barrier go to the latest engine-order arrival
// — the processor that actually performed the release.
func TestLastArriverTieBreak(t *testing.T) {
	a := New()
	attach(a, 3, 1)
	a.DefineSync(0, stats.SyncBarrier, "b", 3)
	a.Reset(0, 0)
	a.BarrierRelease(0,
		[]Arrival{{PE: 2, At: 50}, {PE: 0, At: 50}, {PE: 1, At: 50}}, 50,
		[]stats.Breakdown{{CPU: 50}, {CPU: 50}, {CPU: 50}})
	a.Finish(50, []Clock{50, 50, 50}, []stats.Breakdown{{CPU: 50}, {CPU: 50}, {CPU: 50}})
	r := a.Report(0)
	if r.Phases[0].LastArriver != 1 {
		t.Errorf("last arriver = P%d, want P1 (last in arrival order)", r.Phases[0].LastArriver)
	}
}

// Reset discards everything recorded during initialization.
func TestNoteResetDiscardsPrefix(t *testing.T) {
	a := New()
	attach(a, 2, 1)
	a.DefineSync(0, stats.SyncBarrier, "b", 2)
	a.BarrierRelease(0,
		[]Arrival{{PE: 1, At: 10}, {PE: 0, At: 30}}, 30,
		[]stats.Breakdown{{CPU: 30}, {CPU: 10, SyncWait: 20}})
	a.Reset(0, 30)
	a.BarrierRelease(0,
		[]Arrival{{PE: 0, At: 70}, {PE: 1, At: 80}}, 80,
		[]stats.Breakdown{{CPU: 40, SyncWait: 10}, {CPU: 50}})
	a.Finish(50, []Clock{50, 50}, []stats.Breakdown{{CPU: 40, SyncWait: 10}, {CPU: 50}})
	r := a.Report(0)
	if len(r.Phases) != 1 {
		t.Fatalf("phases = %+v, want only the post-reset phase", r.Phases)
	}
	if p := r.Phases[0]; p.Start != 0 || p.End != 50 {
		t.Errorf("phase times not origin-relative: %+v", p)
	}
	if b := r.Barriers[0]; b.Episodes != 1 {
		t.Errorf("pre-reset episode survived: %+v", b)
	}
}

// Subset barriers record imbalance episodes but never cut phases.
func TestSubsetBarrierIsNotAPhaseBoundary(t *testing.T) {
	a := New()
	attach(a, 4, 1)
	a.DefineSync(0, stats.SyncBarrier, "pair", 2)
	a.Reset(0, 0)
	if name := a.BarrierRelease(0, []Arrival{{PE: 0, At: 10}, {PE: 1, At: 20}}, 20, nil); name != "" {
		t.Errorf("subset barrier closed phase %q", name)
	}
	a.Finish(40, []Clock{40, 40, 40, 40},
		[]stats.Breakdown{{CPU: 40}, {CPU: 40}, {CPU: 40}, {CPU: 40}})
	r := a.Report(0)
	if len(r.Phases) != 1 || r.Phases[0].Name != "(run end)" {
		t.Fatalf("phases = %+v, want just the run-end phase", r.Phases)
	}
	if r.Barriers[0].Episodes != 1 || r.Barriers[0].WaitCycles != 10 {
		t.Errorf("subset episode not recorded: %+v", r.Barriers[0])
	}
}

func TestReportRoundTripAndRenderers(t *testing.T) {
	r := driveAnalyzer().Report(0)
	r.App, r.Size = "toy", "test"
	var buf bytes.Buffer
	if err := WriteReport(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != SchemaV1 || got.ExecTime != r.ExecTime || len(got.Phases) != len(r.Phases) {
		t.Errorf("round trip lost data: %+v", got)
	}
	if _, err := ReadReport(strings.NewReader(`{"schema":"bogus/v9"}`)); err == nil {
		t.Error("bad schema accepted")
	}

	var flat bytes.Buffer
	WriteFlat(&flat, r)
	for _, want := range []string{"critical path: toy", "main#1", "(run end)", "tally", "P0→P1×20"} {
		if !strings.Contains(flat.String(), want) {
			t.Errorf("flat report missing %q:\n%s", want, flat.String())
		}
	}
	var diff bytes.Buffer
	WriteDiff(&diff, r, r)
	if !strings.Contains(diff.String(), "Δexec +0") {
		t.Errorf("self-diff not zero:\n%s", diff.String())
	}
}

func TestAnalyzerReusePanics(t *testing.T) {
	a := New()
	attach(a, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("second Attach did not panic")
		}
	}()
	attach(a, 1, 1)
}

func TestKindString(t *testing.T) {
	if stats.SyncBarrier.String() != "barrier" || stats.SyncLock.String() != "lock" || stats.SyncFlag.String() != "flag" {
		t.Error("kind names wrong")
	}
}
