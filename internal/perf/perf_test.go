package perf

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"clustersim/internal/coherence"
	"clustersim/internal/memory"
)

// TestPhaseTiling: the three phase spans tile the run's wall time
// exactly — no nanosecond is dropped or double-counted.
func TestPhaseTiling(t *testing.T) {
	m := New()
	m.Start()
	m.EnterApp()
	m.EnterCoherence()
	m.EnterApp()
	m.EnterSched()
	m.EnterApp()
	m.Stop(1000)
	r := m.Report()
	if sum := r.Phases.AppNS + r.Phases.SchedNS + r.Phases.CoherenceNS; sum != r.WallNS {
		t.Errorf("phase spans sum to %d ns, wall is %d ns", sum, r.WallNS)
	}
	if r.WallNS <= 0 {
		t.Errorf("wall = %d ns, want positive", r.WallNS)
	}
}

// TestTransitionCounts: handoffs and refs count phase entries, which
// are deterministic for a deterministic caller.
func TestTransitionCounts(t *testing.T) {
	m := New()
	m.Start()
	for i := 0; i < 7; i++ {
		m.EnterSched()
		m.EnterApp()
	}
	for i := 0; i < 11; i++ {
		m.EnterCoherence()
		m.EnterApp()
	}
	m.Stop(42)
	r := m.Report()
	if r.Handoffs != 7 {
		t.Errorf("Handoffs = %d, want 7", r.Handoffs)
	}
	if r.Refs != 11 {
		t.Errorf("Refs = %d, want 11", r.Refs)
	}
	if r.SimCycles != 42 {
		t.Errorf("SimCycles = %d, want 42", r.SimCycles)
	}
	if r.CyclesPerSec <= 0 || r.EventsPerSec <= 0 {
		t.Errorf("throughput not positive: %f cycles/s, %f events/s", r.CyclesPerSec, r.EventsPerSec)
	}
}

// nullSystem answers every reference with a hit.
type nullSystem struct{ coherence.MemoryModel }

func (nullSystem) Read(int, int, memory.Addr, int64) coherence.Access  { return coherence.Access{} }
func (nullSystem) Write(int, int, memory.Addr, int64) coherence.Access { return coherence.Access{} }

// TestWrapReturnsToInterruptedPhase: a memory-system call made by a
// kernel returns to app, one made by the engine's dispatch loop (a
// buffered reference) returns to sched, and neither return counts as an
// entry — so Handoffs counts kernel suspensions alone, and the phases
// still tile the wall time.
func TestWrapReturnsToInterruptedPhase(t *testing.T) {
	m := New()
	sys := m.Wrap(nullSystem{})
	m.Start()
	m.EnterApp()
	sys.Read(0, 0, 0, 0)
	if m.phase != PhaseApp {
		t.Errorf("after an inline reference the phase is %v, want app", m.phase)
	}
	m.EnterSched()
	sys.Read(0, 0, 0, 0)
	sys.Write(0, 0, 0, 0)
	if m.phase != PhaseSched {
		t.Errorf("after a buffered reference the phase is %v, want sched", m.phase)
	}
	m.EnterApp()
	m.Stop(1)
	r := m.Report()
	if r.Handoffs != 1 || r.Refs != 3 || m.transitions[PhaseApp] != 2 {
		t.Errorf("entries: handoffs %d refs %d app %d, want 1, 3 and 2", r.Handoffs, r.Refs, m.transitions[PhaseApp])
	}
	if sum := r.Phases.AppNS + r.Phases.SchedNS + r.Phases.CoherenceNS; sum != r.WallNS {
		t.Errorf("phase spans sum to %d ns, wall is %d ns", sum, r.WallNS)
	}
}

// TestNilMonitor: every method is a no-op on a nil monitor, so call
// sites need only one branch (and some need none).
func TestNilMonitor(t *testing.T) {
	var m *Monitor
	m.Start()
	m.EnterApp()
	m.EnterSched()
	m.EnterCoherence()
	m.Stop(0)
	if r := m.Report(); r != nil {
		t.Errorf("nil monitor report = %+v, want nil", r)
	}
}

// TestStopIdempotent: a second Stop neither extends the wall span nor
// perturbs the phase totals, and transitions after Stop are ignored.
func TestStopIdempotent(t *testing.T) {
	m := New()
	m.Start()
	m.EnterApp()
	m.Stop(5)
	first := *m.Report()
	m.EnterCoherence()
	m.Stop(99)
	second := *m.Report()
	if first != second {
		t.Errorf("report changed after second Stop:\n first: %+v\nsecond: %+v", first, second)
	}
}

// TestHostBlock: the host block identifies the runtime and carries the
// run's wall span and sampled peaks.
func TestHostBlock(t *testing.T) {
	m := New()
	m.Start()
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		m.EnterApp()
		sink = append(sink, make([]byte, 1024))
		m.EnterSched()
	}
	m.Stop(1)
	_ = sink
	h := m.Report().Host
	if h.GoVersion != runtime.Version() || h.GOOS != runtime.GOOS || h.GOARCH != runtime.GOARCH {
		t.Errorf("host identity wrong: %+v", h)
	}
	if h.GOMAXPROCS <= 0 || h.NumCPU <= 0 {
		t.Errorf("host parallelism wrong: %+v", h)
	}
	if h.HeapPeakBytes == 0 {
		t.Error("heap peak not sampled")
	}
	if h.GoroutinePeak <= 0 {
		t.Error("goroutine peak not sampled")
	}
	if h.WallNS != m.Report().WallNS {
		t.Error("host wall span differs from report wall span")
	}
	// The block must be JSON-serialisable for the manifest.
	if _, err := json.Marshal(h); err != nil {
		t.Fatal(err)
	}
}

// TestCPUProfileWrites: StartCPUProfile produces a non-empty pprof file
// (the CI job additionally checks `go tool pprof` parses it).
func TestCPUProfileWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	stop, err := StartCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	busy := 0
	for i := 0; i < 1<<20; i++ {
		busy += i * i
	}
	_ = busy
	stop()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Error("cpu profile is empty")
	}
}

// TestHeapProfileWrites: WriteHeapProfile produces a non-empty file and
// errors cleanly on an unwritable path.
func TestHeapProfileWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mem.pprof")
	if err := WriteHeapProfile(path); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Error("heap profile is empty")
	}
	if err := WriteHeapProfile(filepath.Join(t.TempDir(), "no-such-dir", "mem.pprof")); err == nil {
		t.Error("unwritable path: want error, got nil")
	}
}
