// Package perf is the simulator's self-observability layer: where the
// previous layers watch the *simulated* machine (telemetry, the sharing
// profiler, the sanitizer), this one watches the *simulator* — host
// wall-clock attribution per execution phase, simulation throughput
// (simulated cycles and engine events per wall second), and Go runtime
// health (heap peak, GC pauses, goroutine count).
//
// A Monitor attaches to a core.Machine via Config.Perf as one of its
// observers. It is purely observational: it never reads or writes
// simulated state, touches no virtual clock, and is excluded from the
// config hash, so a monitored run produces a Result byte-identical to
// an unmonitored one (pinned by test across all nine applications).
//
// Phase attribution exploits the engine's token discipline: exactly one
// processor coroutine, or the engine's dispatch loop, executes at any
// instant, so a single global phase register plus one monotonic-clock
// read per transition attributes every wall nanosecond to exactly one
// of three phases. App is the kernels' own code. Sched is the dispatch
// loop: ready-set maintenance, the runtime coroutine switches, and on a
// machine declared race-free the perform half of every buffered event
// (statistics and observer calls; see core.Proc). Coherence is the
// memory-system model (cache, directory and latency model), wherever
// it is called from. The three phase totals tile the run's wall time
// exactly.
package perf

import (
	"runtime"
	"slices"
	"time"

	"clustersim/internal/coherence"
	"clustersim/internal/memory"
	"clustersim/internal/stats"
)

// Phase classifies one span of the simulator's host execution.
type Phase uint8

const (
	// PhaseApp is application execution: the kernel's own code and the
	// issue half of every reference — on an undeclared machine also the
	// perform half (statistics, observer calls), which runs inline.
	PhaseApp Phase = iota
	// PhaseSched is the engine's dispatch loop: ready-set maintenance,
	// the coroutine switches into and out of it, and on a race-free
	// machine the perform half of every buffered event.
	PhaseSched
	// PhaseCoherence is the memory-system model: cluster cache lookup,
	// directory state machine and latency accounting.
	PhaseCoherence

	numPhases
)

// String names the phase as it appears in reports.
func (p Phase) String() string {
	switch p {
	case PhaseApp:
		return "app"
	case PhaseSched:
		return "sched"
	case PhaseCoherence:
		return "coherence"
	}
	return "unknown"
}

// hostSampleEvery is the transition-count cadence of mid-run host
// snapshots (heap, goroutines). Counting transitions instead of wall
// time keeps the sampling schedule deterministic for a deterministic
// simulation, and amortises the runtime/metrics read to noise.
const hostSampleEvery = 1 << 16

// Monitor measures one run. Create one per run with New, attach it via
// core.Config.Perf, and read the Report after the run. All methods are
// called from the processor holding the engine's execution token, from
// the engine's dispatch loop, or from the machine before/after the run,
// one at a time, so the monitor needs no locking — the same
// single-writer argument as the telemetry collector.
type Monitor struct {
	base    time.Time // monotonic origin
	lastNS  int64     // time of the last phase transition, ns since base
	phase   Phase
	running bool

	phaseNS     [numPhases]int64
	transitions [numPhases]uint64

	wallNS    int64 // Start→Stop span
	simCycles int64 // final virtual time, set by Stop

	startMem runtime.MemStats
	stopMem  runtime.MemStats

	sampleCountdown uint32
	heapPeak        uint64
	goroutinePeak   int

	host Host
}

// New creates an idle monitor.
func New() *Monitor { return &Monitor{} }

// Start begins the run clock in PhaseSched (the engine dispatches the
// first token before any kernel instruction runs). An attached monitor
// starts on the engine's first EnterSched, at the top of its Run.
func (m *Monitor) Start() {
	if m == nil || m.running {
		return
	}
	m.running = true
	m.base = time.Now() //simlint:allow wallclock — host-side self-measurement only
	m.lastNS = 0
	m.phase = PhaseSched
	m.host = ReadHost()
	runtime.ReadMemStats(&m.startMem)
	m.sampleHost()
	m.sampleCountdown = hostSampleEvery
}

// now returns nanoseconds since Start on the monotonic clock.
func (m *Monitor) now() int64 {
	return int64(time.Since(m.base)) //simlint:allow wallclock — host-side self-measurement only
}

// Transition charges the span since the previous transition to the
// current phase and enters p. Cost: one monotonic clock read.
func (m *Monitor) Transition(p Phase) {
	if m == nil || !m.running {
		return
	}
	m.enter(p)
	m.transitions[p]++
	m.sampleCountdown--
	if m.sampleCountdown == 0 {
		m.sampleCountdown = hostSampleEvery
		m.sampleHost()
	}
}

// enter charges the span since the previous transition to the current
// phase and switches to p without counting an entry.
func (m *Monitor) enter(p Phase) {
	t := m.now()
	m.phaseNS[m.phase] += t - m.lastNS
	m.lastNS = t
	m.phase = p
}

// EnterSched marks a kernel suspending to the engine's dispatch loop.
// The engine calls it through its Timer interface; its first call, at
// the top of the engine's Run, opens the run clock unless Start already
// did.
func (m *Monitor) EnterSched() {
	if m != nil && m.base.IsZero() {
		m.Start()
	}
	m.Transition(PhaseSched)
}

// EnterApp marks a processor resuming application execution (engine
// Timer interface).
func (m *Monitor) EnterApp() { m.Transition(PhaseApp) }

// EnterCoherence marks entry into the memory-system model; the system
// Wrap returns brackets every Read and Write with EnterCoherence and a
// return to the phase the call interrupted.
func (m *Monitor) EnterCoherence() { m.Transition(PhaseCoherence) }

// Wrap returns sys with every Read and Write bracketed by the
// coherence phase: exactly one EnterCoherence per memory-system call,
// the count Report gives as Refs, after which the monitor returns to
// the phase the call interrupted — app when a kernel performs the
// reference inline, sched when the dispatch loop performs a buffered
// one — without counting an entry. core.NewMachine installs it when
// Config.Perf is set, so an unmonitored machine's references never
// pass through it.
func (m *Monitor) Wrap(sys coherence.MemoryModel) coherence.MemoryModel {
	return timedSystem{sys, m}
}

type timedSystem struct {
	coherence.MemoryModel
	m *Monitor
}

func (t timedSystem) Read(proc, cluster int, addr memory.Addr, now int64) coherence.Access {
	back := t.m.phase
	t.m.EnterCoherence()
	acc := t.MemoryModel.Read(proc, cluster, addr, now)
	t.m.resume(back)
	return acc
}

func (t timedSystem) Write(proc, cluster int, addr memory.Addr, now int64) coherence.Access {
	back := t.m.phase
	t.m.EnterCoherence()
	acc := t.MemoryModel.Write(proc, cluster, addr, now)
	t.m.resume(back)
	return acc
}

// resume returns to phase p after a memory-system call, uncounted.
func (m *Monitor) resume(p Phase) {
	if m.running {
		m.enter(p)
	}
}

// End implements core.Observer: the run's final virtual time stops the
// clock.
func (m *Monitor) End(clocks []int64) { m.Stop(slices.Max(clocks)) }

// The monitor watches the host, not the simulation, so it ignores the
// other core.Observer events.
func (m *Monitor) Attach(*memory.AddressSpace, coherence.MemoryModel, []stats.Proc) {}
func (m *Monitor) Place(memory.Addr, uint64, int)                                   {}
func (m *Monitor) Ref(int, int, bool, memory.Addr, int64, coherence.Access, int64)  {}
func (m *Monitor) Compute(int, int64, int64)                                        {}
func (m *Monitor) DefineSync(int, stats.SyncKind, string, int)                      {}
func (m *Monitor) Sync(int, int, bool, int64)                                       {}
func (m *Monitor) SyncWait(int, int, int64, int64)                                  {}
func (m *Monitor) Invalidated(uint64, int, int, int, int64)                         {}
func (m *Monitor) Evicted(uint64, int, int64)                                       {}
func (m *Monitor) Reset(int, int64)                                                 {}

// sampleHost snapshots the runtime gauges whose peaks the report keeps.
func (m *Monitor) sampleHost() {
	heap, goroutines := ReadHostGauges()
	if heap > m.heapPeak {
		m.heapPeak = heap
	}
	if goroutines > m.goroutinePeak {
		m.goroutinePeak = goroutines
	}
}

// Stop closes the run clock. simCycles is the run's final virtual time
// (the simulated work accomplished); End passes the maximum final
// processor clock. Stop is idempotent.
func (m *Monitor) Stop(simCycles int64) {
	if m == nil || !m.running {
		return
	}
	m.enter(m.phase)
	m.wallNS = m.lastNS
	m.simCycles = simCycles
	m.running = false
	runtime.ReadMemStats(&m.stopMem)
	m.sampleHost()
}

// PhaseBreakdown is the wall-clock attribution of one run. The three
// phase spans tile WallNS exactly.
type PhaseBreakdown struct {
	AppNS       int64 `json:"appNs"`
	SchedNS     int64 `json:"schedNs"`
	CoherenceNS int64 `json:"coherenceNs"`
}

// Report is the monitor's summary of one run: throughput, phase
// attribution and the host block. Wall-clock fields vary run to run;
// Handoffs and Refs are deterministic for a deterministic simulation,
// but Handoffs counts EnterSched calls — kernel suspensions — so it
// depends on the engine's mechanism (run-ahead suspends once per buffer
// rather than once per reference), not on the simulation alone.
type Report struct {
	WallNS       int64          `json:"wallNs"`
	SimCycles    int64          `json:"simCycles"`
	CyclesPerSec float64        `json:"cyclesPerSec"`
	Handoffs     uint64         `json:"handoffs"`     // kernel suspensions to the dispatch loop
	Refs         uint64         `json:"refs"`         // memory-system calls observed
	EventsPerSec float64        `json:"eventsPerSec"` // (handoffs+refs) per wall second
	Phases       PhaseBreakdown `json:"phases"`
	AllocBytes   uint64         `json:"allocBytes"` // heap bytes allocated during the run
	Allocs       uint64         `json:"allocs"`     // heap objects allocated during the run
	Host         Host           `json:"host"`
}

// Report summarises a stopped (or still-running) monitor.
func (m *Monitor) Report() *Report {
	if m == nil {
		return nil
	}
	r := &Report{
		WallNS:    m.wallNS,
		SimCycles: m.simCycles,
		Handoffs:  m.transitions[PhaseSched],
		Refs:      m.transitions[PhaseCoherence],
		Phases: PhaseBreakdown{
			AppNS:       m.phaseNS[PhaseApp],
			SchedNS:     m.phaseNS[PhaseSched],
			CoherenceNS: m.phaseNS[PhaseCoherence],
		},
		AllocBytes: m.stopMem.TotalAlloc - m.startMem.TotalAlloc,
		Allocs:     m.stopMem.Mallocs - m.startMem.Mallocs,
		Host:       m.host,
	}
	r.Host.WallNS = m.wallNS
	r.Host.HeapPeakBytes = m.heapPeak
	r.Host.GoroutinePeak = m.goroutinePeak
	r.Host.GCPauseTotalNS = int64(m.stopMem.PauseTotalNs - m.startMem.PauseTotalNs)
	r.Host.NumGC = m.stopMem.NumGC - m.startMem.NumGC
	if sec := float64(m.wallNS) / 1e9; sec > 0 {
		r.CyclesPerSec = float64(m.simCycles) / sec
		r.EventsPerSec = float64(r.Handoffs+r.Refs) / sec
	}
	return r
}
