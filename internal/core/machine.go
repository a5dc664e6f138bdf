package core

import (
	"fmt"

	"clustersim/internal/coherence"
	"clustersim/internal/engine"
	"clustersim/internal/fault"
	"clustersim/internal/memory"
	"clustersim/internal/sanitizer"
	"clustersim/internal/stats"
)

// Machine is one simulated clustered multiprocessor. Allocate shared data
// with Alloc/AllocLocal, create synchronisation objects, then call Run
// exactly once with the per-processor kernel.
type Machine struct {
	cfg   Config
	as    *memory.AddressSpace
	sys   coherence.MemoryModel
	sched *engine.Scheduler
	procs []*Proc
	stats []stats.Proc // per-processor statistics, indexed by ID
	ran   bool

	// runAhead records DeclareRaceFree or DeclareFixedStreams: the
	// kernels run ahead of simulated time. fixedStreams records the
	// latter, whose kernels promise the race check nothing.
	runAhead, fixedStreams bool

	// origin is the virtual time at which measurement began (see
	// BeginMeasurement); ExecTime is reported relative to it.
	origin Clock

	// obs receives every event of the run (see Observer); nil when
	// nothing is attached.
	obs fanout

	// syncIDs counts the synchronisation objects created; syncNames
	// guards against two registering the same name —
	// indistinguishable in every report.
	syncIDs   int
	syncNames map[string]int
}

// NewMachine builds a machine from cfg.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	as, err := memory.New(cfg.PageBytes, cfg.NumClusters())
	if err != nil {
		return nil, err
	}
	as.SetPolicy(cfg.Placement)
	// The fault injector (if any) is built once and attached to whichever
	// organisation the switch below constructs. A nil plan, or one whose
	// probabilities are all zero, attaches nothing: the coherence hot
	// paths keep their single nil check and the run is byte-identical to
	// a machine without the fault layer.
	var inj *fault.Injector
	if cfg.Faults != nil && cfg.Faults.Active() {
		inj, err = fault.NewInjector(*cfg.Faults)
		if err != nil {
			return nil, err
		}
	}
	var sys coherence.MemoryModel
	switch cfg.Organization {
	case SharedMemory:
		bus := cfg.BusCycles
		if bus == 0 {
			bus = coherence.DefaultBusCycles
		}
		mc, err := coherence.NewMemClusterSystem(as, cfg.NumClusters(), cfg.ClusterSize,
			cfg.CacheLinesPerProc(), cfg.Assoc, cfg.LineBytes, cfg.Latencies, bus, cfg.Policy)
		if err != nil {
			return nil, err
		}
		if cfg.DisableReplacementHints {
			return nil, fmt.Errorf("core: replacement hints do not apply to shared-memory clusters")
		}
		mc.SetFaults(inj)
		sys = mc
	default:
		sc, err := coherence.NewSystemAssoc(as, cfg.NumClusters(), cfg.CacheLinesPerCluster(),
			cfg.Assoc, cfg.LineBytes, cfg.Latencies, cfg.Policy)
		if err != nil {
			return nil, err
		}
		if cfg.DisableReplacementHints {
			sc.DisableReplacementHints()
		}
		sc.SetFaults(inj)
		sys = sc
	}
	m := &Machine{cfg: cfg, as: as, sys: sys}
	m.sched = engine.NewScheduler(cfg.Procs, cfg.Quantum)
	m.sched.SetLabel(cfg.Label)
	m.obs = m.observe(cfg)
	m.stats = make([]stats.Proc, cfg.Procs)
	m.procs = make([]*Proc, cfg.Procs)
	for i, pe := range m.sched.PEs() {
		m.procs[i] = &Proc{pe: pe, m: m, cluster: cfg.ClusterOf(i), stats: &m.stats[i]}
	}
	if m.obs != nil {
		m.sys.SetObserver(m.obs)
		m.obs.Attach(as, m.sys, m.stats)
	}
	return m, nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// DeclareRaceFree lets every kernel run ahead of simulated time (see
// Proc); call it before Run. It is a promise about the application:
// outside the intervals a kernel runs inside Proc.Racy, between two
// synchronisation operations (barrier, lock or flag), no processor's
// addresses or control flow depend on data that another processor
// writes. Each processor's reference stream between two such operations
// is then the same in every interleaving, so issuing it early and
// performing it in exact virtual-time order reproduces an undeclared
// run bit for bit: the same Result, and the same observer events in the
// same order. A racy interval runs inline, as on an undeclared machine.
// A wrong declaration changes results; Config.Sanitize attaches a
// happens-before race check that fails the run on any conflicting pair
// of accesses not ordered by a barrier, lock or flag of which one was
// issued ahead. The layout is fixed once Run starts: Alloc, AllocLocal
// and Place panic, because the machine cannot order them against the
// references still buffered.
func (m *Machine) DeclareRaceFree() {
	if m.ran {
		panic("core: DeclareRaceFree after Run")
	}
	m.runAhead = true
	m.sched.SetStep(m.step)
	for _, p := range m.procs {
		p.buf = make([]op, 0, runAheadOps)
	}
}

// DeclareFixedStreams lets every kernel run ahead of simulated time, as
// DeclareRaceFree does, for kernels whose reference streams were fixed
// before the run (trace replay): their addresses and control flow
// depend on no simulated data, so run-ahead reproduces an inline run
// whatever races the streams record. It promises nothing about races,
// so the race check treats their accesses as inline.
func (m *Machine) DeclareFixedStreams() {
	m.DeclareRaceFree()
	m.fixedStreams = true
}

// issuedAhead reports whether processor pe is issuing its references
// ahead under DeclareRaceFree's promise, outside Racy: the accesses the
// sanitizer's race check holds to that promise.
func (m *Machine) issuedAhead(pe int) bool {
	return !m.fixedStreams && m.procs[pe].buf != nil
}

// layoutFixed panics when what would change the address layout during a
// race-free Run (see DeclareRaceFree).
func (m *Machine) layoutFixed(what string) {
	if m.runAhead && m.ran {
		panic(fmt.Sprintf("core: %s during Run on a machine declared race-free; allocate and place shared data before Run", what))
	}
}

// Alloc reserves size bytes of shared memory; pages are homed round-robin
// at first touch, as in the paper.
func (m *Machine) Alloc(size uint64, name string) Addr {
	m.layoutFixed("Alloc")
	return m.as.Alloc(size, name)
}

// AllocLocal reserves size bytes homed at the given processor's cluster —
// the paper's explicit placement and local "stack" allocation.
func (m *Machine) AllocLocal(size uint64, name string, proc int) Addr {
	m.layoutFixed("AllocLocal")
	base := m.Alloc(size, name)
	m.Place(base, size, proc)
	return base
}

// Place pins [base, base+size) to the cluster of the given processor.
func (m *Machine) Place(base Addr, size uint64, proc int) {
	m.layoutFixed("Place")
	m.as.Place(base, size, m.cfg.ClusterOf(proc))
	if m.obs != nil {
		m.obs.Place(base, size, proc)
	}
}

// AddressSpace exposes the allocator for diagnostics.
func (m *Machine) AddressSpace() *memory.AddressSpace { return m.as }

// Sanitizer returns the attached runtime checker, or nil when
// Config.Sanitize is off. Tests install an OnViolation handler through
// it to collect violations instead of panicking.
func (m *Machine) Sanitizer() *sanitizer.Checker {
	for _, o := range m.obs {
		if c, ok := o.(*sanitizer.Checker); ok {
			return c
		}
	}
	return nil
}

// System exposes the memory system for inspection and invariant audits.
func (m *Machine) System() coherence.MemoryModel { return m.sys }

// BeginMeasurement starts the measured phase of a run, SPLASH-style:
// every processor's statistics and the protocol counters are zeroed and
// the reported execution time is counted from the calling processor's
// current virtual time. Call it from exactly one processor while all
// others are held at a barrier (see the apps package's Begin helper);
// cache and directory contents are deliberately left warm, as they would
// be on a real machine after initialization.
func (m *Machine) BeginMeasurement(p *Proc) {
	p.drain()
	clear(m.stats)
	m.sys.ResetStats()
	m.origin = p.Now()
	if m.obs != nil {
		m.obs.Reset(p.ID(), m.origin)
	}
}

// Run executes kernel once on every processor and returns the result.
// A Machine runs once; build a fresh Machine per experiment point.
func (m *Machine) Run(kernel func(*Proc)) (*Result, error) {
	if m.ran {
		return nil, fmt.Errorf("core: Machine.Run called twice; build a new Machine per run")
	}
	m.ran = true
	err := m.sched.Run(func(pe *engine.PE) {
		p := m.procs[pe.ID()]
		kernel(p)
		p.drain()
	})
	if err != nil {
		return nil, err
	}
	clocks := m.sched.Times()
	if m.obs != nil {
		m.obs.End(clocks)
	}
	// A Result holds no instrument (see Result.Config).
	cfg := m.cfg
	cfg.Tracer, cfg.Telemetry, cfg.Profile, cfg.Perf, cfg.Critpath, cfg.SampleEvery = nil, nil, nil, nil, nil, 0
	res := &Result{
		Config:      cfg,
		Procs:       append([]stats.Proc(nil), m.stats...),
		Finish:      make([]Clock, m.cfg.Procs),
		Clusters:    make([]coherence.Stats, m.cfg.NumClusters()),
		Footprint:   m.as.FootprintBytes(),
		Allocations: m.as.Regions(),
	}
	for i, t := range clocks {
		res.Finish[i] = t - m.origin
		res.ExecTime = max(res.ExecTime, res.Finish[i])
	}
	for c := range res.Clusters {
		res.Clusters[c] = m.sys.ClusterStats(c)
	}
	return res, nil
}
