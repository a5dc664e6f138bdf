package core

import (
	"clustersim/internal/coherence"
	"clustersim/internal/memory"
	"clustersim/internal/sanitizer"
	"clustersim/internal/stats"
)

// Observer is the one contract between a Machine and the instruments
// that watch it: the tracer, the telemetry collector, the sharing
// profiler, the critical-path analyzer, the runtime sanitizer and the
// performance monitor. NewMachine builds one fan-out over the observers
// the Config attaches; each event is then one nil check and one call on
// the simulation's paths, and a machine with nothing attached pays only
// the check.
//
// Calls arrive in simulation order from whichever holds the engine's
// execution token — a processor's kernel, or the dispatch loop
// performing a race-free kernel's buffered references — one at a time,
// so implementations need no locking.
// Observers are read-only: they may read the address space, the memory
// system and the per-processor statistics they are handed but never
// change them (simlint's readonly rule binds every observer package),
// so an observed run is byte-identical to an unobserved one. The
// signatures use only coherence, memory and stats types, so observer
// packages implement Observer without importing core.
type Observer interface {
	// Attach announces the machine before anything is allocated: its
	// address space, its memory system, and the live per-processor
	// statistics indexed by processor. Processor p sits in cluster
	// p / (len(procs) / as.NumClusters()).
	Attach(as *memory.AddressSpace, sys coherence.MemoryModel, procs []stats.Proc)
	// Place reports that [base, base+size) was pinned to the cluster of
	// processor pe (Machine.Place and AllocLocal).
	Place(base memory.Addr, size uint64, pe int)
	// Ref reports one memory reference issued by pe at issue, its
	// coherence outcome, and the stall pe was charged for it (stores
	// stall only under BlockingWrites).
	Ref(pe, cluster int, write bool, addr memory.Addr, issue Clock, acc coherence.Access, stall Clock)
	// Compute reports cycles of local work by pe starting at start.
	Compute(pe int, start, cycles Clock)
	// DefineSync announces a synchronisation object before any event
	// names it. IDs are dense, in creation order; participants is the
	// barrier width (0 for locks and flags).
	DefineSync(id int, kind stats.SyncKind, name string, participants int)
	// Sync reports a synchronisation operation by pe at virtual time
	// at: a barrier arrival, lock acquire or flag wait (release false),
	// or a lock release or flag set (release true). The SyncWaits a
	// release ends follow it; a barrier's follow its last arrival.
	Sync(pe, id int, release bool, at Clock)
	// SyncWait reports that pe waited on sync object id from arrival to
	// release and was charged the span. A barrier reports every
	// participant in engine arrival order, the last arriver last; a
	// lock reports the waiter it was handed to.
	SyncWait(pe, id int, arrival, release Clock)
	// Invalidated and Evicted report the protocol events an Access
	// cannot carry: which cluster lost which line, and why.
	coherence.Observer
	// Reset reports that pe began the measured phase at virtual time at
	// (BeginMeasurement): every statistic was just zeroed, while caches
	// and directory stay warm.
	Reset(pe int, at Clock)
	// End closes a successful run; clocks holds each processor's final
	// virtual time.
	End(clocks []Clock)
}

// Tracer is the observer slot Config.Tracer fills; the trace package's
// Collector records the event stream there for trace-driven replay.
type Tracer = Observer

// fanout delivers every event to each attached observer in order. A
// machine with nothing attached holds a nil fanout.
type fanout []Observer

// observe builds the machine's fan-out from the configuration, once.
// Besides the events, two observers hook the engine (telemetry's
// handoff probe, the perf monitor's phase timer), and the perf monitor
// wraps the memory system so each Read and Write enters the coherence
// phase exactly once. The monitor comes first, so its run clock stops
// before the others' end-of-run work. The one edge between observers
// is explicit here too: each phase the critical-path analyzer closes
// is marked on the telemetry timeline when both are attached.
func (m *Machine) observe(cfg Config) fanout {
	var f fanout
	if cfg.Perf != nil {
		m.sys = cfg.Perf.Wrap(m.sys)
		m.sched.SetTimer(cfg.Perf)
		f = append(f, cfg.Perf)
	}
	if cfg.Sanitize {
		// Global monotonicity is safe to assert because Validate rejects
		// Sanitize with a nonzero Quantum.
		c := sanitizer.New(m.sys, cfg.Procs, true)
		c.CheckRaces(m.issuedAhead)
		f = append(f, c)
	}
	if cfg.Tracer != nil {
		f = append(f, cfg.Tracer)
	}
	if tel := cfg.Telemetry; tel != nil {
		tel.SetSampleEvery(cfg.SampleEvery)
		m.sched.SetProbe(tel)
		f = append(f, tel)
		if cfg.Critpath != nil {
			cfg.Critpath.OnPhase(func(name string, at Clock) { tel.MarkInstant("phase "+name, at) })
		}
	}
	if cfg.Profile != nil {
		f = append(f, cfg.Profile)
	}
	if cfg.Critpath != nil {
		f = append(f, cfg.Critpath)
	}
	return f
}

func (f fanout) Attach(as *memory.AddressSpace, sys coherence.MemoryModel, procs []stats.Proc) {
	for _, o := range f {
		o.Attach(as, sys, procs)
	}
}

func (f fanout) Place(base memory.Addr, size uint64, pe int) {
	for _, o := range f {
		o.Place(base, size, pe)
	}
}

func (f fanout) Ref(pe, cluster int, write bool, addr memory.Addr, issue Clock, acc coherence.Access, stall Clock) {
	for _, o := range f {
		o.Ref(pe, cluster, write, addr, issue, acc, stall)
	}
}

func (f fanout) Compute(pe int, start, cycles Clock) {
	for _, o := range f {
		o.Compute(pe, start, cycles)
	}
}

func (f fanout) DefineSync(id int, kind stats.SyncKind, name string, participants int) {
	for _, o := range f {
		o.DefineSync(id, kind, name, participants)
	}
}

func (f fanout) Sync(pe, id int, release bool, at Clock) {
	for _, o := range f {
		o.Sync(pe, id, release, at)
	}
}

func (f fanout) SyncWait(pe, id int, arrival, release Clock) {
	for _, o := range f {
		o.SyncWait(pe, id, arrival, release)
	}
}

func (f fanout) Invalidated(line uint64, writerPE, writerCluster, victim int, now Clock) {
	for _, o := range f {
		o.Invalidated(line, writerPE, writerCluster, victim, now)
	}
}

func (f fanout) Evicted(line uint64, cluster int, now Clock) {
	for _, o := range f {
		o.Evicted(line, cluster, now)
	}
}

func (f fanout) Reset(pe int, at Clock) {
	for _, o := range f {
		o.Reset(pe, at)
	}
}

func (f fanout) End(clocks []Clock) {
	for _, o := range f {
		o.End(clocks)
	}
}
