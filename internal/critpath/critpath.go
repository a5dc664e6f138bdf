// Package critpath is the simulator's virtual-time critical-path and
// synchronization-bottleneck analyzer.
//
// The paper explains every clustering result through *where* each
// application spends its time — barrier-dominated phases in Ocean, lock
// traffic in Cholesky-style codes, merge sharing in MP3D — yet the
// simulator's Result reports only whole-run aggregates. An Analyzer
// attached to a core.Machine (via Config.Critpath) segments the run
// into barrier-delimited phases and attributes simulated time causally
// within them:
//
//   - phases: every release of a machine-wide barrier closes a phase.
//     The analyzer snapshots each processor's cumulative
//     stats.Breakdown at the boundary; a phase's per-PE breakdown is
//     the delta against the previous boundary, so the phase breakdowns
//     of one processor tile its whole-run breakdown exactly
//     (telescoping sums — the package's load-bearing invariant, pinned
//     by TestCritpathPhasesTileBreakdowns).
//   - barrier imbalance: for every barrier release episode the analyzer
//     identifies the last arriver (latest arrival time; virtual-time
//     ties broken by engine arrival order, which is deterministic) and
//     the aggregate cycles the other participants burned waiting on it.
//   - lock contention: per-lock hold cycles, FIFO queue depth, wait
//     cycles and holder→waiter wait attribution. A waiter that sat
//     through several hold periods is attributed to the holder whose
//     release finally granted it — the last link of the dependence
//     chain.
//   - critical path: the chain of last arrivers across phases bounds
//     end-to-end virtual time; comparing each phase's span against its
//     perfectly balanced counterfactual (total non-sync work divided
//     evenly over the processors) yields the ideal execution time and
//     the speedup headroom pure load balancing could buy.
//
// The Analyzer is a read-only core.Observer, called from the goroutine
// holding the engine's execution token, so it is lock-free; an analyzed
// run's Result JSON is byte-identical to an unanalyzed one.
package critpath

import (
	"fmt"

	"clustersim/internal/coherence"
	"clustersim/internal/memory"
	"clustersim/internal/stats"
)

// Clock counts simulated cycles (mirrors engine.Clock; both are int64).
type Clock = int64

// SyncObject describes one registered barrier, lock or flag.
type SyncObject struct {
	ID           int
	Kind         stats.SyncKind
	Name         string
	Participants int // barrier width; 0 for locks and flags
}

// Arrival is one processor's arrival at a barrier, in engine arrival
// order (the slice the machine hands to BarrierRelease lists waiters
// first, the releasing processor last).
type Arrival struct {
	PE int
	At Clock
}

// phase is one closed barrier-delimited interval, times relative to
// the measurement origin.
type phase struct {
	name      string
	syncID    int // -1 for the trailing run-end phase
	start     Clock
	end       Clock
	last      int // last-arriving PE
	imbalance int64
	perPE     []stats.Breakdown
}

// barrierAccum aggregates one barrier's episodes.
type barrierAccum struct {
	episodes   int
	waitCycles int64
	maxWait    int64
	lastBy     []uint64 // last-arrival count per PE
	phaseSeq   int      // phases this barrier has closed (names them)
}

func (b *barrierAccum) reset() {
	b.episodes, b.waitCycles, b.maxWait, b.phaseSeq = 0, 0, 0, 0
	for i := range b.lastBy {
		b.lastBy[i] = 0
	}
}

// pairKey identifies one holder→waiter dependence on a lock.
type pairKey struct {
	holder, waiter int32
}

// lockAccum aggregates one lock's contention profile.
type lockAccum struct {
	acquisitions uint64
	contended    uint64 // acquisitions that had to queue
	holdCycles   int64
	maxHold      int64
	waitCycles   int64
	maxWait      int64
	maxQueue     int

	holder    int // current holder PE, -1 when free
	holdStart Clock
	pairs     map[pairKey]int64 // wait cycles charged holder→waiter

	// The machine's queue, mirrored from its Sync events: how many
	// processors wait, and when the pending handoff's release began.
	queued    int
	releaseAt Clock
}

func (l *lockAccum) reset(at Clock) {
	*l = lockAccum{holder: l.holder, queued: l.queued}
	if l.holder >= 0 {
		l.holdStart = at
	}
}

// Analyzer gathers one run's critical-path profile. Create one with
// New, attach it via core.Config.Critpath, and call Report after the
// run. It implements core.Observer.
type Analyzer struct {
	procs    int
	clusters int
	started  bool
	finished bool

	view     []stats.Proc // the machine's live statistics (read only)
	arrivals []Arrival    // the open barrier episode, in arrival order
	onPhase  func(name string, at Clock)

	origin     Clock // virtual time of the last stats reset
	phaseStart Clock // origin-relative start of the open phase
	base       []stats.Breakdown
	phases     []phase

	syncs    []SyncObject    // indexed by sync ID
	barriers []*barrierAccum // indexed by sync ID; nil unless a barrier
	locks    []*lockAccum    // indexed by sync ID; nil unless a lock

	execTime Clock
	finish   []Clock
}

// New creates an empty analyzer.
func New() *Analyzer { return &Analyzer{} }

// Attach implements core.Observer: the analyzer sizes itself for the
// machine, before any synchronisation object exists, and keeps its
// statistics, whose breakdowns delimit phases.
func (a *Analyzer) Attach(as *memory.AddressSpace, _ coherence.MemoryModel, procs []stats.Proc) {
	if a.started {
		panic("critpath: Analyzer reused across runs; create one per run")
	}
	a.started = true
	a.view = procs
	a.procs = len(procs)
	a.clusters = as.NumClusters()
	a.base = make([]stats.Breakdown, a.procs)
}

// OnPhase registers fn to hear of every phase the analyzer closes at a
// barrier release: its name and release time. core.NewMachine uses it
// to mark phases on the telemetry timeline.
func (a *Analyzer) OnPhase(fn func(name string, at Clock)) { a.onPhase = fn }

// DefineSync announces a synchronisation object before any episode
// references it.
func (a *Analyzer) DefineSync(id int, kind stats.SyncKind, name string, participants int) {
	for len(a.syncs) <= id {
		a.syncs = append(a.syncs, SyncObject{ID: len(a.syncs)})
		a.barriers = append(a.barriers, nil)
		a.locks = append(a.locks, nil)
	}
	a.syncs[id] = SyncObject{ID: id, Kind: kind, Name: name, Participants: participants}
	switch kind {
	case stats.SyncBarrier:
		a.barriers[id] = &barrierAccum{lastBy: make([]uint64, a.procs)}
	case stats.SyncLock:
		a.locks[id] = &lockAccum{holder: -1}
	}
}

// syncName returns the registered name of a sync object.
func (a *Analyzer) syncName(id int) string {
	if id >= 0 && id < len(a.syncs) && a.syncs[id].Name != "" {
		return a.syncs[id].Name
	}
	return fmt.Sprintf("sync%d", id)
}

// Sync implements core.Observer. Only locks matter here: mirroring the
// machine's holder and queue, an acquire is either taken at once or
// queued, and a release either frees the lock or — when a waiter is
// queued — opens the handoff its SyncWait completes.
func (a *Analyzer) Sync(pe, id int, release bool, at Clock) {
	if a.syncs[id].Kind != stats.SyncLock {
		return
	}
	l := a.locks[id]
	switch {
	case release && l.queued > 0:
		l.releaseAt = at
	case release:
		a.LockReleased(id, pe, at)
	case l.holder < 0:
		a.LockAcquired(id, pe, at)
	default:
		l.queued++
		a.LockBlocked(id, pe, at, l.queued)
	}
}

// SyncWait implements core.Observer. A barrier's waits arrive in
// engine arrival order and the last participant's closes the episode
// — a phase, when every processor takes part, snapshotted from the
// machine's statistics once all the waits are charged. A lock's wait
// is the handoff from the holder to the longest waiter.
func (a *Analyzer) SyncWait(pe, id int, arrival, release Clock) {
	switch s := a.syncs[id]; s.Kind {
	case stats.SyncBarrier:
		a.arrivals = append(a.arrivals, Arrival{PE: pe, At: arrival})
		if len(a.arrivals) < s.Participants {
			return
		}
		var breakdowns []stats.Breakdown
		if s.Participants == a.procs {
			breakdowns = make([]stats.Breakdown, a.procs)
			for i := range breakdowns {
				breakdowns[i] = a.view[i].Breakdown
			}
		}
		if name := a.BarrierRelease(id, a.arrivals, release, breakdowns); name != "" && a.onPhase != nil {
			a.onPhase(name, release)
		}
		a.arrivals = a.arrivals[:0]
	case stats.SyncLock:
		l := a.locks[id]
		l.queued--
		a.LockHandoff(id, l.holder, pe, arrival, l.releaseAt, release)
	}
}

// Reset implements core.Observer, rebaselining the analyzer at a
// statistics reset (core.Machine.BeginMeasurement): phases and sync
// aggregates recorded during initialization are discarded so the
// report covers exactly the measured interval the Result covers.
func (a *Analyzer) Reset(_ int, at Clock) {
	a.origin = at
	a.phaseStart = 0
	a.phases = nil
	for i := range a.base {
		a.base[i] = stats.Breakdown{}
	}
	for _, b := range a.barriers {
		if b != nil {
			b.reset()
		}
	}
	for _, l := range a.locks {
		if l != nil {
			l.reset(0)
		}
	}
}

// rel converts an absolute virtual time to the measurement origin.
func (a *Analyzer) rel(at Clock) Clock { return at - a.origin }

// BarrierRelease records one barrier release episode. arrivals lists
// every participant in engine arrival order (releasing processor
// last); release is the episode's release time. breakdowns, non-nil
// only for machine-wide barriers, is each processor's cumulative
// Breakdown at the release instant and closes the open phase. The
// returned name is the closed phase's name ("" when no phase closed).
func (a *Analyzer) BarrierRelease(id int, arrivals []Arrival, release Clock, breakdowns []stats.Breakdown) string {
	b := a.barriers[id]
	b.episodes++
	last := arrivals[0]
	var imbalance int64
	for _, ar := range arrivals {
		wait := release - ar.At
		imbalance += wait
		if wait > b.maxWait {
			b.maxWait = wait
		}
		// >= keeps the latest engine-order arrival among virtual-time
		// ties: deterministic, and matches who actually released.
		if ar.At >= last.At {
			last = ar
		}
	}
	b.waitCycles += imbalance
	b.lastBy[last.PE]++
	if breakdowns == nil {
		return "" // subset barrier: an episode, not a phase boundary
	}
	start, end := a.phaseStart, a.rel(release)
	perPE := make([]stats.Breakdown, len(breakdowns))
	empty := end == start
	for i, cur := range breakdowns {
		perPE[i] = cur.Minus(a.base[i])
		if perPE[i] != (stats.Breakdown{}) {
			empty = false
		}
		a.base[i] = cur
	}
	a.phaseStart = end
	if empty {
		return "" // back-to-back releases with no work between them
	}
	b.phaseSeq++
	name := fmt.Sprintf("%s#%d", a.syncName(id), b.phaseSeq)
	a.phases = append(a.phases, phase{
		name: name, syncID: id, start: start, end: end,
		last: last.PE, imbalance: imbalance, perPE: perPE,
	})
	return name
}

// LockAcquired records an uncontended acquire: pe took the free lock
// at virtual time at.
func (a *Analyzer) LockAcquired(id, pe int, at Clock) {
	l := a.locks[id]
	l.acquisitions++
	l.holder = pe
	l.holdStart = a.rel(at)
}

// LockBlocked records a contended acquire: pe queued at virtual time
// at behind depth waiters (itself included).
func (a *Analyzer) LockBlocked(id, pe int, at Clock, depth int) {
	l := a.locks[id]
	l.contended++
	if depth > l.maxQueue {
		l.maxQueue = depth
	}
}

// LockHandoff records a release that granted the lock to the
// longest-waiting processor: from released at releaseAt, and to —
// having arrived at arrival — runs from grant. The waiter's whole wait
// is attributed to from, the holder whose release finally granted it.
func (a *Analyzer) LockHandoff(id, from, to int, arrival, releaseAt, grant Clock) {
	l := a.locks[id]
	a.closeHold(l, releaseAt)
	wait := grant - arrival
	l.waitCycles += wait
	if wait > l.maxWait {
		l.maxWait = wait
	}
	if l.pairs == nil {
		l.pairs = make(map[pairKey]int64)
	}
	l.pairs[pairKey{holder: int32(from), waiter: int32(to)}] += wait
	l.acquisitions++
	l.holder = to
	l.holdStart = a.rel(grant)
}

// LockReleased records a release with an empty queue.
func (a *Analyzer) LockReleased(id, pe int, at Clock) {
	l := a.locks[id]
	a.closeHold(l, at)
	l.holder = -1
}

// closeHold charges the current hold period ending at absolute time at.
func (a *Analyzer) closeHold(l *lockAccum, at Clock) {
	hold := a.rel(at) - l.holdStart
	l.holdCycles += hold
	if hold > l.maxHold {
		l.maxHold = hold
	}
}

// End implements core.Observer: clocks are the processors' final
// virtual times, from which Finish gets the Result's origin-relative
// values.
func (a *Analyzer) End(clocks []Clock) {
	finish := make([]Clock, len(clocks))
	final := make([]stats.Breakdown, len(clocks))
	var execTime Clock
	for i, t := range clocks {
		finish[i] = t - a.origin
		execTime = max(execTime, finish[i])
		final[i] = a.view[i].Breakdown
	}
	a.view = nil // the run is over; let go of the machine's statistics
	a.Finish(execTime, finish, final)
}

// Finish closes the run: the trailing phase spans from the last
// barrier boundary to each processor's completion. execTime, finish
// and final are the Result's origin-relative values.
func (a *Analyzer) Finish(execTime Clock, finish []Clock, final []stats.Breakdown) {
	if a.finished {
		panic("critpath: Finish called twice")
	}
	a.finished = true
	a.execTime = execTime
	a.finish = append([]Clock(nil), finish...)
	// A lock still held at run end (a kernel bug core tolerates) has
	// its open hold charged through the end of the run.
	for _, l := range a.locks {
		if l != nil && l.holder >= 0 {
			a.closeHold(l, a.origin+execTime)
			l.holder = -1
		}
	}
	start := a.phaseStart
	perPE := make([]stats.Breakdown, len(final))
	empty := execTime == start
	last, lastAt := 0, Clock(-1)
	var imbalance int64
	for i, cur := range final {
		perPE[i] = cur.Minus(a.base[i])
		if perPE[i] != (stats.Breakdown{}) {
			empty = false
		}
		a.base[i] = cur
		imbalance += execTime - finish[i]
		if finish[i] > lastAt { // tie: lowest PE
			last, lastAt = i, finish[i]
		}
	}
	a.phaseStart = execTime
	if empty {
		return // the run ended exactly on a barrier
	}
	a.phases = append(a.phases, phase{
		name: "(run end)", syncID: -1, start: start, end: execTime,
		last: last, imbalance: imbalance, perPE: perPE,
	})
}

// The analyzer works from synchronisation alone; it ignores the other
// core.Observer events.
func (a *Analyzer) Place(memory.Addr, uint64, int)                                  {}
func (a *Analyzer) Ref(int, int, bool, memory.Addr, Clock, coherence.Access, Clock) {}
func (a *Analyzer) Compute(int, Clock, Clock)                                       {}
func (a *Analyzer) Invalidated(uint64, int, int, int, Clock)                        {}
func (a *Analyzer) Evicted(uint64, int, Clock)                                      {}
