//go:build go1.23

// Package engine implements the deterministic discrete-event core of the
// clustered-multiprocessor simulator, in the style of Tango-lite: every
// simulated processor runs its workload as a coroutine (iter.Pull), and
// one dispatch loop owns the ready set and resumes exactly one of them
// at a time. Control passes from processor to processor through that
// loop by direct runtime coroutine switches, never through the Go
// scheduler, so references to the shared memory-system model are always
// performed in global virtual-time order.
//
// A processor may also hand the loop work it buffered ahead of simulated
// time (Await): the loop then performs that work itself, one event per
// call of the step function the layer above installs (SetStep), under
// the same ordering rule as Yield, and resumes the coroutine only once
// the buffer is empty. That is Tango-lite's trace-driven mode fed live:
// the references are issued early and performed in order.
//
// The scheduling invariant is: the running processor may only perform an
// event while its virtual clock is within Quantum cycles of the minimum
// clock over all other runnable processors. With Quantum = 0 (the default)
// event ordering is exact; larger values trade bounded timing skew for
// fewer handoffs on large parameter sweeps.
//
// Ties in virtual time are broken by processor ID, so simulations are
// bit-reproducible. The ready set is a tournament (winner) tree with one
// leaf per processor holding the packed key time<<shift | id, so the
// (time, id) minimum is its root: a pop replays one leaf-to-root path
// and an insert stops at the first ancestor already smaller. A ready
// processor's clock may therefore be at most 2^(64-shift)-2 cycles,
// where shift is the bit width of NumPE-1 (2^58-2 at 64 processors); a
// larger clock fails the run rather than misorder it.
package engine

import (
	"fmt"
	"iter"
	"math/bits"
	"runtime/debug"
	"sort"
	"strings"
)

// Clock counts simulated processor cycles.
type Clock = int64

// Probe observes scheduler-internal events: it is the engine half of the
// telemetry layer. All callbacks arrive from the dispatch loop, in
// global virtual-time order, so implementations need no locking. A nil
// probe costs one predictable branch per handoff.
type Probe interface {
	// Handoff fires every time the dispatch loop passes the execution
	// token on. from is the yielding processor (-1 for the initial
	// dispatch), to the resuming one; fromTime and toTime are their
	// virtual clocks and readyDepth is the ready-set population after
	// the pop. The skew fromTime-toTime is the quantum slack actually
	// exploited.
	Handoff(from, to int, fromTime, toTime Clock, readyDepth int)
}

// Timer observes where the host's wall-clock time goes — the engine
// half of the perf monitor. EnterSched fires when a processor's kernel
// suspends (Yield handing off, Block, Await), so everything the dispatch
// loop does — ready-set maintenance, the coroutine switches, and performing
// buffered work through the step function — falls between it and the
// next EnterApp, which fires when a coroutine resumes application
// execution. The first EnterSched opens Run, before any processor
// coroutine starts. Run's dispatch loop and the coroutines it
// resumes execute one at a time, so calls arrive strictly ordered and
// implementations need no locking. A nil timer costs one predictable
// branch per handoff.
type Timer interface {
	EnterSched()
	EnterApp()
}

// abortPanic unwinds a processor's coroutine when it fails or when Run
// shuts the simulation down.
type abortPanic struct{}

// PE is a simulated processing element. All of its methods must be called
// only from that PE's kernel, while it holds the execution token; the
// Scheduler enforces this by construction. The step function (SetStep)
// performing the PE's buffered work may also call ID, Now and Advance.
type PE struct {
	id      int
	sched   *Scheduler
	time    Clock
	blocked bool                    // parked on a synchronisation object, out of the ready set
	pending bool                    // suspended with buffered work for the step function
	resume  func() (struct{}, bool) // runs the kernel until it next suspends
	yield   func(struct{}) bool     // suspends the kernel back to the dispatch loop
	reason  fmt.Stringer            // why blocked, formatted only for deadlock reports
}

// ID returns the processor number, in [0, NumPE).
func (pe *PE) ID() int { return pe.id }

// Now returns the processor's virtual clock in cycles.
func (pe *PE) Now() Clock { return pe.time }

// Advance moves the processor's virtual clock forward without yielding.
// Callers that generate shared events must call Yield before acting on
// shared state.
func (pe *PE) Advance(cycles Clock) {
	if cycles < 0 {
		panic(fmt.Sprintf("engine: PE %d advanced by negative %d cycles", pe.id, cycles))
	}
	pe.time += cycles
}

// SetTime warps the processor's clock forward to at (never backward).
func (pe *PE) SetTime(at Clock) {
	if at > pe.time {
		pe.time = at
	}
}

// Yield hands the execution token to other processors until this PE's
// clock is within the scheduler's quantum of the minimum runnable clock.
// It must be called before every event that touches shared simulator
// state, so that such events occur in virtual-time order.
func (pe *PE) Yield() {
	s := pe.sched
	for s.behind(pe) {
		if s.timer != nil {
			s.timer.EnterSched()
		}
		s.push(pe)
		pe.suspend()
	}
}

// Block parks the processor until another processor calls Unblock on it.
// The reason is formatted only if a deadlock report names it, so a
// synchronisation object can pass itself and parking costs no
// formatting. Time accounting for the wait is the caller's
// responsibility (see Unblock).
func (pe *PE) Block(reason fmt.Stringer) {
	if pe.sched.timer != nil {
		pe.sched.timer.EnterSched()
	}
	pe.blocked = true
	pe.reason = reason
	pe.suspend()
	pe.reason = nil
}

// Await suspends the kernel until the dispatch loop has performed the
// work it buffered: the loop calls the scheduler's step function (see
// SetStep) for pe once per buffered event, applying Yield's rule before
// each, and resumes the kernel when a step reports that none remains.
func (pe *PE) Await() {
	if pe.sched.step == nil {
		panic(fmt.Sprintf("engine: PE %d awaits buffered work but the scheduler has no step function", pe.id))
	}
	if pe.sched.timer != nil {
		pe.sched.timer.EnterSched()
	}
	pe.pending = true
	pe.suspend()
}

// Unblock resumes target, which must be blocked, setting its clock to at
// if that is later than its current clock. The caller keeps running; the
// target becomes runnable and receives the token when its clock is
// globally minimal.
func (pe *PE) Unblock(target *PE, at Clock) {
	if !target.blocked {
		panic(fmt.Sprintf("engine: PE %d unblocked PE %d which is not blocked", pe.id, target.id))
	}
	target.SetTime(at)
	target.blocked = false
	pe.sched.push(target)
}

// Fail aborts the whole simulation with err. It does not return.
func (pe *PE) Fail(err error) {
	pe.sched.record(err)
	panic(abortPanic{})
}

// suspend switches to the dispatch loop until it resumes this PE,
// unwinding instead if Run is shutting down. Resuming is where the
// handoff span opened by EnterSched ends.
func (pe *PE) suspend() {
	if !pe.yield(struct{}{}) {
		panic(abortPanic{})
	}
	if pe.sched.timer != nil {
		pe.sched.timer.EnterApp()
	}
}

// Scheduler owns the processors of one simulation run.
type Scheduler struct {
	pes       []*PE
	ready     readySet
	quantum   Clock
	nFinished int
	probe     Probe
	timer     Timer
	step      func(*PE) bool // performs one buffered event (see SetStep)
	label     string         // workload name, for panic diagnostics
	err       error
}

// NewScheduler creates a scheduler for n processors with the given
// event-ordering slack (0 = exact ordering).
func NewScheduler(n int, quantum Clock) *Scheduler {
	if n <= 0 {
		panic("engine: scheduler needs at least one processor")
	}
	if quantum < 0 {
		panic("engine: negative quantum")
	}
	s := &Scheduler{quantum: quantum, ready: newReadySet(n)}
	s.pes = make([]*PE, n)
	for i := range s.pes {
		s.pes[i] = &PE{id: i, sched: s}
	}
	return s
}

// PEs returns the processors, indexed by ID. Intended for wiring up the
// layer above before Run is called.
func (s *Scheduler) PEs() []*PE { return s.pes }

// SetProbe attaches a telemetry probe; call before Run. A nil probe
// (the default) disables observation entirely.
func (s *Scheduler) SetProbe(p Probe) { s.probe = p }

// SetTimer attaches a wall-clock phase timer; call before Run. A nil
// timer (the default) disables host-time attribution entirely.
func (s *Scheduler) SetTimer(t Timer) { s.timer = t }

// SetStep installs the function through which the dispatch loop
// performs the work a processor buffered before calling Await; call
// before Run. step performs pe's next buffered event and reports
// whether more remain. It runs in the loop, outside every coroutine,
// while pe holds the token, and it may advance pe's clock. Before each
// call the loop applies Yield's rule, so buffered events are performed
// exactly when Yield would have let pe perform them.
func (s *Scheduler) SetStep(step func(pe *PE) (more bool)) { s.step = step }

// SetLabel names the workload for panic diagnostics; call before Run.
// An empty label (the default) reports as "unnamed".
func (s *Scheduler) SetLabel(label string) { s.label = label }

func (s *Scheduler) labelOrDefault() string {
	if s.label == "" {
		return "unnamed"
	}
	return s.label
}

// Run executes kernel once per processor, each as its own coroutine, and
// returns when every kernel has finished or the simulation has failed.
// It returns the first error (kernel or step panic, deadlock, or Fail
// call).
func (s *Scheduler) Run(kernel func(*PE)) error {
	if s.timer != nil {
		s.timer.EnterSched() // the run opens in scheduling work
	}
	for _, pe := range s.pes {
		var stop func()
		pe.resume, stop = iter.Pull(s.coroutine(pe, kernel))
		// Stopping a parked PE makes its yield return false, so it
		// unwinds and no coroutine outlives Run.
		defer stop()
		s.push(pe)
	}
	s.loop()
	if s.err != nil {
		return s.err
	}
	if s.nFinished < len(s.pes) {
		return s.deadlockError()
	}
	return nil
}

// loop passes the token to the (time, id) minimum until the ready set
// is empty or the run has failed. A step panics here, outside every
// coroutine; it is recovered into the same annotated error as a kernel
// panic (a step's Fail has recorded its own error first, and record
// keeps the first), and Run still stops every coroutine.
func (s *Scheduler) loop() {
	var next *PE
	defer func() {
		if r := recover(); r != nil {
			s.record(s.panicError(next, r))
		}
	}()
	from, fromTime := -1, Clock(0)
	for s.ready.n > 0 {
		next = s.pes[s.ready.pop()]
		if s.probe != nil {
			s.probe.Handoff(from, next.id, fromTime, next.time, s.ready.n)
		}
		s.dispatch(next)
		if s.err != nil {
			return
		}
		from, fromTime = next.id, next.time
	}
}

// dispatch runs pe until it passes the token on. Work pe buffered before
// suspending is performed first, one step at a time; while a ready
// processor is more than the quantum earlier, pe goes back into the
// ready set with the rest still buffered. The coroutine resumes only
// once the buffer is empty.
func (s *Scheduler) dispatch(pe *PE) {
	for {
		for pe.pending {
			if s.behind(pe) {
				s.push(pe)
				return
			}
			pe.pending = s.step(pe)
		}
		pe.resume()
		if !pe.pending || s.err != nil {
			return
		}
	}
}

// behind reports whether a ready processor is more than the quantum
// earlier than pe, so pe must hand the token on before its next event:
// the rule Yield applies, and dispatch before each buffered event.
func (s *Scheduler) behind(pe *PE) bool {
	return s.ready.n > 0 && s.ready.minTime()+s.quantum < pe.time
}

// push makes pe ready at its clock. A clock too large to pack below the
// empty-leaf sentinel fails the run with an error naming pe: it would
// otherwise be dispatched out of order. Like Fail, push then unwinds
// whichever coroutine — or the dispatch loop — called it.
func (s *Scheduler) push(pe *PE) {
	if uint64(pe.time) > s.ready.maxTime {
		s.clockOverflow(pe)
	}
	s.ready.insert(pe.id, uint64(pe.time)<<s.ready.shift|uint64(pe.id))
}

// clockOverflow is push's failure path, kept out of line so that the
// formatting it needs does not weigh on push, which runs every handoff.
func (s *Scheduler) clockOverflow(pe *PE) {
	s.record(fmt.Errorf("engine: app %q: processor %d's clock %d exceeds the ready set's limit of %d cycles at %d processors",
		s.labelOrDefault(), pe.id, pe.time, s.ready.maxTime, len(s.pes)))
	panic(abortPanic{})
}

// coroutine wraps kernel as pe's body. A kernel panic is recovered here,
// inside the coroutine, so the recorded stack still shows the kernel's
// frames.
func (s *Scheduler) coroutine(pe *PE, kernel func(*PE)) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(abortPanic); ok {
					return
				}
				s.record(s.panicError(pe, r))
			}
		}()
		pe.yield = yield
		if s.timer != nil {
			s.timer.EnterApp()
		}
		kernel(pe)
		s.nFinished++
		if s.timer != nil {
			s.timer.EnterSched()
		}
	}
}

// panicError annotates a panic with the crash site's simulation
// coordinates (workload, PE, virtual time) so a failure is diagnosable —
// and, with a seeded fault plan, replayable — from the error alone.
// Called while the panic unwinds, so the stack still shows its frames.
func (s *Scheduler) panicError(pe *PE, r any) error {
	return fmt.Errorf("engine: app %q: processor %d panicked at virtual time %d: %v\n%s",
		s.labelOrDefault(), pe.id, pe.time, r, debug.Stack())
}

// Times returns the final virtual clock of every processor.
func (s *Scheduler) Times() []Clock {
	out := make([]Clock, len(s.pes))
	for i, pe := range s.pes {
		out[i] = pe.time
	}
	return out
}

// record keeps the first error of the run; the dispatch loop stops once
// one is set.
func (s *Scheduler) record(err error) {
	if s.err == nil {
		s.err = err
	}
}

func (s *Scheduler) deadlockError() error {
	var b strings.Builder
	fmt.Fprintf(&b, "engine: deadlock: %d finished, blocked processors:", s.nFinished)
	ids := make([]int, 0, len(s.pes))
	for _, pe := range s.pes {
		if pe.blocked {
			ids = append(ids, pe.id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		pe := s.pes[id]
		fmt.Fprintf(&b, "\n  PE %d at cycle %d: %s", id, pe.time, pe.reason)
	}
	return fmt.Errorf("%s", b.String())
}

// --- ready set: a winner tree of (time, id) keys ---------------------

// empty is the key of a leaf whose processor is not ready; every packed
// key is smaller.
const empty = ^uint64(0)

// readySet holds the ready processors ordered by (time, id). It is a
// winner tree over processor ids: tree[leaves+i] holds processor i's key
// time<<shift | i while it is ready and empty otherwise, and every inner
// node v holds the smaller of tree[2v] and tree[2v+1], so tree[1] is the
// minimum. Ids are unique, so the order is exactly (time, id) order.
type readySet struct {
	tree    []uint64
	leaves  int    // the next power of two >= NumPE
	shift   uint   // log2(leaves): the id bits below the time
	maxTime uint64 // the largest clock whose keys all stay below empty
	n       int    // ready processors
}

func newReadySet(numPE int) readySet {
	shift := uint(bits.Len(uint(numPE - 1)))
	r := readySet{
		tree:    make([]uint64, 2<<shift),
		leaves:  1 << shift,
		shift:   shift,
		maxTime: empty>>shift - 1,
	}
	for i := range r.tree {
		r.tree[i] = empty
	}
	return r
}

// minTime returns the clock of the earliest ready processor; the set
// must not be empty.
func (r *readySet) minTime() Clock { return Clock(r.tree[1] >> r.shift) }

// insert makes processor id, which must not be ready, ready with key.
// Its leaf only falls, so each node on the path becomes min(node, key)
// and the walk stops at the first one that is already smaller.
func (r *readySet) insert(id int, key uint64) {
	i := r.leaves + id
	r.tree[i] = key
	for i > 1 {
		i >>= 1
		if r.tree[i] <= key {
			break
		}
		r.tree[i] = key
	}
	r.n++
}

// pop removes the (time, id) minimum and returns its id; the set must
// not be empty. The winner's leaf becomes empty and its path is
// replayed against the siblings.
func (r *readySet) pop() int {
	id := int(r.tree[1] & uint64(r.leaves-1))
	i := r.leaves + id
	v := empty
	r.tree[i] = v
	for i > 1 {
		v = min(v, r.tree[i^1])
		i >>= 1
		r.tree[i] = v
	}
	r.n--
	return id
}
