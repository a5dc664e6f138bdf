//go:build go1.23

// Package engine implements the deterministic discrete-event core of the
// clustered-multiprocessor simulator, in the style of Tango-lite: every
// simulated processor runs its workload as a coroutine (iter.Pull), and
// one dispatch loop owns the ready heap and resumes exactly one of them
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
// bit-reproducible.
package engine

import (
	"fmt"
	"iter"
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
	// virtual clocks and readyDepth is the ready-heap population after
	// the pop. The skew fromTime-toTime is the quantum slack actually
	// exploited.
	Handoff(from, to int, fromTime, toTime Clock, readyDepth int)
}

// Timer observes where the host's wall-clock time goes — the engine
// half of the perf monitor. EnterSched fires when a processor's kernel
// suspends (Yield handing off, Block, Await), so everything the dispatch
// loop does — heap maintenance, the coroutine switches, and performing
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
	blocked bool                    // parked on a synchronisation object, out of the heap
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
		s.heapPush(pe)
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
	pe.sched.heapPush(target)
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
	heap      []*PE
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
	s := &Scheduler{quantum: quantum}
	s.pes = make([]*PE, n)
	for i := range s.pes {
		s.pes[i] = &PE{id: i, sched: s}
	}
	return s
}

// NumPE returns the number of processors.
func (s *Scheduler) NumPE() int { return len(s.pes) }

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
		s.heapPush(pe)
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

// loop passes the token to the (time, id) minimum until the heap is
// empty or the run has failed. A step panics here, outside every
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
	for len(s.heap) > 0 {
		next = s.heapPopMin()
		if s.probe != nil {
			s.probe.Handoff(from, next.id, fromTime, next.time, len(s.heap))
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
// processor is more than the quantum earlier, pe goes back on the heap
// with the rest still buffered. The coroutine resumes only once the
// buffer is empty.
func (s *Scheduler) dispatch(pe *PE) {
	for {
		for pe.pending {
			if s.behind(pe) {
				s.heapPush(pe)
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
	return len(s.heap) > 0 && s.heap[0].time+s.quantum < pe.time
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

// --- ready heap, ordered by (time, id) --------------------------------

func peLess(a, b *PE) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.id < b.id
}

func (s *Scheduler) heapPush(pe *PE) {
	s.heap = append(s.heap, pe)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !peLess(s.heap[i], s.heap[parent]) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *Scheduler) heapPopMin() *PE {
	min := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	s.siftDown(0)
	return min
}

func (s *Scheduler) siftDown(i int) {
	n := len(s.heap)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && peLess(s.heap[left], s.heap[smallest]) {
			smallest = left
		}
		if right < n && peLess(s.heap[right], s.heap[smallest]) {
			smallest = right
		}
		if smallest == i {
			return
		}
		s.heap[i], s.heap[smallest] = s.heap[smallest], s.heap[i]
		i = smallest
	}
}
