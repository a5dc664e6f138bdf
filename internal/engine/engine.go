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
// half of the perf monitor. EnterSched fires when a processor begins
// handing off (heap maintenance and the coroutine switches through the
// dispatch loop); EnterApp fires when a PE resumes application execution
// after receiving the token. The first EnterSched opens Run, before any
// processor coroutine starts. Run's dispatch loop and the coroutines it
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
// Scheduler enforces this by construction.
type PE struct {
	id      int
	sched   *Scheduler
	time    Clock
	blocked bool                    // parked on a synchronisation object, out of the heap
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
	for len(s.heap) > 0 && s.heap[0].time+s.quantum < pe.time {
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
	label     string // workload name, for panic diagnostics
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
// It returns the first error (kernel panic, deadlock, or Fail call).
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
	from, fromTime := -1, Clock(0)
	for len(s.heap) > 0 {
		next := s.heapPopMin()
		if s.probe != nil {
			s.probe.Handoff(from, next.id, fromTime, next.time, len(s.heap))
		}
		next.resume()
		if s.err != nil {
			return s.err
		}
		from, fromTime = next.id, next.time
	}
	if s.nFinished < len(s.pes) {
		return s.deadlockError()
	}
	return nil
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
				// Annotate with the crash site's simulation coordinates
				// (workload, PE, virtual time) so a failure is
				// diagnosable — and, with a seeded fault plan,
				// replayable — from the error alone.
				s.record(fmt.Errorf("engine: app %q: processor %d panicked at virtual time %d: %v\n%s",
					s.labelOrDefault(), pe.id, pe.time, r, debug.Stack()))
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
