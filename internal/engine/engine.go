// Package engine implements the deterministic discrete-event core of the
// clustered-multiprocessor simulator, in the style of Tango-lite: every
// simulated processor runs its workload on its own goroutine, but exactly
// one goroutine executes at any instant. The token of execution is handed
// directly from processor to processor so that references to the shared
// memory-system model are always performed in global virtual-time order.
//
// The scheduling invariant is: the running processor may only perform an
// event while its virtual clock is within Quantum cycles of the minimum
// clock over all other runnable processors. With Quantum = 0 (the default)
// event ordering is exact; larger values trade bounded timing skew for
// fewer goroutine handoffs on large parameter sweeps.
//
// Ties in virtual time are broken by processor ID, so simulations are
// bit-reproducible.
package engine

import (
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
)

// Clock counts simulated processor cycles.
type Clock = int64

type runState uint8

const (
	stateReady    runState = iota // in the ready heap, waiting for the token
	stateRunning                  // holds the token
	stateBlocked                  // parked on a synchronisation object
	stateFinished                 // kernel returned
)

type tokenMsg struct{ abort bool }

// Probe observes scheduler-internal events: it is the engine half of the
// telemetry layer. All callbacks arrive from the goroutine holding the
// execution token, in global virtual-time order, so implementations need
// no locking. A nil probe costs one predictable branch per handoff.
type Probe interface {
	// Handoff fires every time the execution token changes hands. from
	// is the yielding processor (-1 for the initial dispatch), to the
	// resuming one; fromTime and toTime are their virtual clocks and
	// readyDepth is the ready-heap population after the pop. The skew
	// fromTime-toTime is the quantum slack actually exploited.
	Handoff(from, to int, fromTime, toTime Clock, readyDepth int)
}

// Timer observes where the host's wall-clock time goes — the engine
// half of the perf monitor. EnterSched fires when the running goroutine
// begins token-handoff machinery (heap maintenance, the channel send
// and the goroutine switch it triggers); EnterApp fires when a PE
// resumes application execution after receiving the token. The first
// EnterSched opens Run, before any processor goroutine starts. Exactly one
// goroutine executes at a time, so calls arrive strictly ordered and
// implementations need no locking. A nil timer costs one predictable
// branch per handoff.
type Timer interface {
	EnterSched()
	EnterApp()
}

// abortPanic unwinds a processor goroutine during simulation shutdown.
type abortPanic struct{}

// PE is a simulated processing element. All of its methods must be called
// only from the goroutine running that PE's kernel, while it holds the
// execution token; the Scheduler enforces this by construction.
type PE struct {
	id      int
	sched   *Scheduler
	time    Clock
	state   runState
	token   chan tokenMsg
	heapIdx int
	reason  fmt.Stringer // why blocked, formatted only for deadlock reports
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
		pe.state = stateReady
		s.heapPush(pe)
		next := s.heapPopMin()
		next.state = stateRunning
		if s.probe != nil {
			s.probe.Handoff(pe.id, next.id, pe.time, next.time, len(s.heap))
		}
		next.token <- tokenMsg{}
		pe.wait()
	}
}

// Block parks the processor until another processor calls Unblock on it.
// The reason is formatted only if a deadlock report names it, so a
// synchronisation object can pass itself and parking costs no
// formatting. Time accounting for the wait is the caller's
// responsibility (see Unblock).
func (pe *PE) Block(reason fmt.Stringer) {
	pe.state = stateBlocked
	pe.reason = reason
	pe.sched.dispatchNext(pe)
	pe.wait()
	pe.reason = nil
}

// Unblock resumes target, which must be blocked, setting its clock to at
// if that is later than its current clock. The caller keeps running; the
// target becomes runnable and receives the token when its clock is
// globally minimal.
func (pe *PE) Unblock(target *PE, at Clock) {
	if target.state != stateBlocked {
		panic(fmt.Sprintf("engine: PE %d unblocked PE %d which is not blocked", pe.id, target.id))
	}
	target.SetTime(at)
	target.state = stateReady
	pe.sched.heapPush(target)
}

// Fail aborts the whole simulation with err. It does not return.
func (pe *PE) Fail(err error) {
	pe.sched.fail(err)
}

// wait parks until the token arrives, unwinding on abort. Receiving the
// token resumes application execution, which is where the handoff span
// opened by EnterSched ends.
func (pe *PE) wait() {
	msg := <-pe.token
	if msg.abort {
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
	mu        sync.Mutex // guards err on the kernel-panic path only
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
		s.pes[i] = &PE{id: i, sched: s, token: make(chan tokenMsg, 1), heapIdx: -1}
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

// Run executes kernel once per processor, each on its own goroutine, and
// returns when every kernel has finished or the simulation has failed.
// It returns the first error (kernel panic, deadlock, or Fail call).
func (s *Scheduler) Run(kernel func(*PE)) error {
	if s.timer != nil {
		s.timer.EnterSched() // the run opens in scheduling work
	}
	var wg sync.WaitGroup
	for _, pe := range s.pes {
		pe.state = stateReady
		s.heapPush(pe)
	}
	for _, pe := range s.pes {
		wg.Add(1)
		go func(pe *PE) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(abortPanic); ok {
						return
					}
					// Annotate with the crash site's simulation coordinates
					// (workload, PE, virtual time) so a failure is
					// diagnosable — and, with a seeded fault plan,
					// replayable — from the error alone.
					s.failFromPanic(fmt.Errorf("engine: app %q: processor %d panicked at virtual time %d: %v\n%s",
						s.labelOrDefault(), pe.id, pe.time, r, debug.Stack()))
				}
			}()
			pe.wait()
			kernel(pe)
			s.finish(pe)
		}(pe)
	}
	first := s.heapPopMin()
	first.state = stateRunning
	if s.probe != nil {
		s.probe.Handoff(-1, first.id, 0, first.time, len(s.heap))
	}
	first.token <- tokenMsg{}
	wg.Wait()
	return s.err
}

// Times returns the final virtual clock of every processor.
func (s *Scheduler) Times() []Clock {
	out := make([]Clock, len(s.pes))
	for i, pe := range s.pes {
		out[i] = pe.time
	}
	return out
}

// finish marks the running PE's kernel as complete and hands the token on.
func (s *Scheduler) finish(pe *PE) {
	pe.state = stateFinished
	s.nFinished++
	s.dispatchNext(pe)
}

// dispatchNext passes the token to the minimum-clock runnable processor.
// If none is runnable and not all have finished, the simulation is
// deadlocked. The caller's goroutine keeps running (it is finishing or
// about to park in wait).
func (s *Scheduler) dispatchNext(from *PE) {
	if s.timer != nil {
		s.timer.EnterSched()
	}
	if len(s.heap) > 0 {
		next := s.heapPopMin()
		next.state = stateRunning
		if s.probe != nil {
			s.probe.Handoff(from.id, next.id, from.time, next.time, len(s.heap))
		}
		next.token <- tokenMsg{}
		return
	}
	if s.nFinished == len(s.pes) {
		return // clean completion: every goroutine exits on its own
	}
	s.fail(s.deadlockError())
}

func (s *Scheduler) deadlockError() error {
	var b strings.Builder
	fmt.Fprintf(&b, "engine: deadlock: %d finished, blocked processors:", s.nFinished)
	ids := make([]int, 0, len(s.pes))
	for _, pe := range s.pes {
		if pe.state == stateBlocked {
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

// fail records err, aborts every other live processor, and unwinds the
// calling goroutine. It does not return.
func (s *Scheduler) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.abortOthers()
	panic(abortPanic{})
}

// failFromPanic is fail for the recover path, where we must not re-panic.
func (s *Scheduler) failFromPanic(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.abortOthers()
}

func (s *Scheduler) abortOthers() {
	for _, pe := range s.pes {
		if pe.state == stateRunning || pe.state == stateFinished {
			continue
		}
		pe.token <- tokenMsg{abort: true}
	}
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
	pe.heapIdx = i
	for i > 0 {
		parent := (i - 1) / 2
		if !peLess(s.heap[i], s.heap[parent]) {
			break
		}
		s.heapSwap(i, parent)
		i = parent
	}
}

func (s *Scheduler) heapPopMin() *PE {
	min := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap[0].heapIdx = 0
	s.heap = s.heap[:last]
	min.heapIdx = -1
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
		s.heapSwap(i, smallest)
		i = smallest
	}
}

func (s *Scheduler) heapSwap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heap[i].heapIdx = i
	s.heap[j].heapIdx = j
}
