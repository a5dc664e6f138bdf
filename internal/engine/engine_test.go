package engine

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// reason is a fixed block reason for tests.
type reason string

func (r reason) String() string { return string(r) }

func TestSinglePERunsToCompletion(t *testing.T) {
	s := NewScheduler(1, 0)
	err := s.Run(func(pe *PE) {
		pe.Advance(100)
		pe.Yield()
		pe.Advance(23)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := s.Times()[0]; got != 123 {
		t.Fatalf("final time = %d, want 123", got)
	}
}

// TestEventOrderExact checks that with Quantum=0 shared events are observed
// in nondecreasing virtual-time order, with ties broken by PE id.
func TestEventOrderExact(t *testing.T) {
	type ev struct {
		time Clock
		id   int
	}
	var log []ev
	s := NewScheduler(4, 0)
	err := s.Run(func(pe *PE) {
		r := rand.New(rand.NewSource(int64(pe.ID()) + 7))
		for i := 0; i < 200; i++ {
			pe.Advance(Clock(r.Intn(20)))
			pe.Yield()
			log = append(log, ev{pe.Now(), pe.ID()})
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(log) != 800 {
		t.Fatalf("got %d events, want 800", len(log))
	}
	for i := 1; i < len(log); i++ {
		a, b := log[i-1], log[i]
		if a.time > b.time {
			t.Fatalf("event %d at time %d after event %d at time %d", i, b.time, i-1, a.time)
		}
	}
}

// TestQuantumBoundsSkew checks that with Quantum=q an event is never more
// than q cycles ahead of the minimum runnable clock at the instant it runs.
func TestQuantumBoundsSkew(t *testing.T) {
	const q = 50
	s := NewScheduler(3, q)
	bad := 0
	err := s.Run(func(pe *PE) {
		r := rand.New(rand.NewSource(int64(pe.ID())))
		for i := 0; i < 300; i++ {
			pe.Advance(Clock(r.Intn(10)))
			pe.Yield()
			// At this point every ready processor's clock must be
			// >= pe.time - q.
			for _, tm := range pe.sched.ready.times() {
				if tm+q < pe.Now() {
					bad++
				}
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if bad != 0 {
		t.Fatalf("%d events ran more than quantum ahead", bad)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() string {
		var b strings.Builder
		s := NewScheduler(8, 0)
		err := s.Run(func(pe *PE) {
			r := rand.New(rand.NewSource(int64(pe.ID()) * 31))
			for i := 0; i < 100; i++ {
				pe.Advance(Clock(r.Intn(13)))
				pe.Yield()
				fmt.Fprintf(&b, "%d@%d;", pe.ID(), pe.Now())
			}
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return b.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatal("two identical runs produced different event orders")
	}
}

func TestBlockUnblock(t *testing.T) {
	s := NewScheduler(2, 0)
	pes := s.PEs()
	var order []string
	err := s.Run(func(pe *PE) {
		if pe.ID() == 0 {
			order = append(order, "block0")
			pe.Block(reason("waiting for PE 1"))
			order = append(order, "resumed0")
			if pe.Now() != 500 {
				t.Errorf("PE0 resumed at %d, want 500", pe.Now())
			}
		} else {
			pe.Advance(500)
			pe.Yield()
			order = append(order, "unblock1")
			pe.Unblock(pes[0], pe.Now())
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := "block0,unblock1,resumed0"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

func TestUnblockNeverMovesClockBackward(t *testing.T) {
	s := NewScheduler(2, 0)
	pes := s.PEs()
	err := s.Run(func(pe *PE) {
		if pe.ID() == 0 {
			pe.Advance(1000) // blocked PE already ahead of the release time
			pe.Yield()
			pe.Block(reason("wait"))
			if pe.Now() != 1000 {
				t.Errorf("clock moved backward to %d", pe.Now())
			}
		} else {
			pe.Advance(2000) // ensure PE0 blocks first
			pe.Yield()
			pe.Unblock(pes[0], 10)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	s := NewScheduler(3, 0)
	err := s.Run(func(pe *PE) {
		pe.Block(reason(fmt.Sprintf("lock L%d", pe.ID())))
	})
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	for i := 0; i < 3; i++ {
		if !strings.Contains(err.Error(), fmt.Sprintf("lock L%d", i)) {
			t.Errorf("deadlock report missing PE %d reason: %v", i, err)
		}
	}
}

func TestPartialFinishThenDeadlock(t *testing.T) {
	s := NewScheduler(2, 0)
	err := s.Run(func(pe *PE) {
		if pe.ID() == 0 {
			return // finishes immediately
		}
		pe.Block(reason("never released"))
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
}

func TestKernelPanicPropagates(t *testing.T) {
	s := NewScheduler(4, 0)
	err := s.Run(func(pe *PE) {
		if pe.ID() == 2 {
			panic("boom")
		}
		pe.Advance(10)
		pe.Yield()
		pe.Block(reason("will be aborted"))
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want panic error, got %v", err)
	}
	if !strings.Contains(err.Error(), "processor 2") {
		t.Fatalf("error should name processor 2: %v", err)
	}
}

// TestKernelPanicAnnotated requires that a kernel panic is reported
// with the crash site's full simulation coordinates: the workload
// label, the PE id and the PE's virtual time at the panic — enough to
// replay a seeded failure from the error text alone — and with a stack
// taken where the panic was recovered, which must still show the
// panicking kernel's own frame.
func TestKernelPanicAnnotated(t *testing.T) {
	s := NewScheduler(4, 0)
	s.SetLabel("ocean")
	kernel := func(pe *PE) {
		pe.Advance(123)
		pe.Yield()
		if pe.ID() == 3 {
			panic("boom")
		}
		pe.Block(reason("will be aborted"))
	}
	kernelName := runtime.FuncForPC(reflect.ValueOf(kernel).Pointer()).Name()
	err := s.Run(kernel)
	if err == nil {
		t.Fatal("want panic error")
	}
	for _, want := range []string{`app "ocean"`, "processor 3", "virtual time 123", "boom", kernelName} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q: %v", want, err)
		}
	}
}

// TestKernelPanicUnlabeled: without a label the annotation falls back
// to "unnamed" rather than an empty string.
func TestKernelPanicUnlabeled(t *testing.T) {
	s := NewScheduler(1, 0)
	err := s.Run(func(pe *PE) { panic("bang") })
	if err == nil || !strings.Contains(err.Error(), `app "unnamed"`) {
		t.Fatalf("want unnamed-app annotation, got %v", err)
	}
}

func TestFailAborts(t *testing.T) {
	sentinel := errors.New("app-level failure")
	s := NewScheduler(4, 0)
	err := s.Run(func(pe *PE) {
		if pe.ID() == 1 {
			pe.Fail(sentinel)
		}
		pe.Block(reason("parked"))
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want sentinel error, got %v", err)
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	s := NewScheduler(1, 0)
	err := s.Run(func(pe *PE) { pe.Advance(-1) })
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("want negative-advance error, got %v", err)
	}
}

func TestFinishWakesRemaining(t *testing.T) {
	// PE0 finishes early; PE1 and PE2 must keep running to completion.
	var done int32
	s := NewScheduler(3, 0)
	err := s.Run(func(pe *PE) {
		if pe.ID() == 0 {
			return
		}
		for i := 0; i < 50; i++ {
			pe.Advance(3)
			pe.Yield()
		}
		atomic.AddInt32(&done, 1)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if done != 2 {
		t.Fatalf("done = %d, want 2", done)
	}
}

// times returns the clocks held in the ready set's leaves, in id order.
func (r *readySet) times() []Clock {
	var out []Clock
	for _, key := range r.tree[r.leaves:] {
		if key != empty {
			out = append(out, Clock(key>>r.shift))
		}
	}
	return out
}

// TestReadySetOracle drives the ready set with random interleavings of
// the three things the engine does to it — Unblock's insert of a parked
// processor at an arbitrary clock (ties included), Yield's and
// dispatch's re-insert of the popped processor at a later clock, and
// the loop's pop — and checks every popped (time, id), the minimum
// clock and the population against a sorted-slice oracle after every
// step.
func TestReadySetOracle(t *testing.T) {
	type key struct {
		time Clock
		id   int
	}
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 7, 64, 65, 100} {
		for round := 0; round < 20; round++ {
			s := NewScheduler(n, 0)
			var oracle []key // ready processors, sorted by (time, id)
			parked := make([]int, n)
			for i := range parked {
				parked[i] = i
			}
			running := -1 // popped and not yet re-inserted
			insert := func(id int, at Clock) {
				s.pes[id].time = at
				s.push(s.pes[id])
				k := key{at, id}
				i := sort.Search(len(oracle), func(i int) bool {
					o := oracle[i]
					return o.time > k.time || o.time == k.time && o.id > k.id
				})
				oracle = append(oracle, key{})
				copy(oracle[i+1:], oracle[i:])
				oracle[i] = k
			}
			for step := 0; step < 400; step++ {
				switch op := r.Intn(3); {
				case op == 0 && len(parked) > 0:
					// Unblock: small range of clocks, so ties are common.
					i := r.Intn(len(parked))
					id := parked[i]
					parked = append(parked[:i], parked[i+1:]...)
					insert(id, Clock(r.Intn(40)))
				case op == 1 && running >= 0:
					insert(running, s.pes[running].time+Clock(r.Intn(5)))
					running = -1
				case s.ready.n > 0:
					if running >= 0 {
						parked = append(parked, running) // it blocked
					}
					running = s.ready.pop()
					want := oracle[0]
					oracle = oracle[1:]
					if got := (key{s.pes[running].time, running}); got != want {
						t.Fatalf("n=%d round %d step %d: popped %+v, want %+v", n, round, step, got, want)
					}
				}
				if s.ready.n != len(oracle) {
					t.Fatalf("n=%d round %d step %d: %d ready, want %d", n, round, step, s.ready.n, len(oracle))
				}
				if len(oracle) > 0 && s.ready.minTime() != oracle[0].time {
					t.Fatalf("n=%d round %d step %d: minimum clock %d, want %d", n, round, step, s.ready.minTime(), oracle[0].time)
				}
			}
		}
	}
}

// TestClockBeyondReadySetFails: a clock too large to pack into a ready
// key fails the run with an error naming the processor and the clock,
// whether the processor re-enters the ready set from Yield, from
// Unblock or from the dispatch loop performing its buffered work.
func TestClockBeyondReadySetFails(t *testing.T) {
	const huge = Clock(1) << 58 // 64 processors leave 58 bits for the clock
	want := fmt.Sprintf("processor 5's clock %d exceeds", huge)
	kernels := map[string]func(s *Scheduler) func(*PE){
		"yield": func(*Scheduler) func(*PE) {
			return func(pe *PE) {
				if pe.ID() == 5 {
					pe.SetTime(huge)
				}
				pe.Yield()
				pe.Advance(1)
				pe.Yield()
			}
		},
		"unblock": func(s *Scheduler) func(*PE) {
			return func(pe *PE) {
				switch pe.ID() {
				case 5:
					pe.Block(reason("wait for 6"))
				case 6:
					pe.Advance(1)
					pe.Yield()
					pe.Unblock(s.PEs()[5], huge)
				}
			}
		},
		"step": func(s *Scheduler) func(*PE) {
			steps := 0
			s.SetStep(func(pe *PE) bool {
				pe.SetTime(huge)
				steps++
				return steps == 1 // the loop re-inserts pe after the first
			})
			return func(pe *PE) {
				if pe.ID() == 5 {
					pe.Await()
				}
				pe.Advance(1)
				pe.Yield()
			}
		},
	}
	for name, kernel := range kernels {
		s := NewScheduler(64, 0)
		err := s.Run(kernel(s))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Run error = %v, want one containing %q", name, err, want)
		}
	}
	// One fewer bit of id leaves the same clock in range.
	s := NewScheduler(32, 0)
	if err := s.Run(kernels["yield"](s)); err != nil {
		t.Errorf("32 processors: Run: %v", err)
	}
	// The limit is exact: the highest id's key at the largest clock
	// stays below the empty sentinel, and one cycle more fails.
	for _, at := range []Clock{huge - 2, huge - 1} {
		s := NewScheduler(64, 0)
		err := s.Run(func(pe *PE) {
			if pe.ID() == 63 {
				pe.SetTime(at)
			}
			pe.Yield()
			pe.Advance(1)
			pe.Yield()
		})
		if fits := at == huge-2; fits != (err == nil) {
			t.Errorf("PE 63 at clock %d: Run error = %v, want error: %v", at, err, !fits)
		}
	}
}

func TestSetTimeOnlyForward(t *testing.T) {
	s := NewScheduler(1, 0)
	err := s.Run(func(pe *PE) {
		pe.Advance(100)
		pe.SetTime(50) // must not move backward
		if pe.Now() != 100 {
			t.Errorf("SetTime moved clock backward to %d", pe.Now())
		}
		pe.SetTime(200)
		if pe.Now() != 200 {
			t.Errorf("SetTime failed to move forward, now %d", pe.Now())
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestUnblockNonBlockedPanics(t *testing.T) {
	s := NewScheduler(2, 0)
	pes := s.PEs()
	err := s.Run(func(pe *PE) {
		if pe.ID() == 0 {
			pe.Advance(10)
			pe.Yield()
			// PE 1 is ready (not blocked): Unblock must panic, which the
			// engine surfaces as a run error.
			pe.Unblock(pes[1], 20)
		} else {
			pe.Advance(100)
			pe.Yield()
		}
	})
	if err == nil || !strings.Contains(err.Error(), "not blocked") {
		t.Fatalf("want unblock-misuse error, got %v", err)
	}
}

func TestSchedulerConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewScheduler(0, 0) },
		func() { NewScheduler(4, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("constructor accepted invalid arguments")
				}
			}()
			f()
		}()
	}
}

// TestAbortLeavesNoGoroutines runs every failing shape of a simulation
// many times and requires the goroutine count to return to where it
// started: Run must not return while any processor is still parked.
func TestAbortLeavesNoGoroutines(t *testing.T) {
	cases := []struct {
		name   string
		kernel func(pes []*PE) func(*PE)
		step   func(*PE) bool // installed when set
	}{
		{"deadlock", func([]*PE) func(*PE) {
			return func(pe *PE) {
				pe.Advance(Clock(pe.ID()))
				pe.Yield()
				pe.Block(reason("never released"))
			}
		}, nil},
		{"panic", func([]*PE) func(*PE) {
			return func(pe *PE) {
				pe.Advance(10)
				pe.Yield()
				if pe.ID() == 2 {
					panic("boom")
				}
				pe.Block(reason("will be aborted"))
			}
		}, nil},
		{"fail", func([]*PE) func(*PE) {
			return func(pe *PE) {
				if pe.ID() == 1 {
					pe.Advance(5)
					pe.Yield()
					pe.Fail(errors.New("app-level failure"))
				}
				pe.Block(reason("parked"))
			}
		}, nil},
		{"unblock-misuse", func(pes []*PE) func(*PE) {
			return func(pe *PE) {
				pe.Advance(Clock(10 * (pe.ID() + 1)))
				pe.Yield()
				if pe.ID() == 0 {
					pe.Unblock(pes[1], 20)
				}
				pe.Block(reason("parked"))
			}
		}, nil},
		{"step-panic", func([]*PE) func(*PE) {
			return func(pe *PE) {
				pe.Advance(Clock(pe.ID()))
				pe.Await()
				pe.Block(reason("parked"))
			}
		}, func(pe *PE) bool {
			if pe.ID() == 3 {
				panic("performing buffered work")
			}
			return false
		}},
	}
	before := runtime.NumGoroutine()
	for _, c := range cases {
		for i := 0; i < 50; i++ {
			s := NewScheduler(4, 0)
			if c.step != nil {
				s.SetStep(c.step)
			}
			if err := s.Run(c.kernel(s.PEs())); err == nil {
				t.Fatalf("%s: Run returned nil, want an error", c.name)
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second) //simlint:allow wallclock — test timeout
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) { //simlint:allow wallclock — test timeout
			t.Fatalf("%d goroutines still running after the aborted runs, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond) //simlint:allow wallclock — test pacing
	}
}

// hashingProbe folds every handoff into a sha256 digest.
type hashingProbe struct{ h [sha256.Size]byte }

func (p *hashingProbe) Handoff(from, to int, fromTime, toTime Clock, depth int) {
	p.h = sha256.Sum256(fmt.Appendf(p.h[:], "%d %d %d %d %d", from, to, fromTime, toTime, depth))
}

// goldenKernel drives eight processors through random advances, yields,
// parks and releases. A processor parks only while another is still
// active, and a finishing one releases every parked processor, so the
// run always completes.
func goldenKernel(pes []*PE) func(*PE) {
	var parked []*PE
	finished := 0
	return func(pe *PE) {
		r := rand.New(rand.NewSource(int64(pe.ID())*7919 + 1))
		for i := 0; i < 300; i++ {
			pe.Advance(Clock(r.Intn(40)))
			pe.Yield()
			active := len(pes) - len(parked) - finished
			switch {
			case r.Intn(6) == 0 && active > 1:
				parked = append(parked, pe)
				pe.Block(reason("golden park"))
			case len(parked) > 0 && r.Intn(3) == 0:
				next := parked[0]
				parked = parked[1:]
				pe.Unblock(next, pe.Now()+Clock(r.Intn(25)))
			}
		}
		finished++
		for _, p := range parked {
			pe.Unblock(p, pe.Now())
		}
		parked = nil
	}
}

// TestHandoffSequenceGolden pins the exact dispatch order — every
// handoff's (from, to, fromTime, toTime, depth) — at exact ordering and
// with a quantum. The digests were recorded before processors became
// coroutines, so they also pin that the dispatch loop kept the original
// order. Any change to heap order, tie-breaking or where a handoff is
// reported changes the digest.
func TestHandoffSequenceGolden(t *testing.T) {
	golden := map[Clock]string{
		0: "0bed8bcfb3fe6f8b9031c7d01cd74277352c5c39ad4ed3cdd45e3a85dd3f1749",
		7: "ab25bbc0b26802cddd107c10d582e7d108577d7f7fcdecc20cdae0c0f35c125b",
	}
	for _, quantum := range []Clock{0, 7} {
		s := NewScheduler(8, quantum)
		probe := &hashingProbe{}
		s.SetProbe(probe)
		if err := s.Run(goldenKernel(s.PEs())); err != nil {
			t.Fatalf("quantum %d: Run: %v", quantum, err)
		}
		if got := fmt.Sprintf("%x", probe.h); got != golden[quantum] {
			t.Errorf("quantum %d: handoff digest %s, want %s", quantum, got, golden[quantum])
		}
	}
}
