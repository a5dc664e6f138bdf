package engine

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// eventLog folds every performed event — which processor, at what
// virtual time — into a sha256 digest, and counts them.
type eventLog struct {
	h [sha256.Size]byte
	n int
}

func (l *eventLog) add(pe *PE) {
	l.h = sha256.Sum256(fmt.Appendf(l.h[:], "%d %d", pe.ID(), pe.Now()))
	l.n++
}

// eventKernel drives eight processors through random events separated
// by parks and releases, as goldenKernel does. Each event is performed
// either inline after a Yield, or buffered (up to capacity) for the
// step function, draining before every park or release as the
// synchronisation layer above does. Both modes must perform the same
// events at the same virtual times, in the same order.
func eventKernel(s *Scheduler, log *eventLog, buffered bool, capacity int) func(*PE) {
	pes := s.PEs()
	bufs := make([][]Clock, len(pes))
	next := make([]int, len(pes))
	s.SetStep(func(pe *PE) bool {
		id := pe.ID()
		log.add(pe)
		pe.Advance(bufs[id][next[id]])
		next[id]++
		if next[id] < len(bufs[id]) {
			return true
		}
		bufs[id], next[id] = bufs[id][:0], 0
		return false
	})
	drain := func(pe *PE) {
		if len(bufs[pe.ID()]) > 0 {
			pe.Await()
		}
	}
	var parked []*PE
	finished := 0
	return func(pe *PE) {
		r := rand.New(rand.NewSource(int64(pe.ID())*7919 + 3))
		for i := 0; i < 400; i++ {
			d := Clock(1 + r.Intn(30))
			if buffered {
				bufs[pe.ID()] = append(bufs[pe.ID()], d)
				if len(bufs[pe.ID()]) == capacity {
					pe.Await()
				}
			} else {
				pe.Yield()
				log.add(pe)
				pe.Advance(d)
			}
			if r.Intn(25) != 0 {
				continue
			}
			drain(pe)
			pe.Yield()
			active := len(pes) - len(parked) - finished
			switch {
			case r.Intn(2) == 0 && active > 1:
				parked = append(parked, pe)
				pe.Block(reason("event park"))
			case len(parked) > 0:
				woken := parked[0]
				parked = parked[1:]
				pe.Unblock(woken, pe.Now()+Clock(r.Intn(25)))
			}
		}
		drain(pe)
		finished++
		for _, p := range parked {
			pe.Unblock(p, pe.Now())
		}
		parked = nil
	}
}

// TestAwaitMatchesYield: buffered work performed by the dispatch loop
// is performed exactly as the same work done inline after Yield — the
// same events at the same times in the same order, the same handoff
// sequence and the same final clocks — at exact ordering and with a
// quantum, for several buffer capacities. The kernel suspends far less
// often.
func TestAwaitMatchesYield(t *testing.T) {
	type outcome struct {
		events   [sha256.Size]byte
		handoffs [sha256.Size]byte
		n        int
		times    string
	}
	run := func(quantum Clock, buffered bool, capacity int) (outcome, int) {
		s := NewScheduler(8, quantum)
		probe := &hashingProbe{}
		s.SetProbe(probe)
		timer := &countingTimer{}
		s.SetTimer(timer)
		log := &eventLog{}
		if err := s.Run(eventKernel(s, log, buffered, capacity)); err != nil {
			t.Fatalf("quantum %d buffered %v: Run: %v", quantum, buffered, err)
		}
		return outcome{log.h, probe.h, log.n, fmt.Sprint(s.Times())}, timer.sched
	}
	for _, quantum := range []Clock{0, 7} {
		want, inlineSuspends := run(quantum, false, 0)
		for _, capacity := range []int{1, 3, 64} {
			got, suspends := run(quantum, true, capacity)
			if got != want {
				t.Errorf("quantum %d capacity %d: buffered run %+v, inline run %+v", quantum, capacity, got, want)
			}
			if capacity > 1 && suspends >= inlineSuspends {
				t.Errorf("quantum %d capacity %d: %d kernel suspensions, inline %d; want fewer",
					quantum, capacity, suspends, inlineSuspends)
			}
		}
	}
}

// TestStepPanicAnnotated: a panic while the loop performs buffered work
// becomes the run's error, annotated like a kernel panic with the
// workload, the processor and its virtual time.
func TestStepPanicAnnotated(t *testing.T) {
	s := NewScheduler(4, 0)
	s.SetLabel("stepper")
	s.SetStep(func(pe *PE) bool {
		if pe.ID() == 2 {
			panic("unallocated address")
		}
		pe.Advance(1)
		return false
	})
	err := s.Run(func(pe *PE) {
		pe.Advance(Clock(10 * pe.ID()))
		pe.Await()
	})
	if err == nil {
		t.Fatal("Run returned nil, want the step's panic")
	}
	want := `engine: app "stepper": processor 2 panicked at virtual time 20: unallocated address`
	if !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("error %q\nwant prefix %q", err, want)
	}
}

// TestAwaitWithoutStepFails: a kernel cannot hand the loop work nobody
// installed a step function for.
func TestAwaitWithoutStepFails(t *testing.T) {
	s := NewScheduler(2, 0)
	err := s.Run(func(pe *PE) { pe.Await() })
	if err == nil || !strings.Contains(err.Error(), "no step function") {
		t.Fatalf("Run error = %v, want a missing-step-function panic", err)
	}
}
