package engine

import "testing"

// countingProbe records every handoff for assertions.
type countingProbe struct {
	handoffs  []int // resuming PE ids, in order
	maxDepth  int
	maxSkew   Clock
	sawInit   bool
	fromTimes []Clock
}

func (p *countingProbe) Handoff(from, to int, fromTime, toTime Clock, depth int) {
	if from == -1 {
		p.sawInit = true
	}
	p.handoffs = append(p.handoffs, to)
	p.fromTimes = append(p.fromTimes, fromTime)
	if depth > p.maxDepth {
		p.maxDepth = depth
	}
	if skew := fromTime - toTime; skew > p.maxSkew {
		p.maxSkew = skew
	}
}

// TestProbeObservesHandoffs: the probe sees the initial dispatch and
// every token handoff, in virtual-time order.
func TestProbeObservesHandoffs(t *testing.T) {
	s := NewScheduler(4, 0)
	probe := &countingProbe{}
	s.SetProbe(probe)
	err := s.Run(func(pe *PE) {
		for i := 0; i < 3; i++ {
			pe.Advance(10)
			pe.Yield()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !probe.sawInit {
		t.Error("probe missed the initial dispatch")
	}
	// 4 PEs × 3 yields forces interleaving: well more than the initial
	// dispatch must be observed.
	if len(probe.handoffs) < 8 {
		t.Errorf("observed %d handoffs, expected several", len(probe.handoffs))
	}
	if probe.maxDepth < 1 || probe.maxDepth > 3 {
		t.Errorf("maxDepth = %d, want within [1,3]", probe.maxDepth)
	}
	// Exact ordering: the yielding PE is never more than one event
	// ahead, so skew stays small and non-negative on Yield handoffs.
	if probe.maxSkew < 0 {
		t.Errorf("negative skew %d", probe.maxSkew)
	}
}

// TestProbeObservesBlockHandoffs: dispatch after Block/finish also
// reports to the probe.
func TestProbeObservesBlockHandoffs(t *testing.T) {
	s := NewScheduler(2, 0)
	probe := &countingProbe{}
	s.SetProbe(probe)
	pes := s.PEs()
	err := s.Run(func(pe *PE) {
		if pe.ID() == 0 {
			pe.Advance(5)
			pe.Block(reason("waiting for P1"))
		} else {
			pe.Advance(50)
			pe.Yield()
			pe.Unblock(pes[0], pe.Now())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(probe.handoffs) < 3 {
		t.Errorf("observed %d handoffs, want >= 3", len(probe.handoffs))
	}
}

// TestNilProbeUnchanged: without a probe the scheduler behaves exactly
// as before (bit-reproducible times).
func TestNilProbeUnchanged(t *testing.T) {
	run := func(probe Probe) []Clock {
		s := NewScheduler(3, 0)
		if probe != nil {
			s.SetProbe(probe)
		}
		if err := s.Run(func(pe *PE) {
			pe.Advance(Clock(pe.ID()+1) * 7)
			pe.Yield()
			pe.Advance(13)
		}); err != nil {
			t.Fatal(err)
		}
		return s.Times()
	}
	bare, probed := run(nil), run(&countingProbe{})
	for i := range bare {
		if bare[i] != probed[i] {
			t.Fatalf("probe changed timing: %v vs %v", bare, probed)
		}
	}
}
