package engine

import "testing"

// countingTimer records phase entries; it lives entirely on the token
// discipline, so plain counters suffice (the race detector verifies the
// happens-before edges in `make race`).
type countingTimer struct {
	sched, app int
	// trace records the order of entries: 's' or 'a'.
	trace []byte
}

func (t *countingTimer) EnterSched() { t.sched++; t.trace = append(t.trace, 's') }
func (t *countingTimer) EnterApp()   { t.app++; t.trace = append(t.trace, 'a') }

// yieldKernel does a few advance/yield rounds so tokens actually change
// hands between the processors.
func yieldKernel(pe *PE) {
	for i := 0; i < 5; i++ {
		pe.Advance(Clock(1 + pe.ID()))
		pe.Yield()
	}
}

// TestTimerPairing: every application span is opened by exactly one
// EnterApp, every handoff by exactly one EnterSched, and the trace
// strictly alternates — the tiling property the perf monitor's phase
// attribution rests on.
func TestTimerPairing(t *testing.T) {
	s := NewScheduler(4, 0)
	ct := &countingTimer{}
	s.SetTimer(ct)
	if err := s.Run(yieldKernel); err != nil {
		t.Fatal(err)
	}
	if ct.sched == 0 || ct.app == 0 {
		t.Fatalf("timer never fired: sched=%d app=%d", ct.sched, ct.app)
	}
	// Every app resume is preceded by a sched entry; the final entry is
	// the last finisher's hand-back to a dispatch loop with nothing to run.
	for i, c := range ct.trace {
		if c == 'a' && (i == 0 || ct.trace[i-1] != 's') {
			t.Fatalf("EnterApp at %d not preceded by EnterSched: %s", i, ct.trace)
		}
	}
	if ct.sched != ct.app+1 {
		t.Errorf("sched entries = %d, app entries = %d; want sched = app+1 (trailing clean-completion dispatch)",
			ct.sched, ct.app)
	}
}

// TestTimerDeterministic: two identical runs see the identical entry
// sequence — the engine half of the monitor's determinism guarantee.
func TestTimerDeterministic(t *testing.T) {
	run := func() []byte {
		s := NewScheduler(8, 0)
		ct := &countingTimer{}
		s.SetTimer(ct)
		if err := s.Run(yieldKernel); err != nil {
			t.Fatal(err)
		}
		return ct.trace
	}
	first, second := run(), run()
	if string(first) != string(second) {
		t.Errorf("timer traces differ across identical runs:\n run 1: %s\n run 2: %s", first, second)
	}
}

// TestTimerNilIsDefault: a scheduler without a timer still runs (the
// hot paths gate on the nil check alone).
func TestTimerNilIsDefault(t *testing.T) {
	s := NewScheduler(2, 0)
	if err := s.Run(yieldKernel); err != nil {
		t.Fatal(err)
	}
}
