package sanitizer_test

import (
	"strings"
	"testing"

	"clustersim/internal/cache"
	"clustersim/internal/coherence"
	"clustersim/internal/core"
	"clustersim/internal/memory"
	"clustersim/internal/sanitizer"
)

// newSystem builds a two-cluster shared-cache system with one mapped
// region for driving the checker directly.
func newSystem(t *testing.T) (*coherence.System, memory.Addr) {
	t.Helper()
	as, err := memory.New(4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := as.Alloc(1<<14, "data")
	sys, err := coherence.NewSystem(as, 2, 0, 64, coherence.DefaultLatencies(), cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	return sys, base
}

// TestCleanRun drives a sanitizer-enabled machine through a sharing
// pattern (including upgrades and cross-cluster invalidations) and
// expects zero violations.
func TestCleanRun(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Procs = 4
	cfg.ClusterSize = 2
	cfg.CacheKBPerProc = 4
	cfg.Sanitize = true
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := m.Alloc(1<<16, "grid")
	bar := m.NewBarrier()
	_, err = m.Run(func(p *core.Proc) {
		for i := 0; i < 200; i++ {
			a := data + uint64((i*7+p.ID()*3)%512)*64
			p.Read(a)
			if i%3 == 0 {
				p.Write(a)
			}
			p.Compute(2)
		}
		bar.Wait(p)
		// Everyone writes the same lines: upgrade/invalidation churn.
		for i := 0; i < 50; i++ {
			p.Write(data + uint64(i)*64)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	san := m.Sanitizer()
	if san == nil {
		t.Fatal("Sanitize set but no checker attached")
	}
	if n := san.Violations(); n != 0 {
		t.Errorf("clean run produced %d violations", n)
	}
	if san.Transactions() == 0 {
		t.Error("checker saw no transactions")
	}
}

// TestMachineWithoutSanitizer checks the accessor stays nil when the
// config gate is off.
func TestMachineWithoutSanitizer(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Procs = 2
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Sanitizer() != nil {
		t.Error("sanitizer attached without Config.Sanitize")
	}
}

// TestValidateRejectsQuantum pins the config gate: the sanitizer's
// global-monotonicity invariant only holds under exact event ordering.
func TestValidateRejectsQuantum(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Sanitize = true
	cfg.Quantum = 100
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted Sanitize with Quantum > 0")
	}
	cfg.Quantum = 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate rejected Sanitize with Quantum 0: %v", err)
	}
}

// TestMonotonicityViolation feeds the checker a time that runs
// backwards and expects both the per-processor and the global invariant
// to fire.
func TestMonotonicityViolation(t *testing.T) {
	sys, base := newSystem(t)
	c := sanitizer.New(sys, 2, true)
	var got []sanitizer.Violation
	c.OnViolation = func(v sanitizer.Violation) { got = append(got, v) }

	acc := coherence.Access{Class: coherence.Hit} // Hit skips the line check
	c.Ref(0, 0, false, base, 10, acc, 0)
	c.Ref(0, 0, false, base, 5, acc, 0)
	if len(got) != 2 {
		t.Fatalf("expected per-PE and global violations, got %d: %v", len(got), got)
	}
	if !strings.Contains(got[0].Error(), "processor 0") {
		t.Errorf("violation does not name the processor: %v", got[0])
	}
	if len(got[0].Dump) != 2 {
		t.Errorf("replay dump has %d events, want 2", len(got[0].Dump))
	}
}

// TestGlobalMonotonicityAcrossPEs checks the machine-wide ordering: a
// different processor issuing at an earlier time is a violation only
// when global checking is on.
func TestGlobalMonotonicityAcrossPEs(t *testing.T) {
	sys, base := newSystem(t)
	acc := coherence.Access{Class: coherence.Hit}
	for _, global := range []bool{true, false} {
		c := sanitizer.New(sys, 2, global)
		n := 0
		c.OnViolation = func(sanitizer.Violation) { n++ }
		c.Ref(0, 0, false, base, 10, acc, 0)
		c.Ref(1, 1, false, base, 5, acc, 0) // fine per-PE, backwards globally
		want := 0
		if global {
			want = 1
		}
		if n != want {
			t.Errorf("global=%v: %d violations, want %d", global, n, want)
		}
	}
}

// TestDirectoryCorruption plants a stale sharer bit and expects the
// per-line cross-validation to catch it on the next state-changing
// transaction.
func TestDirectoryCorruption(t *testing.T) {
	sys, base := newSystem(t)
	c := sanitizer.New(sys, 2, true)
	var got []sanitizer.Violation
	c.OnViolation = func(v sanitizer.Violation) { got = append(got, v) }

	acc := sys.Read(0, 0, base, 1)
	c.Ref(0, 0, false, base, 1, acc, 0)
	if len(got) != 0 {
		t.Fatalf("healthy read flagged: %v", got)
	}
	// Corrupt: claim cluster 1 shares the line although nothing is cached.
	sys.Directory().AddSharer(sys.LineOf(base), 1)
	acc2 := sys.Read(0, 0, base+8, 2) // same line: a merge, so force the class
	acc2.Class = coherence.ReadMiss
	c.Ref(0, 0, false, base+8, 2, acc2, 0)
	if len(got) != 1 {
		t.Fatalf("stale sharer bit not caught: %d violations", len(got))
	}
	if !strings.Contains(got[0].Error(), "replay") {
		t.Errorf("violation lacks the replay dump: %v", got[0])
	}
}

// TestFinalAudit checks the end-of-run audit catches corruption that no
// later transaction would touch.
func TestFinalAudit(t *testing.T) {
	sys, base := newSystem(t)
	c := sanitizer.New(sys, 2, true)
	n := 0
	c.OnViolation = func(sanitizer.Violation) { n++ }

	acc := sys.Write(0, 0, base, 1)
	c.Ref(0, 0, true, base, 1, acc, 0)
	sys.Directory().AddSharer(sys.LineOf(base)+1, 1) // orphan directory entry
	c.Final(10)
	if n != 1 {
		t.Errorf("final audit missed the orphan entry: %d violations", n)
	}
}

// TestDefaultPanics checks the default handler is fatal and carries the
// replay dump in the panic message.
func TestDefaultPanics(t *testing.T) {
	sys, base := newSystem(t)
	c := sanitizer.New(sys, 1, true)
	acc := coherence.Access{Class: coherence.Hit}
	c.Ref(0, 0, false, base, 10, acc, 0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic on violation")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "replay") {
			t.Errorf("panic message lacks replay dump: %v", r)
		}
	}()
	c.Ref(0, 0, false, base, 5, acc, 0)
}
