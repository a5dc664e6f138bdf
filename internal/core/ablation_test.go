package core

import (
	"testing"

	"clustersim/internal/memory"
)

// TestPlacementPolicyAffectsLocality: with AllOnZero every page homes at
// cluster 0, so cluster 0's misses are all local (30 cycles) and other
// clusters' are all remote — versus the balanced round-robin default.
func TestPlacementPolicyAffectsLocality(t *testing.T) {
	run := func(policy memory.PlacementPolicy) *Result {
		cfg := tiny(4, 1)
		cfg.Placement = policy
		m := mustMachine(t, cfg)
		a := m.Alloc(16*4096, "data")
		res, err := m.Run(func(p *Proc) {
			for pg := 0; pg < 16; pg++ {
				p.Read(a + uint64(pg)*4096 + uint64(p.ID())*64)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rr := run(memory.RoundRobin)
	zero := run(memory.AllOnZero)
	aggRR := rr.Aggregate()
	aggZ := zero.Aggregate()
	// Under AllOnZero, processor 0 sees only local misses.
	if zero.Procs[0].RemoteClean+zero.Procs[0].RemoteDirty != 0 {
		t.Errorf("AllOnZero: P0 saw remote misses: %+v", zero.Procs[0].Counters)
	}
	// Under round-robin, local misses spread across processors.
	if aggRR.LocalClean == 0 {
		t.Errorf("round-robin produced no local misses: %+v", aggRR)
	}
	if aggZ.LocalClean != zero.Procs[0].LocalClean {
		t.Errorf("AllOnZero gave local misses to a non-zero cluster")
	}
}

// TestReplacementHintAblation: with hints disabled, a cluster that
// silently evicts a clean line keeps its stale directory bit and
// receives a spurious invalidation on the next remote write.
func TestReplacementHintAblation(t *testing.T) {
	run := func(disable bool) *Result {
		cfg := tiny(2, 1)
		cfg.DisableReplacementHints = disable
		cfg.CacheKBPerProc = 1 // 16 lines; the 32-line walk below evicts line 0
		m := mustMachine(t, cfg)
		a := m.Alloc(64*64, "data")
		bar := m.NewBarrier()
		res, err := m.Run(func(p *Proc) {
			if p.ID() == 0 {
				// Read line 0, then walk far enough to evict it.
				p.Read(a)
				for i := 1; i < 32; i++ {
					p.Read(a + uint64(i)*64)
				}
			}
			bar.Wait(p)
			if p.ID() == 1 {
				p.Write(a) // may send a spurious invalidation to P0
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with := run(false)
	without := run(true)
	if got := with.Clusters[1].InvalidationsSent; got != 0 {
		t.Errorf("with hints: expected no invalidations, got %d", got)
	}
	if got := without.Clusters[1].InvalidationsSent; got == 0 {
		t.Errorf("without hints: expected a spurious invalidation")
	}
	if with.Clusters[0].ReplacementHints == 0 {
		t.Errorf("with hints: no hints recorded")
	}
	if without.Clusters[0].ReplacementHints != 0 {
		t.Errorf("without hints: hints still recorded")
	}
}

// TestQuantumSpeedAccuracyTradeoff: a nonzero quantum must keep results
// deterministic and close to the exact run.
func TestQuantumSpeedAccuracyTradeoff(t *testing.T) {
	run := func(q Clock) Clock {
		cfg := tiny(8, 2)
		cfg.Quantum = q
		m := mustMachine(t, cfg)
		a := m.Alloc(1<<16, "data")
		bar := m.NewBarrier()
		res, err := m.Run(func(p *Proc) {
			for i := 0; i < 300; i++ {
				p.Read(a + uint64((p.ID()*997+i*131)%1024)*64)
				p.Compute(3)
			}
			bar.Wait(p)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.ExecTime
	}
	exact := run(0)
	loose := run(200)
	loose2 := run(200)
	if loose != loose2 {
		t.Fatalf("quantum run nondeterministic: %d vs %d", loose, loose2)
	}
	diff := float64(loose-exact) / float64(exact)
	if diff < -0.2 || diff > 0.2 {
		t.Errorf("quantum=200 skewed exec time by %.1f%% (exact %d, loose %d)",
			100*diff, exact, loose)
	}
}

// TestBlockingWritesAblation: with the store-buffer assumption disabled,
// write misses stall for the fetch latency, so execution time grows.
func TestBlockingWritesAblation(t *testing.T) {
	run := func(blocking bool) *Result {
		cfg := tiny(2, 1)
		cfg.BlockingWrites = blocking
		m := mustMachine(t, cfg)
		a := m.Alloc(1<<13, "data")
		res, err := m.Run(func(p *Proc) {
			for i := 0; i < 32; i++ {
				p.Write(a + uint64(i)*64)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	hidden := run(false)
	blocking := run(true)
	if blocking.ExecTime <= hidden.ExecTime {
		t.Fatalf("blocking writes should cost time: %d vs %d",
			blocking.ExecTime, hidden.ExecTime)
	}
	// With hidden writes the 32 cold write misses cost 32 cycles; with
	// blocking writes each pays its fetch latency too.
	if hidden.ExecTime != 32 {
		t.Errorf("hidden-write run = %d cycles, want 32 issue cycles", hidden.ExecTime)
	}
}
