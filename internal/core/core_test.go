package core

import (
	"strings"
	"testing"

	"clustersim/internal/coherence"
)

// tiny returns a small machine config for protocol-level tests.
func tiny(procs, clusterSize int) Config {
	cfg := DefaultConfig()
	cfg.Procs = procs
	cfg.ClusterSize = clusterSize
	return cfg
}

func mustMachine(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{}, // zeros everywhere
		func() Config { c := DefaultConfig(); c.Procs = 0; return c }(),
		func() Config { c := DefaultConfig(); c.ClusterSize = 3; return c }(),                // doesn't divide 64
		func() Config { c := DefaultConfig(); c.Procs = 128; c.ClusterSize = 1; return c }(), // 128 clusters
		func() Config { c := DefaultConfig(); c.LineBytes = 48; return c }(),
		func() Config { c := DefaultConfig(); c.Quantum = -1; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: config %+v should not validate", i, c)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestCacheLinesPerCluster(t *testing.T) {
	cfg := tiny(8, 4)
	cfg.CacheKBPerProc = 4
	// 4 procs/cluster × 4 KB / 64 B = 256 lines.
	if got := cfg.CacheLinesPerCluster(); got != 256 {
		t.Fatalf("lines = %d, want 256", got)
	}
	cfg.CacheKBPerProc = 0
	if got := cfg.CacheLinesPerCluster(); got != 0 {
		t.Fatalf("infinite cache lines = %d, want 0", got)
	}
}

func TestClusterOfAdjacency(t *testing.T) {
	cfg := tiny(8, 4)
	want := []int{0, 0, 0, 0, 1, 1, 1, 1}
	for p, w := range want {
		if got := cfg.ClusterOf(p); got != w {
			t.Errorf("ClusterOf(%d) = %d, want %d", p, got, w)
		}
	}
}

func TestRunOnceOnly(t *testing.T) {
	m := mustMachine(t, tiny(2, 1))
	if _, err := m.Run(func(p *Proc) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(func(p *Proc) {}); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestComputeAccountsCPU(t *testing.T) {
	m := mustMachine(t, tiny(1, 1))
	res, err := m.Run(func(p *Proc) { p.Compute(1000) })
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTime != 1000 || res.Procs[0].CPU != 1000 {
		t.Fatalf("exec=%d cpu=%d, want 1000/1000", res.ExecTime, res.Procs[0].CPU)
	}
}

func TestReadMissStallAccounting(t *testing.T) {
	m := mustMachine(t, tiny(1, 1))
	a := m.Alloc(64, "x")
	res, err := m.Run(func(p *Proc) {
		p.Read(a) // cold: local clean, 30-cycle stall + 1 issue
		p.Read(a) // hit: 1 issue
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Procs[0]
	if st.LoadStall != 30 {
		t.Errorf("load stall = %d, want 30", st.LoadStall)
	}
	if st.CPU != 2 {
		t.Errorf("cpu = %d, want 2 issue cycles", st.CPU)
	}
	if res.ExecTime != 32 {
		t.Errorf("exec = %d, want 32", res.ExecTime)
	}
	if st.ReadMisses != 1 || st.ReadHits != 1 {
		t.Errorf("counters = %+v", st.Counters)
	}
}

func TestWritesDoNotStall(t *testing.T) {
	m := mustMachine(t, tiny(1, 1))
	a := m.Alloc(64, "x")
	res, err := m.Run(func(p *Proc) {
		p.Write(a)
		p.Write(a + 8)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTime != 2 {
		t.Fatalf("exec = %d, want 2 (write latency must be hidden)", res.ExecTime)
	}
	st := res.Procs[0]
	if st.WriteMisses != 1 || st.WriteMerges != 1 {
		t.Fatalf("counters = %+v", st.Counters)
	}
}

// TestClusterPrefetching is the paper's central mechanism: two processors
// in the same cluster reading the same data — the second reference either
// merges (temporal proximity) or hits (prefetched), never pays a full miss.
func TestClusterPrefetching(t *testing.T) {
	run := func(clusterSize int) *Result {
		m := mustMachine(t, tiny(2, clusterSize))
		a := m.Alloc(64, "shared")
		// Home the page away from both procs' traffic pattern by
		// touching from proc 1's side first via explicit placement.
		bar := m.NewBarrier()
		res, err := m.Run(func(p *Proc) {
			if p.ID() == 0 {
				p.Read(a)
			}
			bar.Wait(p)
			if p.ID() == 1 {
				p.Read(a)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	same := run(2)     // both procs in one cluster
	separate := run(1) // two clusters
	if got := same.Procs[1].ReadHits; got != 1 {
		t.Errorf("clustered second reader: hits = %d, want 1 (prefetched)", got)
	}
	if got := separate.Procs[1].ReadMisses; got != 1 {
		t.Errorf("unclustered second reader: misses = %d, want 1", got)
	}
	if same.ExecTime >= separate.ExecTime {
		t.Errorf("clustering did not help: %d >= %d", same.ExecTime, separate.ExecTime)
	}
}

// TestMergeStall reproduces the paper's LU observation: processors in a
// cluster accessing the same remote data at the same time convert load
// stall into merge stall.
func TestMergeStall(t *testing.T) {
	m := mustMachine(t, tiny(2, 2))
	a := m.Alloc(64, "shared")
	res, err := m.Run(func(p *Proc) {
		p.Compute(Clock(p.ID())) // stagger by 1 cycle
		p.Read(a)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Procs[0].ReadMisses != 1 {
		t.Fatalf("first reader should miss: %+v", res.Procs[0].Counters)
	}
	if res.Procs[1].Merges != 1 {
		t.Fatalf("second reader should merge: %+v", res.Procs[1].Counters)
	}
	if res.Procs[1].MergeStall == 0 || res.Procs[1].MergeStall >= 30 {
		t.Fatalf("merge stall = %d, want in (0,30)", res.Procs[1].MergeStall)
	}
}

func TestBarrierSyncAccounting(t *testing.T) {
	m := mustMachine(t, tiny(2, 1))
	bar := m.NewBarrier()
	res, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Compute(100)
		} else {
			p.Compute(500)
		}
		bar.Wait(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Procs[0].SyncWait != 400 {
		t.Errorf("P0 sync wait = %d, want 400", res.Procs[0].SyncWait)
	}
	if res.Procs[1].SyncWait != 0 {
		t.Errorf("P1 sync wait = %d, want 0", res.Procs[1].SyncWait)
	}
	if res.ExecTime != 500 {
		t.Errorf("exec = %d, want 500", res.ExecTime)
	}
}

func TestBarrierReusable(t *testing.T) {
	m := mustMachine(t, tiny(4, 2))
	bar := m.NewBarrier()
	counter := 0
	res, err := m.Run(func(p *Proc) {
		for round := 0; round < 5; round++ {
			p.Compute(Clock(1 + p.ID()))
			bar.Wait(p)
			if p.ID() == 0 {
				counter++
			}
			bar.Wait(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if counter != 5 {
		t.Fatalf("counter = %d, want 5", counter)
	}
	_ = res
}

func TestLockMutualExclusionAndFIFO(t *testing.T) {
	m := mustMachine(t, tiny(4, 1))
	lk := m.NewLock("l")
	var order []int
	res, err := m.Run(func(p *Proc) {
		p.Compute(Clock(10 * p.ID())) // arrival order 0,1,2,3
		lk.Acquire(p)
		order = append(order, p.ID())
		p.Compute(100) // long critical section forces queueing
		lk.Release(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	for i := 1; i < 4; i++ {
		if order[i] != i {
			t.Fatalf("lock grant order %v not FIFO", order)
		}
	}
	// Later acquirers waited longer.
	if res.Procs[3].SyncWait <= res.Procs[1].SyncWait {
		t.Errorf("sync waits not increasing: %d vs %d",
			res.Procs[3].SyncWait, res.Procs[1].SyncWait)
	}
}

func TestLockReleaseByNonHolderPanics(t *testing.T) {
	m := mustMachine(t, tiny(2, 1))
	lk := m.NewLock("l")
	_, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			lk.Release(p)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "released lock") {
		t.Fatalf("want release-by-non-holder error, got %v", err)
	}
}

func TestFlag(t *testing.T) {
	m := mustMachine(t, tiny(3, 1))
	f := m.NewFlag("ready")
	res, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Compute(300)
			f.Set(p)
			return
		}
		f.Wait(p)
		if p.Now() < 300 {
			t.Errorf("P%d resumed at %d before flag set", p.ID(), p.Now())
		}
		f.Wait(p) // second wait returns immediately
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Procs[1].SyncWait != 300 {
		t.Errorf("P1 sync wait = %d, want 300", res.Procs[1].SyncWait)
	}
}

func TestDeadlockSurfacesAsError(t *testing.T) {
	m := mustMachine(t, tiny(2, 1))
	bar := m.NewBarrier()
	lk := m.NewLock("held")
	_, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			lk.Acquire(p)
			bar.Wait(p)
		} else {
			lk.Acquire(p) // blocks forever: P0 is at the barrier
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock, got %v", err)
	}
}

// TestDeadlockReportNamesSyncObjects: sync objects format their block
// reasons only when a deadlock report is written, and the report still
// names the barrier with its arrival count, the lock with its holder,
// and the flag.
func TestDeadlockReportNamesSyncObjects(t *testing.T) {
	m := mustMachine(t, tiny(4, 1))
	gate := m.NewBarrierN("gate", 3)
	lk := m.NewLock("tally")
	never := m.NewFlag("never")
	_, err := m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			lk.Acquire(p)
			gate.Wait(p) // the only arrival: P1 and P2 never come
		case 1:
			p.Compute(10)
			lk.Acquire(p) // P0 holds it forever
		case 2:
			never.Wait(p)
		}
	})
	if err == nil {
		t.Fatal("want deadlock error")
	}
	for _, want := range []string{
		"deadlock",
		"PE 0 at cycle 0: gate (1/3 arrived)",
		"PE 1 at cycle 10: lock tally (held by P0)",
		"PE 2 at cycle 0: flag never",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("deadlock report lacks %q:\n%v", want, err)
		}
	}
}

func TestUnallocatedAccessSurfacesAsError(t *testing.T) {
	m := mustMachine(t, tiny(1, 1))
	_, err := m.Run(func(p *Proc) { p.Read(0xfff000000) })
	if err == nil || !strings.Contains(err.Error(), "unallocated") {
		t.Fatalf("want unallocated-access error, got %v", err)
	}
}

func TestDeterministicExecTime(t *testing.T) {
	run := func() Clock {
		m := mustMachine(t, tiny(8, 2))
		a := m.Alloc(4096, "data")
		bar := m.NewBarrier()
		lk := m.NewLock("l")
		res, err := m.Run(func(p *Proc) {
			for i := 0; i < 50; i++ {
				p.Read(a + uint64((p.ID()*13+i*7)%512)*8)
				p.Compute(3)
				if i%10 == 0 {
					lk.Acquire(p)
					p.Write(a + 8*uint64(i%8))
					lk.Release(p)
				}
			}
			bar.Wait(p)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.ExecTime
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

func TestInvariantsAfterRun(t *testing.T) {
	m := mustMachine(t, tiny(8, 4))
	a := m.Alloc(1<<16, "data")
	bar := m.NewBarrier()
	res, err := m.Run(func(p *Proc) {
		for i := 0; i < 200; i++ {
			off := uint64((p.ID()*31+i*17)%4096) * 8
			if i%3 == 0 {
				p.Write(a + off)
			} else {
				p.Read(a + off)
			}
		}
		bar.Wait(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.System().CheckInvariants(res.ExecTime + 1000); err != nil {
		t.Fatalf("post-run invariants: %v", err)
	}
}

func TestNormalizeBar(t *testing.T) {
	base := &Result{ExecTime: 1000}
	base.Procs = nil
	r := &Result{ExecTime: 500}
	bar := r.Normalize(base)
	if bar.Total != 50 {
		t.Fatalf("total = %v, want 50", bar.Total)
	}
}

func TestResultSummaryWrites(t *testing.T) {
	m := mustMachine(t, tiny(2, 2))
	a := m.Alloc(4096, "d")
	res, err := m.Run(func(p *Proc) {
		p.Read(a + uint64(p.ID())*64)
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	res.WriteSummary(&b)
	out := b.String()
	for _, want := range []string{"exec time", "breakdown", "references", "invalidations"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestAllocLocalHomesAtProcCluster(t *testing.T) {
	cfg := tiny(8, 2)
	m := mustMachine(t, cfg)
	a := m.AllocLocal(4096, "p5-stack", 5)
	if home := m.AddressSpace().HomeOf(a); home != cfg.ClusterOf(5) {
		t.Fatalf("home = %d, want %d", home, cfg.ClusterOf(5))
	}
}

// TestLatencyClassesEndToEnd drives the four Table 1 rows through Proc.
func TestLatencyClassesEndToEnd(t *testing.T) {
	cfg := tiny(4, 1)
	cfg.Latencies = coherence.DefaultLatencies()
	m := mustMachine(t, cfg)
	a := m.Alloc(64, "x")
	m.Place(a, 64, 0) // home at cluster 0
	bar := m.NewBarrier()
	res, err := m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Read(a) // local clean: 30
		}
		bar.Wait(p)
		switch p.ID() {
		case 1:
			p.Read(a) // remote clean: 100
		}
		bar.Wait(p)
		switch p.ID() {
		case 2:
			p.Write(a) // exclusive at 2
		}
		bar.Wait(p)
		switch p.ID() {
		case 0:
			p.Read(a) // local home, dirty remote: 100
		case 3:
			// wait one more barrier, then 3-hop
		}
		bar.Wait(p)
		switch p.ID() {
		case 3:
			p.Read(a) // remote home... dir now SHARED after P0's fetch: 100 clean
		}
		bar.Wait(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Procs[0].LoadStall != 30+100 {
		t.Errorf("P0 load stall = %d, want 130", res.Procs[0].LoadStall)
	}
	if res.Procs[1].LoadStall != 100 {
		t.Errorf("P1 load stall = %d, want 100", res.Procs[1].LoadStall)
	}
	if res.Procs[3].LoadStall != 100 {
		t.Errorf("P3 load stall = %d, want 100", res.Procs[3].LoadStall)
	}
}

// TestAccountingIdentity: every cycle of a processor's elapsed time must
// be attributed to exactly one breakdown component — CPU, load stall,
// merge stall or sync wait — so the per-processor breakdown total equals
// its finish time (modulo the few cycles of skew around the measurement
// barrier in apps that use BeginMeasurement; none here).
func TestAccountingIdentity(t *testing.T) {
	m := mustMachine(t, tiny(8, 2))
	a := m.Alloc(1<<14, "d")
	bar := m.NewBarrier()
	lk := m.NewLock("l")
	res, err := m.Run(func(p *Proc) {
		for i := 0; i < 120; i++ {
			off := uint64((p.ID()*53+i*29)%256) * 64
			if i%7 == 0 {
				p.Write(a + off)
			} else {
				p.Read(a + off)
			}
			p.Compute(Clock(i % 5))
			if i%25 == 0 {
				lk.Acquire(p)
				p.Compute(40)
				lk.Release(p)
			}
			if i%40 == 0 {
				bar.Wait(p)
			}
		}
		bar.Wait(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range res.Procs {
		if st.Total() != res.Finish[i] {
			t.Errorf("P%d: breakdown total %d != finish %d", i, st.Total(), res.Finish[i])
		}
	}
	if res.Finish[0] > res.ExecTime {
		t.Error("finish exceeds exec time")
	}
}

// TestGoldenCycleCounts pins the exact simulated timings of a small,
// fully deterministic scenario. These numbers are a regression tripwire:
// if a change to the engine, cache, directory or protocol moves them,
// the change altered simulation semantics and must be intentional.
func TestGoldenCycleCounts(t *testing.T) {
	m := mustMachine(t, tiny(4, 2))
	a := m.Alloc(4096, "data")
	bar := m.NewBarrier()
	res, err := m.Run(func(p *Proc) {
		// Every processor scans the same 8 lines, then writes its own.
		for i := 0; i < 8; i++ {
			p.Read(a + uint64(i)*64)
		}
		bar.Wait(p)
		p.Write(a + uint64(p.ID())*64)
		p.Compute(10)
		bar.Wait(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	agg := res.Aggregate()
	// One miss per line per cluster (16), with the second processor of
	// each cluster merging behind the first on every line (16 merges,
	// lockstep), then one upgrade per written line. The pinned values
	// encode that whole interaction; recompute them only for an
	// intentional semantic change.
	if res.ExecTime != 819 {
		t.Errorf("ExecTime = %d, want 819 (semantics changed?)", res.ExecTime)
	}
	if agg.ReadMisses != 16 || agg.Merges != 16 {
		t.Errorf("misses/merges = %d/%d, want 16/16", agg.ReadMisses, agg.Merges)
	}
	if agg.Upgrades != 4 {
		t.Errorf("upgrades = %d, want 4", agg.Upgrades)
	}
}

func TestReadWriteRange(t *testing.T) {
	m := mustMachine(t, tiny(1, 1))
	a := m.Alloc(1024, "buf")
	res, err := m.Run(func(p *Proc) {
		p.ReadRange(a, 512)  // 8 lines
		p.WriteRange(a, 256) // 4 lines
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Procs[0]
	if st.Reads != 8 || st.Writes != 4 {
		t.Fatalf("refs = %d/%d, want 8/4", st.Reads, st.Writes)
	}
	if st.ReadMisses != 8 {
		t.Fatalf("cold range should miss every line: %d", st.ReadMisses)
	}
	if st.Upgrades != 4 {
		t.Fatalf("writes to shared fetched lines should upgrade: %+v", st.Counters)
	}
}
