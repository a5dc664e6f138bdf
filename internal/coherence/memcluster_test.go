package coherence

import (
	"fmt"
	"math/rand"
	"testing"

	"clustersim/internal/cache"
	"clustersim/internal/memory"
)

// memSys builds a shared-memory-cluster system: 2 clusters × 2 procs,
// per-proc caches of l1Lines lines (0 = infinite).
func memSys(t *testing.T, l1Lines int) (*MemClusterSystem, memory.Addr) {
	t.Helper()
	as, err := memory.New(4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewMemClusterSystem(as, 2, 2, l1Lines, 0, 64, DefaultLatencies(),
		DefaultBusCycles, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	base := as.Alloc(1<<20, "data")
	return s, base
}

func TestMemClusterValidation(t *testing.T) {
	as, _ := memory.New(4096, 2)
	if _, err := NewMemClusterSystem(as, 3, 2, 0, 0, 64, DefaultLatencies(), 15, cache.LRU); err == nil {
		t.Error("want error for cluster-count mismatch")
	}
	if _, err := NewMemClusterSystem(as, 2, 0, 0, 0, 64, DefaultLatencies(), 15, cache.LRU); err == nil {
		t.Error("want error for zero cluster size")
	}
	if _, err := NewMemClusterSystem(as, 2, 2, 0, 0, 64, DefaultLatencies(), 0, cache.LRU); err == nil {
		t.Error("want error for zero bus latency")
	}
	if _, err := NewMemClusterSystem(as, 2, 2, 0, 0, 63, DefaultLatencies(), 15, cache.LRU); err == nil {
		t.Error("want error for bad line size")
	}
}

func TestIntraClusterFetchIsCheap(t *testing.T) {
	s, base := memSys(t, 0)
	// Proc 0 (cluster 0) takes the global miss.
	a := s.Read(0, 0, base, 0)
	if a.Class != ReadMiss || a.Hops == HopIntraCluster {
		t.Fatalf("first read = %+v, want a global miss", a)
	}
	// Proc 1 (same cluster) finds it in the cluster: bus latency only.
	b := s.Read(1, 0, base, 100)
	if b.Class != ReadMiss || b.Hops != HopIntraCluster || b.Stall != DefaultBusCycles {
		t.Fatalf("sibling read = %+v, want intra-cluster at %d cycles", b, DefaultBusCycles)
	}
	// Proc 2 (other cluster) pays the full remote latency.
	c := s.Read(2, 1, base, 200)
	if c.Hops == HopIntraCluster || c.Stall < 30 {
		t.Fatalf("remote read = %+v, want a global miss", c)
	}
}

func TestMemClusterPrivateCachesHit(t *testing.T) {
	s, base := memSys(t, 0)
	s.Read(0, 0, base, 0)
	if a := s.Read(0, 0, base, 100); a.Class != Hit {
		t.Fatalf("second read by same proc = %+v, want Hit", a)
	}
}

func TestOwnershipStaysInCluster(t *testing.T) {
	// The paper: "invalidations are sent to processors that have copies
	// of the data item, but ownership is kept within the cluster" — a
	// sibling's write after a sibling's read needs no global traffic.
	s, base := memSys(t, 0)
	s.Write(0, 0, base, 0) // cluster 0 owns the line
	a := s.Write(1, 0, base, 100)
	if a.Class != WriteMiss || a.Hops != HopIntraCluster {
		t.Fatalf("sibling write = %+v, want intra-cluster write miss", a)
	}
	// Proc 0's private copy must be gone.
	if got := s.Read(0, 0, base, 200); got.Hops != HopIntraCluster {
		t.Fatalf("original writer reread = %+v, want intra-cluster refetch", got)
	}
	// Throughout, the directory still shows cluster 0 exclusive: a read
	// from cluster 1 is a dirty-remote transaction.
	b := s.Read(2, 1, base, 400)
	if b.Hops == HopIntraCluster || b.Class != ReadMiss {
		t.Fatalf("remote read of cluster-owned line = %+v", b)
	}
}

func TestCrossClusterInvalidationClearsEverything(t *testing.T) {
	s, base := memSys(t, 0)
	s.Read(0, 0, base, 0)
	s.Read(1, 0, base, 100)
	s.Write(2, 1, base, 200) // cluster 1 takes ownership
	// Both cluster-0 procs and the attraction memory lost the line.
	if s.InCluster(0, base>>6) {
		t.Fatal("cluster 0 attraction memory still holds the line")
	}
	if !s.InCluster(1, base>>6) {
		t.Fatal("cluster 1 attraction memory should hold the line it wrote")
	}
	if got := s.Read(0, 0, base, 400); got.Hops == HopIntraCluster || got.Class != ReadMiss {
		t.Fatalf("read after invalidation = %+v, want global miss", got)
	}
}

func TestSharedUpgradeInvalidatesOtherCluster(t *testing.T) {
	s, base := memSys(t, 0)
	s.Read(0, 0, base, 0)
	s.Read(2, 1, base, 100)
	// Upgrade in cluster 0: cluster 1's copy must go.
	a := s.Write(0, 0, base, 300)
	if a.Class != Upgrade {
		t.Fatalf("write on shared = %+v, want Upgrade", a)
	}
	if got := s.Read(2, 1, base, 500); got.Class != ReadMiss || got.Hops == HopIntraCluster {
		t.Fatalf("other cluster after upgrade = %+v, want global miss", got)
	}
}

func TestEvictionStaysInCluster(t *testing.T) {
	// With a tiny private cache, evicted lines are re-fetched over the
	// bus, not from the directory — the attraction memory retains them.
	s, base := memSys(t, 2)
	s.Read(0, 0, base, 0)
	s.Read(0, 0, base+64, 100)
	s.Read(0, 0, base+128, 200) // evicts line 0 from the private cache
	a := s.Read(0, 0, base, 400)
	if a.Hops != HopIntraCluster {
		t.Fatalf("refetch after private eviction = %+v, want intra-cluster", a)
	}
}

func TestDirtyEvictionWritesBackToCluster(t *testing.T) {
	s, base := memSys(t, 2)
	s.Write(0, 0, base, 0)
	s.Read(0, 0, base+64, 100)
	s.Read(0, 0, base+128, 200) // evicts the dirty line into the attraction memory
	if st := s.ClusterStats(0); st.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", st.Writebacks)
	}
	// Ownership still in cluster: sibling write is intra-cluster.
	if a := s.Write(1, 0, base, 400); a.Hops != HopIntraCluster {
		t.Fatalf("sibling write after writeback = %+v", a)
	}
}

func TestMemClusterMerge(t *testing.T) {
	s, base := memSys(t, 0)
	s.Read(0, 0, base, 0) // fill pending until 30 (local clean)
	a := s.Read(0, 0, base, 10)
	if a.Class != MergeMiss || a.Stall != 20 {
		t.Fatalf("merge = %+v", a)
	}
}

func TestMemClusterRandomTrafficInvariants(t *testing.T) {
	for _, lines := range []int{0, 8} {
		s, base := memSys(t, lines)
		r := rand.New(rand.NewSource(99))
		now := Clock(0)
		for step := 0; step < 20000; step++ {
			proc := r.Intn(4)
			cl := proc / 2
			addr := base + uint64(r.Intn(256))*8
			if r.Intn(3) == 0 {
				s.Write(proc, cl, addr, now)
			} else {
				s.Read(proc, cl, addr, now)
			}
			now += Clock(r.Intn(5))
			if step%2000 == 0 {
				if err := s.CheckInvariants(now); err != nil {
					t.Fatalf("l1=%d step %d: %v", lines, step, err)
				}
			}
		}
		if err := s.CheckInvariants(now + 1000); err != nil {
			t.Fatalf("l1=%d final: %v", lines, err)
		}
	}
}

// TestMemClusterAuditsReportPlantedFaults plants one fault per row in a
// shared-memory-cluster system and requires both audits, the per-line
// CheckLine and the full CheckInvariants, to report it.
func TestMemClusterAuditsReportPlantedFaults(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plant func(s *MemClusterSystem, base memory.Addr)
		want  string
	}{{
		name: "private copy outside its cluster",
		plant: func(s *MemClusterSystem, base memory.Addr) {
			s.Read(0, 0, base, 0)
			s.l1[2].Insert(base>>6, cache.Shared, 0, 0) // cluster 1 has no directory bit
		},
		want: "processor 2 caches line %#x absent from cluster 1",
	}, {
		name: "EXCLUSIVE fill in a SHARED cluster",
		plant: func(s *MemClusterSystem, base memory.Addr) {
			s.Read(0, 0, base, 0) // fill pending until cycle 30
			s.l1[0].Peek(base >> 6).FillState = cache.Exclusive
		},
		want: "processor 0 holds line %#x EXCLUSIVE but cluster 0 is SHARED",
	}, {
		name: "directory downgraded under an EXCLUSIVE copy",
		plant: func(s *MemClusterSystem, base memory.Addr) {
			s.Write(0, 0, base, 0)
			s.dir.Downgrade(base >> 6)
		},
		want: "processor 0 holds line %#x EXCLUSIVE but cluster 0 is SHARED",
	}} {
		t.Run(tc.name, func(t *testing.T) {
			s, base := memSys(t, 0)
			tc.plant(s, base)
			want := fmt.Sprintf(tc.want, base>>6)
			if err := s.CheckLine(base, 1); err == nil || err.Error() != want {
				t.Errorf("CheckLine = %v, want %q", err, want)
			}
			if err := s.CheckInvariants(1); err == nil || err.Error() != want {
				t.Errorf("CheckInvariants = %v, want %q", err, want)
			}
		})
	}
}

func TestMemClusterWrongClusterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong cluster did not panic")
		}
	}()
	s, base := memSys(t, 0)
	s.Read(0, 1, base, 0) // proc 0 is in cluster 0
}
