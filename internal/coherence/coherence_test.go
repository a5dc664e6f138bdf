package coherence

import (
	"math/rand"
	"strings"
	"testing"

	"clustersim/internal/cache"
	"clustersim/internal/memory"
)

// sys builds a 4-cluster system with the given per-cluster line capacity.
func sys(t *testing.T, cacheLines int) (*System, memory.Addr) {
	t.Helper()
	as, err := memory.New(4096, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(as, 4, cacheLines, 64, DefaultLatencies(), cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	base := as.Alloc(1<<20, "data")
	return s, base
}

func TestDefaultLatenciesMatchTable1(t *testing.T) {
	l := DefaultLatencies()
	if l.LocalClean != 30 || l.LocalDirty != 100 || l.RemoteClean != 100 || l.RemoteDirty != 150 {
		t.Fatalf("latencies %+v do not match Table 1", l)
	}
}

func TestSharedCacheHitCyclesTable1(t *testing.T) {
	want := map[int]Clock{1: 1, 2: 2, 4: 3, 8: 3}
	for cs, w := range want {
		if got := SharedCacheHitCycles(cs); got != w {
			t.Errorf("hit cycles for %d-proc cluster = %d, want %d", cs, got, w)
		}
	}
}

func TestColdReadMissThenHit(t *testing.T) {
	s, base := sys(t, 0)
	// First touch assigns the page to cluster 0 round-robin, so a read
	// from cluster 0 is a local clean miss: 30 cycles.
	a := s.Read(0, 0, base, 0)
	if a.Class != ReadMiss || a.Hops != HopLocalClean || a.Stall != 30 {
		t.Fatalf("cold read = %+v", a)
	}
	// Same processor cluster reads again after the fill: hit.
	a = s.Read(0, 0, base, 100)
	if a.Class != Hit || a.Stall != 0 {
		t.Fatalf("warm read = %+v", a)
	}
}

func TestRemoteCleanMiss(t *testing.T) {
	s, base := sys(t, 0)
	s.Read(0, 0, base, 0) // homes the page at cluster 0
	a := s.Read(1, 1, base, 100)
	if a.Class != ReadMiss || a.Hops != HopRemoteClean || a.Stall != 100 {
		t.Fatalf("remote clean read = %+v", a)
	}
}

func TestMergeMissBlocksUntilFill(t *testing.T) {
	s, base := sys(t, 0)
	s.Read(0, 0, base, 0) // fill in flight until cycle 30
	a := s.Read(0, 0, base, 10)
	if a.Class != MergeMiss || a.Stall != 20 {
		t.Fatalf("merge = %+v, want 20-cycle stall", a)
	}
	a = s.Read(0, 0, base, 30)
	if a.Class != Hit {
		t.Fatalf("after ready time = %+v, want hit", a)
	}
}

func TestPrefetchWithinCluster(t *testing.T) {
	// Two addresses in the same line: the second reference, even to a
	// different word, finds the line — the paper's line-prefetching effect.
	s, base := sys(t, 0)
	s.Read(0, 0, base, 0)
	a := s.Read(0, 0, base+32, 40)
	if a.Class != Hit {
		t.Fatalf("same-line read = %+v, want hit", a)
	}
}

func TestWriteMissInvalidatesSharers(t *testing.T) {
	s, base := sys(t, 0)
	s.Read(0, 0, base, 0)
	s.Read(1, 1, base, 200)
	s.Read(2, 2, base, 400)
	a := s.Write(3, 3, base, 600)
	if a.Class != WriteMiss {
		t.Fatalf("write = %+v", a)
	}
	// All other copies gone; their next reads are misses.
	for _, cl := range []int{0, 1, 2} {
		if got := s.Read(cl, cl, base, 1000+Clock(cl)*200); got.Class != ReadMiss {
			t.Fatalf("cluster %d after invalidation: %+v, want ReadMiss", cl, got)
		}
	}
	if st := s.ClusterStats(3); st.InvalidationsSent != 3 {
		t.Fatalf("invalidations sent = %d, want 3", st.InvalidationsSent)
	}
}

func TestUpgradeOnSharedLine(t *testing.T) {
	s, base := sys(t, 0)
	s.Read(0, 0, base, 0)
	s.Read(1, 1, base, 100)
	a := s.Write(0, 0, base, 300)
	if a.Class != Upgrade || a.Stall != 0 {
		t.Fatalf("write to shared = %+v, want Upgrade with no stall", a)
	}
	// Writer hits exclusively now.
	if got := s.Write(0, 0, base, 400); got.Class != Hit {
		t.Fatalf("second write = %+v, want Hit", got)
	}
	if got := s.Read(1, 1, base, 500); got.Class != ReadMiss {
		t.Fatalf("cluster 1 after upgrade: %+v, want ReadMiss", got)
	}
	// The dirty read downgraded the owner, so a further write re-upgrades.
	if got := s.Write(0, 0, base, 700); got.Class != Upgrade {
		t.Fatalf("write after downgrade = %+v, want Upgrade", got)
	}
}

func TestDirtyRemoteReadLatencies(t *testing.T) {
	s, base := sys(t, 0)
	home := 0
	s.Read(home, home, base, 0) // homes page at cluster 0
	s.Write(1, 1, base, 100)    // cluster 1 owns it dirty
	a := s.Read(0, 0, base, 300)
	if a.Hops != HopLocalDirty || a.Stall != 100 {
		t.Fatalf("local home, dirty remote: %+v, want 100 cycles", a)
	}
	// Now dirty it in the home cluster itself and read from a third
	// cluster: two hops, 100 cycles.
	s.Write(0, 0, base, 500)
	a = s.Read(2, 2, base, 700)
	if a.Hops != HopRemoteClean || a.Stall != 100 {
		t.Fatalf("remote home holding dirty data: %+v, want 100 cycles", a)
	}
	// Dirty in a third party: 150 cycles.
	s.Write(3, 3, base, 900)
	a = s.Read(2, 2, base, 1100)
	if a.Hops != HopRemoteDirty || a.Stall != 150 {
		t.Fatalf("three-hop read: %+v, want 150 cycles", a)
	}
}

func TestDirtyReadLeavesSharedCopies(t *testing.T) {
	s, base := sys(t, 0)
	s.Write(1, 1, base, 0)
	s.Read(2, 2, base, 200) // cache-to-cache; owner keeps a shared copy
	if got := s.Read(1, 1, base, 400); got.Class != Hit {
		t.Fatalf("previous owner after downgrade: %+v, want Hit", got)
	}
	if got := s.Read(2, 2, base, 500); got.Class != Hit {
		t.Fatalf("reader after fill: %+v, want Hit", got)
	}
}

func TestWriteMergeIntoOutstandingWrite(t *testing.T) {
	s, base := sys(t, 0)
	s.Write(0, 0, base, 0) // fill pending until 30
	a := s.Write(0, 0, base, 10)
	if a.Class != WriteMerge {
		t.Fatalf("second write while pending = %+v", a)
	}
}

func TestWriteToPendingReadFillUpgrades(t *testing.T) {
	s, base := sys(t, 0)
	s.Read(0, 0, base, 0) // read fill pending until 30
	a := s.Write(0, 0, base, 10)
	if a.Class != Upgrade {
		t.Fatalf("write to pending read fill = %+v", a)
	}
	// When the fill settles it must be exclusive: the next write hits.
	if got := s.Write(0, 0, base, 50); got.Class != Hit {
		t.Fatalf("write after upgraded fill = %+v, want Hit", got)
	}
}

func TestInvalidationOfPendingLine(t *testing.T) {
	s, base := sys(t, 0)
	s.Read(0, 0, base, 0)  // cluster 0 fill pending until 30
	s.Write(1, 1, base, 5) // instantaneous invalidation hits the pending line
	if got := s.Read(0, 0, base, 100); got.Class != ReadMiss {
		t.Fatalf("read after pending-line invalidation = %+v, want ReadMiss", got)
	}
}

func TestEvictionSendsReplacementHint(t *testing.T) {
	s, base := sys(t, 2) // tiny 2-line cache
	s.Read(0, 0, base, 0)
	s.Read(0, 0, base+64, 100)
	s.Read(0, 0, base+128, 200) // evicts line 0 (clean) -> hint
	if st := s.ClusterStats(0); st.ReplacementHints != 1 {
		t.Fatalf("hints = %d, want 1", st.ReplacementHints)
	}
	// The directory no longer thinks cluster 0 shares line 0, so a later
	// write by another cluster sends no invalidation to it.
	s.Write(1, 1, base, 400)
	if st := s.ClusterStats(0); st.InvalidationsReceived != 0 {
		t.Fatalf("stale invalidation delivered despite replacement hint")
	}
}

func TestEvictionOfDirtyLineWritesBack(t *testing.T) {
	s, base := sys(t, 2)
	s.Write(0, 0, base, 0)
	s.Read(0, 0, base+64, 100)
	s.Read(0, 0, base+128, 200) // evicts the dirty line
	if st := s.ClusterStats(0); st.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", st.Writebacks)
	}
	// After writeback the home can serve the line clean.
	a := s.Read(1, 1, base, 400)
	if a.Class != ReadMiss || a.Hops == HopRemoteDirty {
		t.Fatalf("read after writeback = %+v, want clean service", a)
	}
}

func TestUnmappedAccessPanicsHelpfully(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "unallocated") {
			t.Fatalf("want unallocated panic, got %v", r)
		}
	}()
	s, _ := sys(t, 0)
	s.Read(0, 0, 0xdeadbeef00000, 0)
}

func TestLineOfRespectsLineSize(t *testing.T) {
	as, _ := memory.New(4096, 2)
	s, err := NewSystem(as, 2, 0, 128, DefaultLatencies(), cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	if s.LineBytes() != 128 {
		t.Fatalf("line bytes = %d", s.LineBytes())
	}
	if s.LineOf(256) != 2 || s.LineOf(255) != 1 {
		t.Fatal("LineOf misaligned")
	}
	if _, err := NewSystem(as, 2, 0, 100, DefaultLatencies(), cache.LRU); err == nil {
		t.Fatal("want error for non-power-of-two line size")
	}
}

// TestRandomTrafficInvariants fires random reads and writes from random
// clusters and audits directory/cache agreement throughout.
func TestRandomTrafficInvariants(t *testing.T) {
	for _, lines := range []int{0, 4, 32} {
		s, base := sys(t, lines)
		r := rand.New(rand.NewSource(42))
		now := Clock(0)
		for step := 0; step < 20000; step++ {
			cl := r.Intn(4)
			addr := base + uint64(r.Intn(256))*8
			if r.Intn(3) == 0 {
				s.Write(cl, cl, addr, now)
			} else {
				s.Read(cl, cl, addr, now)
			}
			now += Clock(r.Intn(5))
			if step%1000 == 0 {
				if err := s.CheckInvariants(now); err != nil {
					t.Fatalf("cacheLines=%d step %d: %v", lines, step, err)
				}
			}
		}
		if err := s.CheckInvariants(now + 1000); err != nil {
			t.Fatalf("cacheLines=%d final: %v", lines, err)
		}
	}
}

// TestSingleWriterInvariant checks that after any write, no other cluster
// can hit on the line until it refetches.
func TestSingleWriterInvariant(t *testing.T) {
	s, base := sys(t, 0)
	r := rand.New(rand.NewSource(7))
	now := Clock(0)
	lastWriter := make(map[uint64]int)
	for step := 0; step < 5000; step++ {
		cl := r.Intn(4)
		addr := base + uint64(r.Intn(64))*8
		line := s.LineOf(addr)
		if r.Intn(2) == 0 {
			s.Write(cl, cl, addr, now)
			lastWriter[line] = cl
		} else {
			a := s.Read(cl, cl, addr, now)
			if w, ok := lastWriter[line]; ok && w != cl && a.Class == Hit {
				// A hit is only legal if some read already refetched the
				// line into this cluster after the last write; track that
				// by clearing the writer record on any successful fetch.
				t.Fatalf("step %d: cluster %d hit on line last written by %d without refetch", step, cl, w)
			}
			delete(lastWriter, line)
		}
		now += 200 // let fills settle so Hit/Miss classes are crisp
	}
}

func TestHopsAndClassStrings(t *testing.T) {
	if Hit.String() != "HIT" || ReadMiss.String() != "READ" || Upgrade.String() != "UPGRADE" {
		t.Error("Class.String wrong")
	}
	if HopLocalClean.String() != "local-clean" || HopRemoteDirty.String() != "remote-dirty" {
		t.Error("Hops.String wrong")
	}
}

// TestAuditsLeavePendingFills checks that the full audit of either
// organisation changes no state: a read fill ready at cycle 30 and
// audited at cycle 100 is still pending, in state INVALID, afterwards.
func TestAuditsLeavePendingFills(t *testing.T) {
	s, base := sys(t, 0)
	m, mbase := memSys(t, 0)
	for _, c := range []struct {
		name  string
		model MemoryModel
		addr  memory.Addr
		cache *cache.Cache
	}{
		{"shared-cache", s, base, s.Cache(0)},
		{"shared-memory", m, mbase, m.l1[0]},
	} {
		if a := c.model.Read(0, 0, c.addr, 0); a.Class != ReadMiss || a.Stall != 30 {
			t.Fatalf("%s: cold read = %+v, want a 30-cycle read miss", c.name, a)
		}
		if err := c.model.CheckInvariants(100); err != nil {
			t.Fatalf("%s: audit: %v", c.name, err)
		}
		l := c.cache.Peek(c.addr >> 6)
		if l == nil || !l.Pending || l.State != cache.Invalid {
			t.Errorf("%s: after the audit the fill is %+v, want pending in state INVALID", c.name, l)
		}
	}
}
