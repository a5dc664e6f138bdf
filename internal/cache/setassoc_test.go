package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewSetAssocValidation(t *testing.T) {
	if _, err := NewSetAssoc(0, 4, LRU); err == nil {
		t.Error("want error for zero capacity")
	}
	if _, err := NewSetAssoc(64, 0, LRU); err == nil {
		t.Error("want error for zero ways")
	}
	if _, err := NewSetAssoc(65, 4, LRU); err == nil {
		t.Error("want error for capacity not divisible by ways")
	}
	if _, err := NewSetAssoc(24, 2, LRU); err == nil {
		t.Error("want error for non-power-of-two set count")
	}
	sa, err := NewSetAssoc(64, 4, LRU)
	if err != nil {
		t.Fatal(err)
	}
	if sa.ways != 4 || len(sa.sets) != 16 {
		t.Fatalf("geometry %d ways × %d sets", sa.ways, len(sa.sets))
	}
}

func TestSetIndexingConfinesConflicts(t *testing.T) {
	// 2-way, 4 sets: tags 0, 4, 8 all map to set 0; inserting three of
	// them must evict within set 0 while other sets stay empty.
	sa, err := NewSetAssoc(8, 2, LRU)
	if err != nil {
		t.Fatal(err)
	}
	sa.Insert(0, Shared, 0, 0)
	sa.Insert(4, Shared, 1, 1)
	v, ev := sa.Insert(8, Shared, 2, 2)
	if !ev || v.Tag != 0 {
		t.Fatalf("conflict victim = %+v (evicted=%v), want tag 0", v, ev)
	}
	// A tag in another set does not evict.
	if _, ev := sa.Insert(1, Shared, 3, 3); ev {
		t.Fatal("insert into empty set evicted")
	}
	if sa.Len() != 3 {
		t.Fatalf("len = %d", sa.Len())
	}
}

func TestDirectMappedIsOneWay(t *testing.T) {
	sa, err := NewSetAssoc(4, 1, LRU)
	if err != nil {
		t.Fatal(err)
	}
	sa.Insert(2, Shared, 0, 0)
	v, ev := sa.Insert(6, Shared, 1, 1) // same set (2 mod 4)
	if !ev || v.Tag != 2 {
		t.Fatalf("direct-mapped conflict: %+v %v", v, ev)
	}
}

// TestFullyAssociativeEquivalence: a set-associative cache with one set
// must behave exactly like the fully associative one under a random
// workload.
func TestFullyAssociativeEquivalence(t *testing.T) {
	const capacity = 8
	fa := New(capacity, LRU)
	sa, err := NewSetAssoc(capacity, capacity, LRU) // 1 set of 8 ways
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	for step := 0; step < 4000; step++ {
		tag := uint64(r.Intn(24))
		now := int64(step)
		lf, ls := fa.Lookup(tag, now), sa.Lookup(tag, now)
		if (lf == nil) != (ls == nil) {
			t.Fatalf("step %d: residency diverged for tag %d", step, tag)
		}
		if lf != nil {
			fa.Touch(lf)
			sa.Touch(ls)
			continue
		}
		vf, ef := fa.Insert(tag, Shared, now, now)
		vs, es := sa.Insert(tag, Shared, now, now)
		if ef != es || (ef && vf.Tag != vs.Tag) {
			t.Fatalf("step %d: eviction diverged: %v/%v vs %v/%v", step, vf, ef, vs, es)
		}
	}
}

// TestConflictMissesExceedFullyAssociative is the destructive-
// interference property the paper's future work targets: under a strided
// reference stream, a direct-mapped cache of the same size misses more.
func TestConflictMissesExceedFullyAssociative(t *testing.T) {
	misses := func(st *Cache) int {
		n := 0
		for step := 0; step < 2000; step++ {
			tag := uint64((step % 4) * 16) // 4 tags, all in one set
			if l := st.Lookup(tag, int64(step)); l != nil {
				st.Touch(l)
				continue
			}
			n++
			st.Insert(tag, Shared, int64(step), int64(step))
		}
		return n
	}
	fa := New(16, LRU)
	dm, err := NewSetAssoc(16, 1, LRU)
	if err != nil {
		t.Fatal(err)
	}
	mf, md := misses(fa), misses(dm)
	if mf != 4 {
		t.Fatalf("fully associative missed %d, want 4 cold misses", mf)
	}
	if md <= mf {
		t.Fatalf("direct-mapped should thrash: %d misses vs %d", md, mf)
	}
}

func TestSetAssocInvalidateAndDowngrade(t *testing.T) {
	sa, err := NewSetAssoc(8, 2, LRU)
	if err != nil {
		t.Fatal(err)
	}
	sa.Insert(5, Exclusive, 0, 0)
	sa.Downgrade(5)
	if l := sa.Lookup(5, 1); l == nil || l.State != Shared {
		t.Fatalf("downgrade failed: %+v", l)
	}
	if !sa.Invalidate(5) {
		t.Fatal("invalidate reported not resident")
	}
	if sa.Invalidate(5) {
		t.Fatal("double invalidate reported resident")
	}
}

// Property: Len equals the number of distinct resident tags and never
// exceeds capacity.
func TestSetAssocLenProperty(t *testing.T) {
	f := func(tags []uint8) bool {
		sa, err := NewSetAssoc(16, 4, LRU)
		if err != nil {
			return false
		}
		for i, tg := range tags {
			tag := uint64(tg)
			if sa.Lookup(tag, int64(i)) == nil {
				sa.Insert(tag, Shared, int64(i), int64(i))
			}
			if sa.Len() > 16 {
				return false
			}
		}
		seen := map[uint64]bool{}
		ok := true
		sa.ForEach(func(l *Line) {
			if seen[l.Tag] {
				ok = false
			}
			seen[l.Tag] = true
		})
		return ok && len(seen) == sa.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
