package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// model is an independent oracle for a Cache: every resident line's
// expected fields in a map keyed by tag, and each set's recency order
// (a fully associative cache is one set).
type model struct {
	ways  int    // lines per set; 0 = unbounded
	mask  uint64 // set index = tag & mask
	lru   bool   // Touch reorders (false: FIFO, or an infinite cache)
	lines map[uint64]*Line
	order [][]uint64 // per set, most recent first
}

func newModel(sets, ways int, policy ReplacePolicy) *model {
	return &model{
		ways:  ways,
		mask:  uint64(sets - 1),
		lru:   policy == LRU && ways != 0,
		lines: map[uint64]*Line{},
		order: make([][]uint64, sets),
	}
}

// arrive completes l's fill if its data has arrived by now, as Lookup
// and the victim scan do.
func arrive(l *Line, now Clock) {
	if l.Pending && now >= l.ReadyAt {
		l.Pending = false
		l.State = l.FillState
	}
}

func (m *model) drop(tag uint64) {
	set := tag & m.mask
	m.order[set] = slices.DeleteFunc(m.order[set], func(t uint64) bool { return t == tag })
	delete(m.lines, tag)
}

func (m *model) lookup(tag uint64, now Clock) *Line {
	l := m.lines[tag]
	if l != nil {
		arrive(l, now)
	}
	return l
}

func (m *model) touch(tag uint64) {
	if !m.lru {
		return
	}
	set := tag & m.mask
	m.order[set] = slices.DeleteFunc(m.order[set], func(t uint64) bool { return t == tag })
	m.order[set] = append([]uint64{tag}, m.order[set]...)
}

// insert returns the expected victim: the least recent line of tag's
// set that is not in flight at now, settling expired fills on the way.
func (m *model) insert(tag uint64, fill State, now, readyAt Clock) (victim Line, evicted bool) {
	set := tag & m.mask
	if m.ways != 0 && len(m.order[set]) >= m.ways {
		for i := len(m.order[set]) - 1; i >= 0; i-- {
			l := m.lines[m.order[set][i]]
			arrive(l, now)
			if !l.Pending {
				victim, evicted = *l, true
				m.drop(l.Tag)
				break
			}
		}
	}
	m.lines[tag] = &Line{Tag: tag, Pending: true, ReadyAt: readyAt, FillState: fill}
	m.order[set] = append([]uint64{tag}, m.order[set]...)
	return victim, evicted
}

func (m *model) downgrade(tag uint64) {
	l := m.lines[tag]
	switch {
	case l == nil:
	case l.Pending && l.FillState == Exclusive:
		l.FillState = Shared
	case !l.Pending && l.State == Exclusive:
		l.State = Shared
	}
}

// same reports whether the cache's line carries the model's fields.
func same(got, want *Line) bool {
	return got.Tag == want.Tag && got.State == want.State && got.Pending == want.Pending &&
		got.ReadyAt == want.ReadyAt && got.FillState == want.FillState
}

// check compares st with the model: Len, a Peek of every tag in the
// universe (resident or not), and ForEach's order, set by set.
func (m *model) check(st *Cache, universe []uint64) error {
	if st.Len() != len(m.lines) {
		return fmt.Errorf("Len %d, want %d", st.Len(), len(m.lines))
	}
	for _, tag := range universe {
		got, want := st.Peek(tag), m.lines[tag]
		switch {
		case want == nil && got != nil:
			return fmt.Errorf("tag %#x resident, want absent", tag)
		case want != nil && got == nil:
			return fmt.Errorf("tag %#x absent, want resident", tag)
		case want != nil && !same(got, want):
			return fmt.Errorf("tag %#x is %+v, want %+v", tag, *got, *want)
		}
	}
	var got, want []uint64
	st.ForEach(func(l *Line) { got = append(got, l.Tag) })
	for _, set := range m.order {
		want = append(want, set...)
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("ForEach order %v, want %v", got, want)
	}
	return nil
}

// TestLineTableOracle drives caches with random Insert, Lookup (with and
// without Touch), Peek, Invalidate and Downgrade sequences — evicting
// whenever a set is full — and checks every step against the model.
// Tag universes are dense (a bump allocator's line numbers), strided
// (matrix columns), and crowded onto the last slots of the table so
// probe runs wrap around to slot 0; capacities are infinite (whose
// ForEach order is insertion order, newest first), 1, 7 and 256, plus
// three set-associative shapes, one of them direct-mapped.
func TestLineTableOracle(t *testing.T) {
	type shape struct {
		name       string
		sets, ways int // ways 0 = infinite
	}
	shapes := []shape{
		{"infinite", 1, 0}, {"cap1", 1, 1}, {"cap7", 1, 7}, {"cap256", 1, 256},
		{"4x8way", 4, 8}, {"16x2way", 16, 2}, {"32x1way", 32, 1},
	}
	build := func(sh shape, policy ReplacePolicy) *Cache {
		if sh.sets == 1 {
			return New(sh.ways, policy)
		}
		c, err := NewSetAssoc(sh.sets*sh.ways, sh.ways, policy)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// wrapping returns n tags whose home is one of the last two slots of
	// c's table as built.
	wrapping := func(c *Cache, n int) []uint64 {
		var tags []uint64
		last := len(c.lines.slots) - 2
		for tag := uint64(0); len(tags) < n; tag++ {
			if c.lines.home(tag) >= last {
				tags = append(tags, tag)
			}
		}
		return tags
	}
	r := rand.New(rand.NewSource(1))
	for _, sh := range shapes {
		for _, policy := range []ReplacePolicy{LRU, FIFO} {
			universes := []struct {
				name string
				tags func(*Cache) []uint64
			}{
				{"dense", func(*Cache) []uint64 {
					tags := make([]uint64, 300)
					for i := range tags {
						tags[i] = 64 + uint64(i)
					}
					return tags
				}},
				{"strided", func(*Cache) []uint64 {
					tags := make([]uint64, 300)
					for i := range tags {
						tags[i] = uint64(i) * 1024
					}
					return tags
				}},
				{"wrapping", func(c *Cache) []uint64 { return wrapping(c, 300) }},
			}
			for _, u := range universes {
				uname := u.name
				st := build(sh, policy)
				tags := u.tags(st)
				m := newModel(sh.sets, sh.ways, policy)
				now := Clock(0)
				for step := 0; step < 3000; step++ {
					now += Clock(r.Intn(3))
					tag := tags[r.Intn(len(tags))]
					var op string
					switch k := r.Intn(10); {
					case k < 4:
						op = "insert"
						if m.lines[tag] != nil {
							op = "lookup"
							break
						}
						fill := Shared
						if r.Intn(3) == 0 {
							fill = Exclusive
						}
						readyAt := now + Clock(r.Intn(20))
						gv, ge := st.Insert(tag, fill, now, readyAt)
						wv, we := m.insert(tag, fill, now, readyAt)
						if ge != we || ge && !same(&gv, &wv) {
							t.Fatalf("%s/%v/%s step %d: insert %#x evicted %+v %v, want %+v %v",
								sh.name, policy, uname, step, tag, gv, ge, wv, we)
						}
					case k < 7:
						op = "lookup"
					case k < 9:
						op = "invalidate"
						if got, want := st.Invalidate(tag), m.lines[tag] != nil; got != want {
							t.Fatalf("%s/%v/%s step %d: Invalidate(%#x) = %v, want %v",
								sh.name, policy, uname, step, tag, got, want)
						}
						m.drop(tag)
					default:
						op = "downgrade"
						st.Downgrade(tag)
						m.downgrade(tag)
					}
					if op == "lookup" {
						got, want := st.Lookup(tag, now), m.lookup(tag, now)
						if (got == nil) != (want == nil) || got != nil && !same(got, want) {
							t.Fatalf("%s/%v/%s step %d: Lookup(%#x) = %v, want %v",
								sh.name, policy, uname, step, tag, got, want)
						}
						if got != nil && r.Intn(2) == 0 {
							st.Touch(got)
							m.touch(tag)
						}
					}
					if err := m.check(st, tags); err != nil {
						t.Fatalf("%s/%v/%s step %d after %s %#x: %v", sh.name, policy, uname, step, op, tag, err)
					}
				}
			}
		}
	}
}
