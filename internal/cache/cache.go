// Package cache models the cluster caches of the simulated machine.
// Following the paper's methodology the main study's caches are fully
// associative with LRU replacement ("we do not want to include the
// effect of conflict misses that are due to limited associativity"),
// with 64-byte lines by default, and either finite (sized per processor)
// or infinite. The destructive interference the paper defers to future
// work is studied with k-way caches (NewSetAssoc); a fully associative
// cache is the one-set case of the same type.
//
// A line can be INVALID (absent), SHARED, or EXCLUSIVE. Lines being
// filled by an outstanding READ or WRITE miss are additionally pending
// until the fill's ready time; a read that finds a pending line is a
// MERGE miss and blocks until the data returns.
//
// Resident lines are found by line number through one table per cache
// (lineTable): open addressing over a power-of-two slice of *Line,
// Fibonacci hashing of the tag and linear probing against the resident
// line's Tag, doubled at half load, with backward-shift deletion. Each
// set threads its lines on a recency list, so iteration (ForEach) and
// victim choice follow recency, never the table's layout. An infinite
// cache never evicts, so its hits leave its one list alone and it keeps
// insertion order.
package cache

import (
	"fmt"
	"math/bits"
)

// Clock mirrors engine.Clock to avoid a dependency cycle.
type Clock = int64

// State is the cache-line coherence state.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
)

// String names the state as in the paper (INVALID/SHARED/EXCLUSIVE).
func (s State) String() string {
	switch s {
	case Invalid:
		return "INVALID"
	case Shared:
		return "SHARED"
	case Exclusive:
		return "EXCLUSIVE"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// ReplacePolicy selects the victim-choice policy. The paper uses LRU; FIFO
// is provided for the ablation benchmarks.
type ReplacePolicy uint8

const (
	LRU ReplacePolicy = iota
	FIFO
)

// Line is one resident cache line.
type Line struct {
	Tag   uint64 // line number (address >> lineShift)
	State State

	// Pending is set while the fill for this line is still in flight.
	// ReadyAt is the cycle the data arrives; FillState is the state the
	// line assumes then (Shared for read fills, Exclusive for write
	// fills, upgraded in place if a write hits a pending read fill).
	Pending   bool
	ReadyAt   Clock
	FillState State

	prev, next *Line // its set's recency list, most recent at head
}

// set is one set's recency list and its count of resident lines.
type set struct {
	head, tail *Line
	n          int
}

// Cache is one cluster's cache: sets of ways lines each, a fully
// associative cache being one set. A line's set is the low bits of its
// line number, as in a physical cache, so lines that are far apart in
// the address space can conflict.
type Cache struct {
	ways  int  // lines per set; 0 means infinite (one unbounded set)
	lru   bool // Touch reorders: LRU replacement in a finite cache
	lines lineTable
	sets  []set
	mask  uint64 // len(sets)-1: a line's set is Tag & mask
	free  *Line  // recycled Line structs

	// Evictions counts replacement victims; for sanity checks.
	Evictions uint64
}

// New creates a fully associative cache holding capacityLines lines
// (0 = infinite).
func New(capacityLines int, policy ReplacePolicy) *Cache {
	if capacityLines < 0 {
		panic("cache: negative capacity")
	}
	return newCache(1, capacityLines, policy)
}

// NewSetAssoc builds a cache of capacityLines lines organised as
// ways-associative sets. capacityLines must be a positive multiple of
// ways and the set count must be a power of two.
func NewSetAssoc(capacityLines, ways int, policy ReplacePolicy) (*Cache, error) {
	if capacityLines <= 0 {
		return nil, fmt.Errorf("cache: set-associative cache needs a finite capacity")
	}
	if ways <= 0 || capacityLines%ways != 0 {
		return nil, fmt.Errorf("cache: %d lines not divisible into %d-way sets", capacityLines, ways)
	}
	nsets := capacityLines / ways
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("cache: %d sets is not a power of two", nsets)
	}
	return newCache(nsets, ways, policy), nil
}

func newCache(nsets, ways int, policy ReplacePolicy) *Cache {
	return &Cache{
		ways:  ways,
		lru:   policy == LRU && ways != 0,
		lines: newLineTable(nsets * ways),
		sets:  make([]set, nsets),
		mask:  uint64(nsets - 1),
	}
}

// Len returns the number of resident lines.
func (c *Cache) Len() int { return c.lines.n }

// Lookup returns the resident line for tag, or nil, resolving an expired
// pending fill (now >= ReadyAt) to its final state first. It does not
// update recency; call Touch on a hit.
func (c *Cache) Lookup(tag uint64, now Clock) *Line {
	l := c.lines.get(tag)
	if l == nil {
		return nil
	}
	if l.Pending && now >= l.ReadyAt {
		l.Pending = false
		l.State = l.FillState
	}
	return l
}

// Peek returns the resident line for tag without settling pending fills
// or updating recency — the sanitizer's non-mutating view. A pending
// line whose ReadyAt has passed is still reported Pending; readers must
// use FillState for its effective coherence state.
func (c *Cache) Peek(tag uint64) *Line { return c.lines.get(tag) }

// Touch marks the line most recently used in its set. Under FIFO the
// order is insertion order only, and an infinite cache never evicts, so
// neither reorders.
func (c *Cache) Touch(l *Line) {
	if c.lru {
		c.sets[l.Tag&c.mask].moveToFront(l)
	}
}

// Insert installs a pending fill for tag, issued at now, that completes
// at readyAt in fillState. If tag's set is full it evicts a victim from
// the set first and returns it (with its pre-eviction tag and state) so
// the caller can send a writeback or replacement hint to the directory.
// Inserting a tag that is already resident panics — callers must Lookup
// first.
func (c *Cache) Insert(tag uint64, fillState State, now, readyAt Clock) (victim Line, evicted bool) {
	if c.lines.get(tag) != nil {
		panic(fmt.Sprintf("cache: duplicate insert of line %#x", tag))
	}
	s := &c.sets[tag&c.mask]
	if c.ways != 0 && s.n >= c.ways {
		if v := s.chooseVictim(now); v != nil {
			victim, evicted = *v, true
			c.remove(s, v)
			c.Evictions++
		}
	}
	l := c.newLine()
	l.Tag = tag
	l.State = Invalid
	l.Pending = true
	l.ReadyAt = readyAt
	l.FillState = fillState
	c.lines.put(l)
	s.pushFront(l)
	s.n++
	return victim, evicted
}

// Invalidate removes tag from the cache (invalidations are instantaneous
// in the paper's protocol and may target a pending line). It reports
// whether the line was resident.
func (c *Cache) Invalidate(tag uint64) bool {
	l := c.lines.get(tag)
	if l == nil {
		return false
	}
	c.remove(&c.sets[tag&c.mask], l)
	return true
}

// Downgrade moves an Exclusive line to Shared (remote read of dirty data).
func (c *Cache) Downgrade(tag uint64) {
	l := c.lines.get(tag)
	if l == nil {
		return
	}
	if l.Pending {
		if l.FillState == Exclusive {
			l.FillState = Shared
		}
		return
	}
	if l.State == Exclusive {
		l.State = Shared
	}
}

// ForEach visits every resident line, the sets in index order and each
// from most to least recent (an infinite cache's lines newest inserted
// first); for invariant audits and tests.
func (c *Cache) ForEach(fn func(*Line)) {
	for i := range c.sets {
		for l := c.sets[i].head; l != nil; l = l.next {
			fn(l)
		}
	}
}

func (c *Cache) remove(s *set, l *Line) {
	s.unlink(l)
	s.n--
	c.lines.delete(l)
	l.prev, l.next = nil, c.free
	c.free = l
}

func (c *Cache) newLine() *Line {
	if c.free != nil {
		l := c.free
		c.free = l.next
		*l = Line{}
		return l
	}
	return &Line{}
}

// chooseVictim returns the set's least recently used line that is not
// pending at time now, settling expired fills along the way. It returns
// nil if every line of the set is still being filled; the caller then
// over-commits the set by one line, and the set stays over until a line
// of it is invalidated. That is not rare in small sets: direct-mapped
// and 2-way caches, and Table 3's 16- and 32-line fully associative
// ones (the FOUND on over-committed sets in CHANGES.md has the counts).
func (s *set) chooseVictim(now Clock) *Line {
	for l := s.tail; l != nil; l = l.prev {
		if l.Pending && now >= l.ReadyAt {
			l.Pending = false
			l.State = l.FillState
		}
		if !l.Pending {
			return l
		}
	}
	return nil
}

// moveToFront makes l, a line of s, its most recent.
func (s *set) moveToFront(l *Line) {
	if s.head != l {
		s.unlink(l)
		s.pushFront(l)
	}
}

func (s *set) pushFront(l *Line) {
	l.prev = nil
	l.next = s.head
	if s.head != nil {
		s.head.prev = l
	}
	s.head = l
	if s.tail == nil {
		s.tail = l
	}
}

func (s *set) unlink(l *Line) {
	if l.prev != nil {
		l.prev.next = l.next
	} else if s.head == l {
		s.head = l.next
	}
	if l.next != nil {
		l.next.prev = l.prev
	} else if s.tail == l {
		s.tail = l.prev
	}
	l.prev, l.next = nil, nil
}

// lineTable maps line numbers to resident lines by open addressing: a
// line lives at the first free slot probing forward, wrapping, from its
// tag's home slot. The table doubles before it passes half load, and
// deletion shifts later lines of the probe run back instead of leaving
// tombstones, so a probe always ends at a nil slot within a short run.
type lineTable struct {
	slots []*Line // power-of-two length
	shift uint    // 64 - log2(len(slots)): keeps the hash's top bits
	n     int     // resident lines
}

// minSlots sizes the table of an infinite cache, which grows on demand.
const minSlots = 16

// newLineTable sizes a table so that capacity lines (0 = unbounded)
// stay at or below half load.
func newLineTable(capacity int) lineTable {
	size := minSlots
	if capacity > 0 {
		size = 2
		for size < 2*capacity {
			size *= 2
		}
	}
	return lineTable{slots: make([]*Line, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
}

// home is tag's first probe slot: Fibonacci hashing, which spreads the
// dense and strided line numbers of a bump allocator over the table.
func (t *lineTable) home(tag uint64) int {
	return int((tag * 0x9E3779B97F4A7C15) >> t.shift)
}

// get returns the resident line for tag, or nil.
func (t *lineTable) get(tag uint64) *Line {
	mask := len(t.slots) - 1
	for i := t.home(tag); ; i = (i + 1) & mask {
		if l := t.slots[i]; l == nil || l.Tag == tag {
			return l
		}
	}
}

// put stores l, whose tag must not be resident, doubling the table
// first if l would take it past half load.
func (t *lineTable) put(l *Line) {
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]*Line, 2*len(old))
		t.shift--
		for _, o := range old {
			if o != nil {
				t.place(o)
			}
		}
	}
	t.place(l)
	t.n++
}

// place stores l at the first free slot of its probe run.
func (t *lineTable) place(l *Line) {
	mask := len(t.slots) - 1
	i := t.home(l.Tag)
	for t.slots[i] != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = l
}

// delete removes the resident line l, then walks the rest of its probe
// run: a line whose distance from its home reaches back to the hole
// moves into it, leaving a new hole, so every remaining line stays
// reachable from its home without tombstones.
func (t *lineTable) delete(l *Line) {
	mask := len(t.slots) - 1
	hole := t.home(l.Tag)
	for t.slots[hole] != l {
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; t.slots[j] != nil; j = (j + 1) & mask {
		if dist := (j - t.home(t.slots[j].Tag)) & mask; dist >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = nil
	t.n--
}
