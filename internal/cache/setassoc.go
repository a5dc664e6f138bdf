// Set-associative cluster caches. The paper's main study deliberately
// uses fully associative caches to exclude conflict misses; its
// conclusions flag "the destructive interference due to limited
// associativity" as the thing to examine next. SetAssoc implements that
// follow-up: a k-way set-associative cache built from per-set LRU/FIFO
// arrays, sharing the Line representation with the fully associative
// Cache so the coherence layer treats both uniformly.
package cache

import "fmt"

// Store is the cluster-cache interface the coherence protocol drives;
// *Cache (fully associative) and *SetAssoc (k-way) both implement it.
type Store interface {
	// Lookup returns the resident line for tag, or nil, settling an
	// expired pending fill first. It does not update recency.
	Lookup(tag uint64, now Clock) *Line
	// Peek returns the resident line for tag without settling pending
	// fills or updating recency (non-mutating; for invariant audits).
	Peek(tag uint64) *Line
	// Touch marks the line most recently used.
	Touch(l *Line)
	// Insert installs a pending fill, evicting a victim if needed.
	Insert(tag uint64, fillState State, now, readyAt Clock) (victim Line, evicted bool)
	// Invalidate removes tag, reporting whether it was resident.
	Invalidate(tag uint64) bool
	// Downgrade moves an Exclusive line (or fill) to Shared.
	Downgrade(tag uint64)
	// Len returns the number of resident lines.
	Len() int
	// ForEach visits every resident line.
	ForEach(fn func(*Line))
}

var (
	_ Store = (*Cache)(nil)
	_ Store = (*SetAssoc)(nil)
)

// SetAssoc is a k-way set-associative cache: capacity/ways sets, each a
// small fully associative array with the configured replacement policy.
// The set index is the low bits of the line number, as in a physical
// cache, so lines that are far apart in the address space can conflict —
// the destructive-interference mechanism the paper defers to future
// work.
type SetAssoc struct {
	sets []*Cache
	mask uint64
}

// NewSetAssoc builds a cache of capacityLines lines organised as
// ways-associative sets. capacityLines must be a positive multiple of
// ways and the set count must be a power of two.
func NewSetAssoc(capacityLines, ways int, policy ReplacePolicy) (*SetAssoc, error) {
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
	sa := &SetAssoc{sets: make([]*Cache, nsets), mask: uint64(nsets - 1)}
	for i := range sa.sets {
		sa.sets[i] = New(ways, policy)
	}
	return sa, nil
}

// Ways returns the associativity.
func (sa *SetAssoc) Ways() int { return sa.sets[0].Capacity() }

// Sets returns the number of sets.
func (sa *SetAssoc) Sets() int { return len(sa.sets) }

func (sa *SetAssoc) set(tag uint64) *Cache { return sa.sets[tag&sa.mask] }

// Lookup finds tag in its set.
func (sa *SetAssoc) Lookup(tag uint64, now Clock) *Line { return sa.set(tag).Lookup(tag, now) }

// Peek finds tag in its set without settling or recency updates.
func (sa *SetAssoc) Peek(tag uint64) *Line { return sa.set(tag).Peek(tag) }

// Touch marks the line most recently used within its set.
func (sa *SetAssoc) Touch(l *Line) { sa.set(l.Tag).Touch(l) }

// Insert installs a pending fill in tag's set, evicting that set's
// LRU/FIFO victim if the set is full.
func (sa *SetAssoc) Insert(tag uint64, fillState State, now, readyAt Clock) (victim Line, evicted bool) {
	return sa.set(tag).Insert(tag, fillState, now, readyAt)
}

// Invalidate removes tag from its set.
func (sa *SetAssoc) Invalidate(tag uint64) bool { return sa.set(tag).Invalidate(tag) }

// Downgrade moves tag's line to Shared.
func (sa *SetAssoc) Downgrade(tag uint64) { sa.set(tag).Downgrade(tag) }

// Len returns the number of resident lines across all sets.
func (sa *SetAssoc) Len() int {
	n := 0
	for _, s := range sa.sets {
		n += s.Len()
	}
	return n
}

// ForEach visits every resident line, set by set.
func (sa *SetAssoc) ForEach(fn func(*Line)) {
	for _, s := range sa.sets {
		s.ForEach(fn)
	}
}
