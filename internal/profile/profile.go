// Package profile is the simulator's data-centric sharing profiler.
//
// The paper argues clustering entirely through data-structure-level
// sharing behaviour — which structures miss, why, and whether a cluster
// cache can absorb the traffic — yet machine-level counters cannot say
// *which* line or array caused a miss. A Collector attached to a
// core.Machine (via Config.Profile) observes every memory reference and
// every coherence protocol event, classifies each fetch miss in the
// Dubois-style taxonomy:
//
//   - cold: the cluster had never held the line;
//   - replacement: the cluster's copy was displaced by a capacity or
//     conflict eviction (or, in shared-memory clusters, a private cache
//     refilled a line the cluster's attraction memory still held);
//   - true sharing: the copy was invalidated by another cluster's write,
//     and the word now accessed was written since the copy was lost;
//   - false sharing: the copy was invalidated, but only words *other*
//     than the one now accessed were written — traffic manufactured by
//     line granularity alone;
//
// and attributes counts and stall cycles to the named allocator region
// containing the address, to the individual cache line (with
// invalidator→victim pairs), and to the page-placement outcome
// (local-home vs. remote-home fetches per region).
//
// True/false discrimination uses per-word last-writer tracking at
// WordBytes granularity: every store stamps its word with the writing
// cluster and time; an invalidation stamps the victim's loss time; a
// later miss by the victim compares the accessed word's last write
// against the loss. Sub-word false sharing (two bytes of one word) is
// reported as true sharing — the simulator's references are word-sized,
// so the distinction cannot arise from the apps' access streams.
//
// The Collector is a core.Observer, called from the goroutine holding
// the engine's execution token, so it is lock-free.
package profile

import (
	"clustersim/internal/coherence"
	"clustersim/internal/memory"
	"clustersim/internal/stats"
)

// Clock counts simulated cycles (mirrors engine.Clock; both are int64).
type Clock = int64

// WordBytes is the granularity of last-writer tracking. The simulated
// applications issue word-sized references, so one 8-byte word per
// tracked write is exact for them.
const WordBytes = 8

// MissKind is one class of the profiler's miss taxonomy.
type MissKind uint8

const (
	// MissCold is a first-ever fetch of the line by the cluster.
	MissCold MissKind = iota
	// MissReplacement refetches a line lost to eviction.
	MissReplacement
	// MissTrueSharing refetches a line lost to invalidation, where the
	// accessed word was written by another cluster since the loss.
	MissTrueSharing
	// MissFalseSharing refetches a line lost to invalidation, where the
	// accessed word was NOT among those written — a line-granularity
	// artifact.
	MissFalseSharing
)

// String names the miss kind as it appears in reports.
func (k MissKind) String() string {
	switch k {
	case MissCold:
		return "cold"
	case MissReplacement:
		return "replacement"
	case MissTrueSharing:
		return "true-sharing"
	case MissFalseSharing:
		return "false-sharing"
	}
	return "unknown"
}

// ClassCounts tallies misses by taxonomy class.
type ClassCounts struct {
	Cold         uint64 `json:"cold"`
	Replacement  uint64 `json:"replacement"`
	TrueSharing  uint64 `json:"trueSharing"`
	FalseSharing uint64 `json:"falseSharing"`
}

func (c *ClassCounts) add(k MissKind) {
	switch k {
	case MissCold:
		c.Cold++
	case MissReplacement:
		c.Replacement++
	case MissTrueSharing:
		c.TrueSharing++
	case MissFalseSharing:
		c.FalseSharing++
	}
}

// Total returns the sum over all classes.
func (c ClassCounts) Total() uint64 {
	return c.Cold + c.Replacement + c.TrueSharing + c.FalseSharing
}

// Plus returns the class-wise sum.
func (c ClassCounts) Plus(o ClassCounts) ClassCounts {
	return ClassCounts{
		Cold:         c.Cold + o.Cold,
		Replacement:  c.Replacement + o.Replacement,
		TrueSharing:  c.TrueSharing + o.TrueSharing,
		FalseSharing: c.FalseSharing + o.FalseSharing,
	}
}

// StallCycles splits processor stall cycles by the miss class that
// caused them.
type StallCycles struct {
	Cold         Clock `json:"cold"`
	Replacement  Clock `json:"replacement"`
	TrueSharing  Clock `json:"trueSharing"`
	FalseSharing Clock `json:"falseSharing"`
}

func (s *StallCycles) add(k MissKind, cycles Clock) {
	switch k {
	case MissCold:
		s.Cold += cycles
	case MissReplacement:
		s.Replacement += cycles
	case MissTrueSharing:
		s.TrueSharing += cycles
	case MissFalseSharing:
		s.FalseSharing += cycles
	}
}

// Total returns the summed stall cycles.
func (s StallCycles) Total() Clock {
	return s.Cold + s.Replacement + s.TrueSharing + s.FalseSharing
}

// Per-(line, cluster) presence states.
const (
	neverSeen uint8 = iota
	present
	lostReplacement
	lostInvalidation
)

// wordWrite is the last writer of one word of a tracked line.
type wordWrite struct {
	cluster int32
	valid   bool
	at      Clock
}

// pairKey identifies one invalidator→victim relationship on a line.
type pairKey struct {
	writerPE int32 // the processor whose write caused the invalidation
	victim   int32 // the cluster that lost its copy
}

// linePair keys the invalidations of one line by one pair.
type linePair struct {
	line uint64
	pairKey
}

// lineCounts are one line's counters; Reset zeroes them.
type lineCounts struct {
	misses ClassCounts
	stall  Clock
	invals uint64
}

// linePage is the state of one page of lines, indexed by line within
// the page. None of its slices holds a pointer, so the garbage
// collector never scans them.
type linePage struct {
	region []int32      // the region of the line's first event, or unseen
	counts []lineCounts // per line
	state  []uint8      // per line and cluster: presence
	lostAt []Clock      // per line and cluster: when the copy was lost
	words  []wordWrite  // per line and tracked word: the last writer
}

// unseen is the region of a line no event has named yet; a touched
// line holds its region index, or -1 outside every region.
const unseen = -2

// regionAccum accumulates one allocator region's profile.
type regionAccum struct {
	reads, writes, hits uint64
	upgrades, merges    uint64
	misses              ClassCounts
	stalls              StallCycles
	mergeStall          Clock

	// Fetch-service placement: misses served by the page's local home,
	// a remote home, or (shared-memory clusters) inside the cluster.
	localHome, remoteHome, intraCluster uint64
}

// Collector gathers one run's sharing profile. Create one with New,
// attach it via core.Config.Profile, and call Report after the run.
//
// The address space is one bump range from its first page, so a line's
// number locates its state by arithmetic: pages holds one linePage per
// page, counted from the first, allocated on the first event in the
// page. A sparse footprint pays only for the pages it touches, and a
// machine that allocates during Run grows the table as it goes.
type Collector struct {
	as           *memory.AddressSpace
	clusters     int
	lineShift    uint
	lineBytes    uint64
	wordsPerLine int
	wordMask     uint64

	firstLine uint64 // number of the line at the address space's first page
	pageShift uint   // log2 of the lines per page
	pages     []*linePage
	// pairs counts the invalidations since Reset by line and pair; only
	// Invalidated and Report touch it.
	pairs map[linePair]uint64

	regions []regionAccum // indexed by allocation order; grown on demand
	spill   regionAccum   // accesses outside every named region
	started bool
}

// New creates an empty collector.
func New() *Collector { return &Collector{} }

// Attach implements core.Observer: the collector sizes itself for the
// machine before any simulated reference is issued.
func (c *Collector) Attach(as *memory.AddressSpace, sys coherence.MemoryModel, _ []stats.Proc) {
	if c.started {
		panic("profile: Collector reused across runs; create one per run")
	}
	c.started = true
	c.as = as
	c.clusters = as.NumClusters()
	c.lineBytes = sys.LineBytes()
	for 1<<c.lineShift < c.lineBytes {
		c.lineShift++
	}
	c.wordsPerLine = int(c.lineBytes / WordBytes)
	if c.wordsPerLine < 1 {
		c.wordsPerLine = 1
	}
	c.wordMask = uint64(c.wordsPerLine - 1)
	c.firstLine = as.PageBytes() >> c.lineShift
	for c.lineBytes<<(c.pageShift+1) <= as.PageBytes() {
		c.pageShift++
	}
}

// line returns the page holding line num and the line's index in it;
// addr, an address in the line, names the line's region on its first
// event.
func (c *Collector) line(num uint64, addr memory.Addr) (*linePage, int) {
	i := num - c.firstLine
	p, j := i>>c.pageShift, int(i&(1<<c.pageShift-1))
	if p < uint64(len(c.pages)) {
		if pg := c.pages[p]; pg != nil && pg.region[j] != unseen {
			return pg, j
		}
	}
	return c.touch(int(p), j, addr), j
}

// touch is line's path for the first event of line j of page p: the
// page is allocated if it has none, and the line's region is named.
func (c *Collector) touch(p, j int, addr memory.Addr) *linePage {
	if p >= len(c.pages) {
		c.pages = append(c.pages, make([]*linePage, p+1-len(c.pages))...)
	}
	pg := c.pages[p]
	if pg == nil {
		n := 1 << c.pageShift
		pg = &linePage{
			region: make([]int32, n),
			counts: make([]lineCounts, n),
			state:  make([]uint8, n*c.clusters),
			lostAt: make([]Clock, n*c.clusters),
			words:  make([]wordWrite, n*c.wordsPerLine),
		}
		for k := range pg.region {
			pg.region[k] = unseen
		}
		c.pages[p] = pg
	}
	pg.region[j] = -1
	if r, ok := c.as.RegionIndexOf(addr); ok {
		pg.region[j] = int32(r)
	}
	return pg
}

// region returns the accumulator for region index i (-1 = spill).
func (c *Collector) region(i int32) *regionAccum {
	if i < 0 {
		return &c.spill
	}
	for int(i) >= len(c.regions) {
		c.regions = append(c.regions, regionAccum{})
	}
	return &c.regions[i]
}

// word returns the index in a page's words of addr's tracked word,
// addr being in the page's line j.
func (c *Collector) word(j int, addr memory.Addr) int {
	return j*c.wordsPerLine + int((addr/WordBytes)&c.wordMask)
}

// Ref implements core.Observer, recording the outcome of one memory
// reference issued at now. stall is the cycles the issuing processor
// actually stalled (0 for hits, hidden writes, and store-buffered
// write misses).
func (c *Collector) Ref(proc, cluster int, write bool, addr memory.Addr, now Clock, acc coherence.Access, stall Clock) {
	pg, j := c.line(addr>>c.lineShift, addr)
	r := c.region(pg.region[j])
	if write {
		r.writes++
	} else {
		r.reads++
	}
	switch acc.Class {
	case coherence.Hit:
		r.hits++
	case coherence.MergeMiss, coherence.WriteMerge:
		r.merges++
		r.mergeStall += stall
	case coherence.Upgrade:
		r.upgrades++
	case coherence.ReadMiss, coherence.WriteMiss:
		kind := c.classify(pg, j, cluster, addr)
		lc := &pg.counts[j]
		lc.misses.add(kind)
		lc.stall += stall
		r.misses.add(kind)
		r.stalls.add(kind, stall)
		switch acc.Hops {
		case coherence.HopLocalClean, coherence.HopLocalDirty:
			r.localHome++
		case coherence.HopRemoteClean, coherence.HopRemoteDirty:
			r.remoteHome++
		case coherence.HopIntraCluster:
			r.intraCluster++
		}
		pg.state[j*c.clusters+cluster] = present
	}
	if write {
		pg.words[c.word(j, addr)] = wordWrite{cluster: int32(cluster), valid: true, at: now}
	}
}

// classify applies the taxonomy to a fetch miss by cluster at addr, in
// line j of page pg.
func (c *Collector) classify(pg *linePage, j, cluster int, addr memory.Addr) MissKind {
	at := j*c.clusters + cluster
	switch pg.state[at] {
	case neverSeen:
		return MissCold
	case lostInvalidation:
		w := pg.words[c.word(j, addr)]
		if w.valid && int(w.cluster) != cluster && w.at >= pg.lostAt[at] {
			return MissTrueSharing
		}
		return MissFalseSharing
	default:
		// lostReplacement — or, in shared-memory clusters, a private
		// cache refilling a line the attraction memory retained
		// (state still `present` at cluster granularity).
		return MissReplacement
	}
}

// Invalidated implements coherence.Observer: victim cluster's copy of
// line was invalidated at now by a write from writerPE (in
// writerCluster).
func (c *Collector) Invalidated(line uint64, writerPE, writerCluster, victim int, now Clock) {
	pg, j := c.line(line, line<<c.lineShift)
	at := j*c.clusters + victim
	pg.state[at] = lostInvalidation
	pg.lostAt[at] = now
	pg.counts[j].invals++
	if c.pairs == nil {
		c.pairs = make(map[linePair]uint64)
	}
	c.pairs[linePair{line, pairKey{writerPE: int32(writerPE), victim: int32(victim)}}]++
}

// Evicted implements coherence.Observer: cluster's copy of line was
// displaced by a replacement at now.
func (c *Collector) Evicted(line uint64, cluster int, now Clock) {
	pg, j := c.line(line, line<<c.lineShift)
	at := j*c.clusters + cluster
	if pg.state[at] == present {
		pg.state[at] = lostReplacement
		pg.lostAt[at] = now
	}
}

// Reset implements core.Observer: every counter is zeroed while the
// presence and last-writer state is kept — caches stay warm across
// core.Machine.BeginMeasurement, so a line fetched during
// initialization and kept must not look cold in the measured phase.
func (c *Collector) Reset(int, Clock) {
	clear(c.regions)
	c.spill = regionAccum{}
	for _, pg := range c.pages {
		if pg != nil {
			clear(pg.counts)
		}
	}
	c.pairs = nil
}

// The profiler attributes memory traffic only; it ignores the other
// core.Observer events.
func (c *Collector) Place(memory.Addr, uint64, int)              {}
func (c *Collector) Compute(int, Clock, Clock)                   {}
func (c *Collector) DefineSync(int, stats.SyncKind, string, int) {}
func (c *Collector) Sync(int, int, bool, Clock)                  {}
func (c *Collector) SyncWait(int, int, Clock, Clock)             {}
func (c *Collector) End([]Clock)                                 {}
