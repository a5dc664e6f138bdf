// Package telemetry is the simulator's observability layer. A Collector
// attached to a core.Machine (via Config.Telemetry) observes typed
// events from every layer of the stack — per-processor execution-state
// slices, coherence outcomes, synchronisation episodes, and the
// engine's own scheduling metrics — and an interval sampler snapshots
// per-cluster counter deltas on a simulated-cycle grid. Two exporters
// turn a finished collection into artifacts: a Chrome trace-event JSON
// file viewable at ui.perfetto.dev (one track per processor, one
// counter track per cluster cache) and a JSON run manifest that makes
// runs diffable and scriptable.
//
// The paper's whole argument is a story about where cycles go — the
// Figure 2–5 execution-time breakdowns and the Table 1 miss-service
// classes. The collector records exactly those quantities, but resolved
// over virtual time instead of summed at end of run, so phase behaviour
// (a transpose, a tree build, a barrier convoy) is visible directly.
//
// The Collector is a core.Observer, called from the goroutine holding
// the engine's execution token, so it is deliberately lock-free.
package telemetry

import (
	"fmt"
	"slices"

	"clustersim/internal/coherence"
	"clustersim/internal/memory"
	"clustersim/internal/stats"
)

// Clock counts simulated cycles (mirrors engine.Clock without importing
// it; both are int64).
type Clock = int64

// SliceKind classifies one span of a processor's execution time, in the
// paper's four-way breakdown.
type SliceKind uint8

const (
	// SliceCompute is CPU busy time: local work plus reference issue.
	SliceCompute SliceKind = iota
	// SliceLoadStall is read-miss stall time.
	SliceLoadStall
	// SliceMergeStall is stall time merged into another processor's
	// outstanding fill.
	SliceMergeStall
	// SliceSyncWait is barrier, lock and flag wait time.
	SliceSyncWait

	numSliceKinds
)

// String names the slice kind as it appears on trace tracks.
func (k SliceKind) String() string {
	switch k {
	case SliceCompute:
		return "compute"
	case SliceLoadStall:
		return "load-stall"
	case SliceMergeStall:
		return "merge-stall"
	case SliceSyncWait:
		return "sync-wait"
	}
	return fmt.Sprintf("SliceKind(%d)", uint8(k))
}

// Slice is one maximal span of a processor in a single execution state.
// Adjacent same-kind spans are coalesced, so the slices of one
// processor tile its timeline exactly: their durations sum to the
// processor's final virtual time.
type Slice struct {
	Kind  SliceKind
	Start Clock
	Dur   Clock
}

// SyncObject describes one barrier, lock or flag.
type SyncObject struct {
	ID           int
	Kind         stats.SyncKind
	Name         string
	Participants int // barrier width; 0 for locks and flags
}

// SyncEpisode is one processor's wait on one synchronisation object:
// the span from its arrival to its release.
type SyncEpisode struct {
	Proc    int32
	SyncID  int32
	Arrival Clock
	Release Clock
}

// Mark is a named instant on the global timeline (e.g. the start of the
// measured phase).
type Mark struct {
	Name string
	At   Clock
}

// SchedMetrics are the engine scheduler's self-measurements.
type SchedMetrics struct {
	Handoffs      uint64 `json:"handoffs"`      // token handoffs, incl. initial dispatch
	MaxReadyDepth int    `json:"maxReadyDepth"` // peak ready-heap population at a handoff
	depthSum      uint64 // for the mean
	MaxSkew       Clock  `json:"maxQuantumSkew"` // max (yielder clock - resumer clock) at a handoff
}

// MeanReadyDepth returns the average ready-heap population at handoff.
func (s SchedMetrics) MeanReadyDepth() float64 {
	if s.Handoffs == 0 {
		return 0
	}
	return float64(s.depthSum) / float64(s.Handoffs)
}

// peTrack accumulates one processor's timeline, coalescing adjacent
// same-kind spans.
type peTrack struct {
	slices           []Slice
	curKind          SliceKind
	curStart, curEnd Clock
	open             bool
}

func (t *peTrack) add(kind SliceKind, start, dur Clock) {
	if dur <= 0 {
		return
	}
	if t.open && kind == t.curKind && start == t.curEnd {
		t.curEnd += dur
		return
	}
	t.flush()
	t.curKind, t.curStart, t.curEnd, t.open = kind, start, start+dur, true
}

func (t *peTrack) flush() {
	if t.open {
		t.slices = append(t.slices, Slice{Kind: t.curKind, Start: t.curStart, Dur: t.curEnd - t.curStart})
		t.open = false
	}
}

// Collector gathers one run's telemetry. Create one per run with New,
// hand it to the machine via Config.Telemetry, and export after Run
// returns. It implements core.Observer and engine.Probe.
type Collector struct {
	pes      []peTrack
	clusters int

	// The machine's memory system and live per-processor statistics,
	// read (never written) by the interval sampler.
	sys  coherence.MemoryModel
	view []stats.Proc

	syncs    []SyncObject
	episodes []SyncEpisode
	marks    []Mark

	// missCounts[cluster][class][hops] tallies coherence outcomes.
	missCounts [][int(coherence.WriteMerge) + 1][int(coherence.HopIntraCluster) + 1]uint64

	sched SchedMetrics

	// interval sampler state (see sampler.go)
	every, next Clock // sampling period and next deadline; 0 = off
	samples     []Sample
	prev        []ClusterSample // cumulative snapshot at the previous sample

	// onSample, when set, observes each interval sample as it lands
	// (machine-wide counter deltas at a simulated instant); see
	// SetOnSample.
	onSample func(at Clock, total ClusterSample)

	started bool
}

// New creates an empty collector.
func New() *Collector { return &Collector{} }

// SetOnSample registers a callback observing each interval sample as it
// lands: the machine-wide counter deltas over the interval ending at
// simulated time at. The callback runs on the engine's token-holding
// goroutine, so it must be fast and must not touch simulated state —
// it exists to feed wall-clock-side observers (clustersim's -progress
// line and the obs gauges behind its -serve endpoints).
func (c *Collector) SetOnSample(fn func(at Clock, total ClusterSample)) {
	c.onSample = fn
}

// Attach implements core.Observer: it sizes the collector for the
// machine and keeps what the interval sampler reads.
func (c *Collector) Attach(as *memory.AddressSpace, sys coherence.MemoryModel, procs []stats.Proc) {
	if c.started {
		panic("telemetry: Collector reused across runs; create one per run")
	}
	c.started = true
	c.sys, c.view = sys, procs
	c.pes = make([]peTrack, len(procs))
	c.clusters = as.NumClusters()
	c.missCounts = make([][int(coherence.WriteMerge) + 1][int(coherence.HopIntraCluster) + 1]uint64, c.clusters)
	c.prev = make([]ClusterSample, c.clusters)
}

// Slice records dur cycles of processor pe in the given state starting
// at start. Zero-duration slices are dropped; adjacent same-kind slices
// coalesce.
func (c *Collector) Slice(pe int, kind SliceKind, start, dur Clock) {
	c.pes[pe].add(kind, start, dur)
}

// DefineSync announces a synchronisation object before any episode
// references it.
func (c *Collector) DefineSync(id int, kind stats.SyncKind, name string, participants int) {
	c.syncs = append(c.syncs, SyncObject{ID: id, Kind: kind, Name: name, Participants: participants})
}

// SyncWait records one processor's wait episode on a synchronisation
// object and charges the span to its sync-wait track.
func (c *Collector) SyncWait(pe, syncID int, arrival, release Clock) {
	c.episodes = append(c.episodes, SyncEpisode{
		Proc: int32(pe), SyncID: int32(syncID), Arrival: arrival, Release: release})
	c.pes[pe].add(SliceSyncWait, arrival, release-arrival)
}

// Coherence records the outcome of one miss-class event in a cluster.
// Hits are not reported (they are visible in the sampled counters).
func (c *Collector) Coherence(cluster int, class coherence.Class, hops coherence.Hops, at Clock) {
	c.missCounts[cluster][class][hops]++
}

// MarkInstant records a named global instant (e.g. "begin measurement").
func (c *Collector) MarkInstant(name string, at Clock) {
	c.marks = append(c.marks, Mark{Name: name, At: at})
}

// ClosePE flushes processor pe's open slice; End calls it once per
// processor when the run completes.
func (c *Collector) ClosePE(pe int) { c.pes[pe].flush() }

// Ref implements core.Observer: the issue cycle and the stall span go
// on pe's track, a miss-class outcome is tallied for its cluster, and
// the interval sampler fires once the clock crosses its next deadline.
func (c *Collector) Ref(pe, cluster int, _ bool, _ memory.Addr, issue Clock, acc coherence.Access, stall Clock) {
	c.Slice(pe, SliceCompute, issue, 1)
	if stall > 0 {
		kind := SliceLoadStall
		if acc.Class == coherence.MergeMiss {
			kind = SliceMergeStall
		}
		c.Slice(pe, kind, issue+1, stall)
	}
	if acc.Class != coherence.Hit {
		c.Coherence(cluster, acc.Class, acc.Hops, issue)
	}
	if now := issue + 1 + stall; c.next > 0 && now >= c.next {
		c.snapshot(now)
		for c.next <= now {
			c.next += c.every
		}
	}
}

// Compute implements core.Observer.
func (c *Collector) Compute(pe int, start, cycles Clock) { c.Slice(pe, SliceCompute, start, cycles) }

// End implements core.Observer: every track is closed and, when
// sampling, the final partial interval is snapshotted. The collector
// then lets go of the machine, which a kept Result's Config would
// otherwise hold alive through it.
func (c *Collector) End(clocks []Clock) {
	for pe := range c.pes {
		c.ClosePE(pe)
	}
	if c.every > 0 {
		c.snapshot(slices.Max(clocks))
	}
	c.sys, c.view = nil, nil
}

// The timeline needs no placements, sync entries or copy losses; the
// collector ignores these core.Observer events.
func (c *Collector) Place(memory.Addr, uint64, int)           {}
func (c *Collector) Sync(int, int, bool, Clock)               {}
func (c *Collector) Invalidated(uint64, int, int, int, Clock) {}
func (c *Collector) Evicted(uint64, int, Clock)               {}

// Handoff implements engine.Probe.
func (c *Collector) Handoff(from, to int, fromTime, toTime Clock, readyDepth int) {
	c.sched.Handoffs++
	c.sched.depthSum += uint64(readyDepth)
	if readyDepth > c.sched.MaxReadyDepth {
		c.sched.MaxReadyDepth = readyDepth
	}
	if skew := fromTime - toTime; skew > c.sched.MaxSkew {
		c.sched.MaxSkew = skew
	}
}

// Slices returns processor pe's timeline (call after the run).
func (c *Collector) Slices(pe int) []Slice { return c.pes[pe].slices }

// NumPEs returns the number of processor tracks.
func (c *Collector) NumPEs() int { return len(c.pes) }

// NumClusters returns the number of cluster tracks.
func (c *Collector) NumClusters() int { return c.clusters }

// Syncs returns the synchronisation objects seen.
func (c *Collector) Syncs() []SyncObject { return c.syncs }

// Episodes returns all synchronisation wait episodes.
func (c *Collector) Episodes() []SyncEpisode { return c.episodes }

// Marks returns the global instants recorded.
func (c *Collector) Marks() []Mark { return c.marks }

// Sched returns the scheduler self-metrics.
func (c *Collector) Sched() SchedMetrics { return c.sched }

// MissClassTotals sums coherence events machine-wide, keyed
// "class/hops" (e.g. "read-miss/remote-dirty").
func (c *Collector) MissClassTotals() map[string]uint64 {
	out := make(map[string]uint64)
	for cl := range c.missCounts {
		for class := range c.missCounts[cl] {
			for hops, n := range c.missCounts[cl][class] {
				if n == 0 {
					continue
				}
				key := coherence.Class(class).String() + "/" + coherence.Hops(hops).String()
				out[key] += n
			}
		}
	}
	return out
}

// CoherenceEvents returns the total number of coherence events recorded.
func (c *Collector) CoherenceEvents() uint64 {
	var n uint64
	for cl := range c.missCounts {
		for class := range c.missCounts[cl] {
			for _, v := range c.missCounts[cl][class] {
				n += v
			}
		}
	}
	return n
}

// SliceTotals sums one processor's slice durations per kind, indexed by
// SliceKind. Because slices tile the timeline, the four entries sum to
// the processor's final virtual time.
func (c *Collector) SliceTotals(pe int) [4]Clock {
	var out [4]Clock
	for _, s := range c.pes[pe].slices {
		out[s.Kind] += s.Dur
	}
	return out
}
