package telemetry

import (
	"clustersim/internal/coherence"
	"clustersim/internal/stats"
)

// DefaultInterval is the sampling period used when interval sampling is
// requested without a usable period: one million simulated cycles, fine
// enough to resolve phase behaviour in the paper's runs yet coarse
// enough that the series stays small.
const DefaultInterval Clock = 1_000_000

// SampleInterval normalises a requested sampling period. Zero and
// negative requests fall back to DefaultInterval — per-cycle sampling
// from a degenerate interval would swamp the run with samples.
func SampleInterval(requested Clock) Clock {
	if requested <= 0 {
		return DefaultInterval
	}
	return requested
}

// ClusterSample is one cluster's counters at (or over) a point in
// simulated time: the reference counters summed over the cluster's
// processors plus the cluster's protocol counters.
type ClusterSample struct {
	Refs stats.Counters
	Coh  coherence.Stats
}

func (a ClusterSample) minus(b ClusterSample) ClusterSample {
	return ClusterSample{
		Refs: a.Refs.Minus(b.Refs),
		Coh: coherence.Stats{
			InvalidationsSent:     a.Coh.InvalidationsSent - b.Coh.InvalidationsSent,
			InvalidationsReceived: a.Coh.InvalidationsReceived - b.Coh.InvalidationsReceived,
			ReplacementHints:      a.Coh.ReplacementHints - b.Coh.ReplacementHints,
			Writebacks:            a.Coh.Writebacks - b.Coh.Writebacks,
		},
	}
}

// Sample is the per-cluster counter *deltas* accumulated over one
// sampling interval ending at At.
type Sample struct {
	At       Clock
	Clusters []ClusterSample
}

// Total sums the sample's per-cluster reference deltas.
func (s Sample) Total() ClusterSample {
	var t ClusterSample
	for _, c := range s.Clusters {
		t.Refs = t.Refs.Plus(c.Refs)
		t.Coh.InvalidationsSent += c.Coh.InvalidationsSent
		t.Coh.InvalidationsReceived += c.Coh.InvalidationsReceived
		t.Coh.ReplacementHints += c.Coh.ReplacementHints
		t.Coh.Writebacks += c.Coh.Writebacks
	}
	return t
}

// SetSampleEvery turns on interval sampling: per-cluster counter
// deltas every `every` simulated cycles (0 leaves sampling off).
// core.NewMachine passes Config.SampleEvery.
func (c *Collector) SetSampleEvery(every Clock) {
	c.every, c.next = every, every
}

// snapshot sums the machine's cumulative per-cluster counters at
// simulated time at and hands them to Sample.
func (c *Collector) snapshot(at Clock) {
	cum := make([]ClusterSample, c.clusters)
	per := len(c.view) / c.clusters
	for pe := range c.view {
		cum[pe/per].Refs = cum[pe/per].Refs.Plus(c.view[pe].Counters)
	}
	for cl := range cum {
		cum[cl].Coh = c.sys.ClusterStats(cl)
	}
	c.Sample(at, cum)
}

// Sample snapshots the *cumulative* per-cluster counters at simulated
// time at; the collector stores the delta against the previous
// snapshot. The collector drives this on its SetSampleEvery grid.
func (c *Collector) Sample(at Clock, cumulative []ClusterSample) {
	s := Sample{At: at, Clusters: make([]ClusterSample, len(cumulative))}
	for i, cur := range cumulative {
		s.Clusters[i] = cur.minus(c.prev[i])
		c.prev[i] = cur
	}
	c.samples = append(c.samples, s)
	if c.onSample != nil {
		c.onSample(at, s.Total())
	}
}

// Reset implements core.Observer: the machine's counters were zeroed
// (BeginMeasurement), so the sampler's next delta baselines at zero
// instead of underflowing, and the instant is marked.
func (c *Collector) Reset(_ int, at Clock) {
	for i := range c.prev {
		c.prev[i] = ClusterSample{}
	}
	c.MarkInstant("begin measurement", at)
}

// Samples returns the recorded interval series.
func (c *Collector) Samples() []Sample { return c.samples }
