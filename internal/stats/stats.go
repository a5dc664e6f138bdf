// Package stats defines the execution-time and miss accounting used
// throughout the simulator. Following the paper, each processor's
// execution time is divided into CPU busy time, load stall time, load
// merge stall time (waiting for a line another processor in the cluster
// already prefetched), and synchronization wait time.
package stats

import (
	"fmt"

	"clustersim/internal/coherence"
)

// Breakdown is one processor's execution-time decomposition, in cycles.
type Breakdown struct {
	CPU        int64 // compute plus reference issue cycles
	LoadStall  int64 // read miss stalls
	MergeStall int64 // read stalls merged into an outstanding fill
	SyncWait   int64 // barrier, lock and flag waits
}

// Total returns the sum of all components.
func (b Breakdown) Total() int64 {
	return b.CPU + b.LoadStall + b.MergeStall + b.SyncWait
}

// Plus returns the component-wise sum of two breakdowns.
func (b Breakdown) Plus(o Breakdown) Breakdown {
	return Breakdown{
		CPU:        b.CPU + o.CPU,
		LoadStall:  b.LoadStall + o.LoadStall,
		MergeStall: b.MergeStall + o.MergeStall,
		SyncWait:   b.SyncWait + o.SyncWait,
	}
}

// Minus returns the component-wise difference b - o: the exact inverse
// of Plus, so interval deltas taken between two cumulative snapshots
// tile the whole (the critical-path analyzer's phase invariant).
func (b Breakdown) Minus(o Breakdown) Breakdown {
	return Breakdown{
		CPU:        b.CPU - o.CPU,
		LoadStall:  b.LoadStall - o.LoadStall,
		MergeStall: b.MergeStall - o.MergeStall,
		SyncWait:   b.SyncWait - o.SyncWait,
	}
}

// SyncKind classifies a synchronisation object. Waits on all three
// kinds are charged alike to SyncWait; observers report them apart.
type SyncKind uint8

const (
	SyncBarrier SyncKind = iota
	SyncLock
	SyncFlag
)

// String names the kind as reports print it.
func (k SyncKind) String() string {
	switch k {
	case SyncBarrier:
		return "barrier"
	case SyncLock:
		return "lock"
	case SyncFlag:
		return "flag"
	}
	return fmt.Sprintf("SyncKind(%d)", uint8(k))
}

// Counters tallies memory references by outcome.
type Counters struct {
	Reads  uint64
	Writes uint64

	ReadHits    uint64
	WriteHits   uint64
	ReadMisses  uint64
	WriteMisses uint64
	Upgrades    uint64
	Merges      uint64
	WriteMerges uint64

	// Service location of read and write misses (paper Table 1 rows,
	// plus the snoopy-bus services of shared-memory clusters).
	LocalClean   uint64
	LocalDirty   uint64
	RemoteClean  uint64
	RemoteDirty  uint64
	IntraCluster uint64
}

// Misses returns the fetch misses (read + write) — the population the
// sharing profiler (internal/profile) classifies, so a profile's
// class totals must sum to exactly this over the same interval.
func (c Counters) Misses() uint64 { return c.ReadMisses + c.WriteMisses }

// Plus returns the field-wise sum of two counter sets.
func (c Counters) Plus(o Counters) Counters {
	return Counters{
		Reads:        c.Reads + o.Reads,
		Writes:       c.Writes + o.Writes,
		ReadHits:     c.ReadHits + o.ReadHits,
		WriteHits:    c.WriteHits + o.WriteHits,
		ReadMisses:   c.ReadMisses + o.ReadMisses,
		WriteMisses:  c.WriteMisses + o.WriteMisses,
		Upgrades:     c.Upgrades + o.Upgrades,
		Merges:       c.Merges + o.Merges,
		WriteMerges:  c.WriteMerges + o.WriteMerges,
		LocalClean:   c.LocalClean + o.LocalClean,
		LocalDirty:   c.LocalDirty + o.LocalDirty,
		RemoteClean:  c.RemoteClean + o.RemoteClean,
		RemoteDirty:  c.RemoteDirty + o.RemoteDirty,
		IntraCluster: c.IntraCluster + o.IntraCluster,
	}
}

// Minus returns the field-wise difference c - o: the exact inverse of
// Plus, pairing cumulative-counter snapshots into interval deltas (the
// telemetry sampler and the critical-path analyzer's phase snapshots).
func (c Counters) Minus(o Counters) Counters {
	return Counters{
		Reads:        c.Reads - o.Reads,
		Writes:       c.Writes - o.Writes,
		ReadHits:     c.ReadHits - o.ReadHits,
		WriteHits:    c.WriteHits - o.WriteHits,
		ReadMisses:   c.ReadMisses - o.ReadMisses,
		WriteMisses:  c.WriteMisses - o.WriteMisses,
		Upgrades:     c.Upgrades - o.Upgrades,
		Merges:       c.Merges - o.Merges,
		WriteMerges:  c.WriteMerges - o.WriteMerges,
		LocalClean:   c.LocalClean - o.LocalClean,
		LocalDirty:   c.LocalDirty - o.LocalDirty,
		RemoteClean:  c.RemoteClean - o.RemoteClean,
		RemoteDirty:  c.RemoteDirty - o.RemoteDirty,
		IntraCluster: c.IntraCluster - o.IntraCluster,
	}
}

// CountRead records the outcome of one read access.
func (c *Counters) CountRead(a coherence.Access) {
	c.Reads++
	switch a.Class {
	case coherence.Hit:
		c.ReadHits++
	case coherence.ReadMiss:
		c.ReadMisses++
		c.countHops(a.Hops)
	case coherence.MergeMiss:
		c.Merges++
	}
}

// CountWrite records the outcome of a write access.
func (c *Counters) CountWrite(a coherence.Access) {
	c.Writes++
	switch a.Class {
	case coherence.Hit:
		c.WriteHits++
	case coherence.WriteMiss:
		c.WriteMisses++
		c.countHops(a.Hops)
	case coherence.Upgrade:
		c.Upgrades++
	case coherence.WriteMerge:
		c.WriteMerges++
	}
}

func (c *Counters) countHops(h coherence.Hops) {
	switch h {
	case coherence.HopLocalClean:
		c.LocalClean++
	case coherence.HopLocalDirty:
		c.LocalDirty++
	case coherence.HopRemoteClean:
		c.RemoteClean++
	case coherence.HopRemoteDirty:
		c.RemoteDirty++
	case coherence.HopIntraCluster:
		c.IntraCluster++
	}
}

// References returns the total number of memory references.
func (c Counters) References() uint64 { return c.Reads + c.Writes }

// ReadMissRate returns read misses (including merges) per read.
func (c Counters) ReadMissRate() float64 {
	if c.Reads == 0 {
		return 0
	}
	return float64(c.ReadMisses+c.Merges) / float64(c.Reads)
}

// WriteMissRate returns write misses (including write merges) per
// write, mirroring ReadMissRate. Upgrades are excluded: the line was
// present, only ownership was missing.
func (c Counters) WriteMissRate() float64 {
	if c.Writes == 0 {
		return 0
	}
	return float64(c.WriteMisses+c.WriteMerges) / float64(c.Writes)
}

// MergeRate returns merged references (read and write) per reference —
// the cluster-prefetching overlap the paper's merge-stall component
// measures the cost of.
func (c Counters) MergeRate() float64 {
	refs := c.References()
	if refs == 0 {
		return 0
	}
	return float64(c.Merges+c.WriteMerges) / float64(refs)
}

// Proc is the complete per-processor record.
type Proc struct {
	Breakdown
	Counters
}

// Plus returns the sum of two per-processor records.
func (p Proc) Plus(o Proc) Proc {
	return Proc{Breakdown: p.Breakdown.Plus(o.Breakdown), Counters: p.Counters.Plus(o.Counters)}
}

// Minus returns the difference of two per-processor records.
func (p Proc) Minus(o Proc) Proc {
	return Proc{Breakdown: p.Breakdown.Minus(o.Breakdown), Counters: p.Counters.Minus(o.Counters)}
}
