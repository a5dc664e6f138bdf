// Package core is the public face of the clustered-multiprocessor
// simulator: it assembles the discrete-event engine, the shared address
// space, the cluster caches, the directory and the coherence protocol
// into a Machine that runs application kernels and reports the paper's
// execution-time breakdowns.
//
// A typical use:
//
//	cfg := core.DefaultConfig()
//	cfg.ClusterSize = 4
//	m, _ := core.NewMachine(cfg)
//	data := m.Alloc(1<<20, "grid")
//	bar := m.NewBarrier()
//	res, _ := m.Run(func(p *core.Proc) {
//		p.Read(data + uint64(p.ID())*64)
//		bar.Wait(p)
//	})
//	fmt.Println(res.ExecTime, res.Aggregate().Breakdown)
package core

import (
	"fmt"

	"clustersim/internal/cache"
	"clustersim/internal/coherence"
	"clustersim/internal/critpath"
	"clustersim/internal/fault"
	"clustersim/internal/memory"
	"clustersim/internal/perf"
	"clustersim/internal/profile"
	"clustersim/internal/telemetry"
)

// Clock counts simulated cycles.
type Clock = int64

// Addr is a simulated virtual address.
type Addr = uint64

// Organization selects which of the paper's two cluster types (Section
// 2) the machine uses.
type Organization uint8

const (
	// SharedCache is the paper's main configuration: the processors of a
	// cluster share one cache backed by distributed memory.
	SharedCache Organization = iota
	// SharedMemory is the paper's second organisation: each processor
	// keeps a private cache and the cluster's processors share an
	// effectively infinite attraction memory over a snoopy bus (flat
	// COMA style).
	SharedMemory
)

// String names the cluster organisation.
func (o Organization) String() string {
	if o == SharedMemory {
		return "shared-memory"
	}
	return "shared-cache"
}

// Config describes one machine organisation. The paper's study fixes the
// total processor count (64) and the total cache budget, and varies the
// number of processors sharing each cluster cache.
type Config struct {
	// Procs is the total number of processors (the paper uses 64).
	Procs int

	// ClusterSize is the number of processors sharing one cluster cache
	// (the paper studies 1, 2, 4 and 8). Must divide Procs, with at most
	// 64 clusters.
	ClusterSize int

	// CacheKBPerProc sizes each cluster cache at ClusterSize × this many
	// kilobytes, keeping the machine's total cache budget fixed across
	// cluster sizes as in the paper (4, 16 or 32). 0 means infinite.
	CacheKBPerProc int

	// LineBytes is the coherence granularity (the paper uses 64).
	LineBytes uint64

	// PageBytes is the placement granularity for round-robin first-touch
	// homing (default 4096).
	PageBytes uint64

	// Latencies are the Table 1 miss latencies.
	Latencies coherence.Latencies

	// Policy selects the replacement policy of the cluster caches; the
	// paper uses LRU. FIFO exists for ablations.
	Policy cache.ReplacePolicy

	// Assoc is the cluster caches' associativity: 0 (the default) is the
	// paper's fully associative configuration; k > 0 builds k-way
	// set-associative caches, the limited-associativity study the paper
	// defers to future work. Requires a finite cache whose line count is
	// a power-of-two multiple of k.
	Assoc int

	// Quantum is the event-ordering slack of the engine, in cycles.
	// 0 (the default) gives exact ordering; larger values speed up big
	// parameter sweeps with bounded timing skew.
	Quantum Clock

	// Placement selects the page-placement policy (ablation knob); the
	// paper uses round-robin first touch.
	Placement memory.PlacementPolicy

	// DisableReplacementHints suppresses the directory's replacement
	// hints (ablation knob): stale sharer bits cause spurious
	// invalidations.
	DisableReplacementHints bool

	// Organization selects shared-cache clusters (the default, the
	// paper's main study) or shared-main-memory clusters (Section 2's
	// second type). Under SharedMemory, CacheKBPerProc sizes each
	// processor's private cache and the cluster's attraction memory is
	// infinite.
	Organization Organization

	// BusCycles is the intra-cluster snoopy-bus transfer latency of the
	// SharedMemory organisation (default 15).
	BusCycles Clock

	// The observer fields below attach the instruments NewMachine fans
	// events out to (see Observer). Observers are read-only, so every
	// one is excluded from the JSON manifest and the config hash, and an
	// observed run's Result is byte-identical to an unobserved one.

	// Tracer, when non-nil, is attached as an extra observer; the trace
	// package's Collector records the event stream for replay there.
	Tracer Tracer `json:"-"`

	// Telemetry collects per-processor execution-state slices,
	// coherence events, sync episodes and scheduler self-metrics (see
	// the telemetry package).
	Telemetry *telemetry.Collector `json:"-"`

	// Profile classifies misses cold / replacement / true-sharing /
	// false-sharing and attributes them to allocator regions, hot lines
	// and page homes (see the profile package).
	Profile *profile.Collector `json:"-"`

	// Perf attributes host wall-clock time to application compute,
	// engine scheduling and the coherence protocol, and reports
	// throughput and Go runtime health (see the perf package).
	Perf *perf.Monitor `json:"-"`

	// Critpath segments the run into barrier-delimited phases and
	// attributes barrier imbalance, lock contention and the critical
	// path (see the critpath package).
	Critpath *critpath.Analyzer `json:"-"`

	// SampleEvery, when positive and Telemetry is attached, snapshots
	// per-cluster counter deltas every SampleEvery simulated cycles
	// into the collector's time series.
	SampleEvery Clock `json:"-"`

	// Sanitize attaches the runtime sanitizer: after every coherence
	// transaction the directory's sharer vector is cross-validated
	// against the touched line's cache states, issue times are checked
	// for per-processor and global virtual-time monotonicity, and a full
	// machine audit runs periodically and at the end of the run. A
	// violation panics with a replayable transaction dump. Requires
	// Quantum 0 (the global monotonicity guarantee quanta trade away).
	Sanitize bool `json:"-"`

	// BlockingWrites makes stores stall for their fetch latency —
	// disabling the paper's assumption that "the latency of WRITE and
	// UPGRADE misses could be completely hidden by store buffers and a
	// relaxed consistency model". Ablation knob.
	BlockingWrites bool

	// Faults, when non-nil, attaches the deterministic fault plan (see
	// the fault package): directory-busy NACKs with bounded virtual-time
	// retry, straggling invalidation acknowledgements and remote-hop
	// jitter. A nil plan is omitted from the JSON manifest and the
	// config hash, so runs without fault injection stay byte-identical
	// to builds that predate the fault layer.
	Faults *fault.Config `json:",omitempty"`

	// Label names the running application for crash diagnostics (engine
	// panics are annotated with it). Purely descriptive, so it is
	// excluded from the manifest and the config hash.
	Label string `json:"-"`
}

// HashExcludedFields names every Config field excluded from the JSON
// manifest and therefore from the config hash (telemetry.HashConfig).
// The simlint hashexclude rule keeps this set and the json:"-" struct
// tags above in lockstep at compile time; TestHashExclusionContract
// cross-checks it by reflection at run time. Faults is deliberately
// absent: its `json:",omitempty"` tag opts a non-nil fault plan INTO
// the hash while keeping plan-free runs byte-identical to old builds.
var HashExcludedFields = []string{
	"Tracer",
	"Telemetry",
	"Profile",
	"Perf",
	"Critpath",
	"SampleEvery",
	"Sanitize",
	"Label",
}

// DefaultConfig returns the paper's baseline machine: 64 processors,
// unclustered, infinite caches, 64-byte lines, Table 1 latencies.
func DefaultConfig() Config {
	return Config{
		Procs:          64,
		ClusterSize:    1,
		CacheKBPerProc: 0,
		LineBytes:      64,
		PageBytes:      4096,
		Latencies:      coherence.DefaultLatencies(),
		Policy:         cache.LRU,
	}
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	if c.Procs <= 0 {
		return fmt.Errorf("core: Procs %d must be positive", c.Procs)
	}
	if c.ClusterSize <= 0 {
		return fmt.Errorf("core: ClusterSize %d must be positive", c.ClusterSize)
	}
	if c.Procs%c.ClusterSize != 0 {
		return fmt.Errorf("core: ClusterSize %d must divide Procs %d", c.ClusterSize, c.Procs)
	}
	if n := c.Procs / c.ClusterSize; n > 64 {
		return fmt.Errorf("core: %d clusters exceed the directory's 64-bit sharer vector", n)
	}
	if c.CacheKBPerProc < 0 {
		return fmt.Errorf("core: negative cache size")
	}
	if c.LineBytes == 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("core: LineBytes %d must be a power of two", c.LineBytes)
	}
	if c.PageBytes == 0 || c.PageBytes&(c.PageBytes-1) != 0 {
		return fmt.Errorf("core: PageBytes %d must be a power of two", c.PageBytes)
	}
	if c.CacheKBPerProc > 0 {
		clusterBytes := uint64(c.CacheKBPerProc) * 1024 * uint64(c.ClusterSize)
		if clusterBytes < c.LineBytes {
			return fmt.Errorf("core: cluster cache of %d bytes smaller than one line", clusterBytes)
		}
	}
	if c.Quantum < 0 {
		return fmt.Errorf("core: negative Quantum")
	}
	if c.SampleEvery < 0 {
		return fmt.Errorf("core: negative SampleEvery")
	}
	if c.SampleEvery > 0 && c.Telemetry == nil {
		return fmt.Errorf("core: SampleEvery set without a Telemetry collector")
	}
	if c.Sanitize && c.Quantum > 0 {
		return fmt.Errorf("core: Sanitize requires exact event ordering, but Quantum is %d; "+
			"quanta permit bounded timing skew that breaks the sanitizer's global monotonicity invariant", c.Quantum)
	}
	if c.BusCycles < 0 {
		return fmt.Errorf("core: negative BusCycles")
	}
	if c.Assoc < 0 {
		return fmt.Errorf("core: negative associativity")
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	if c.Assoc > 0 {
		lines := c.CacheLinesPerCluster()
		if c.Organization == SharedMemory {
			lines = c.CacheLinesPerProc()
		}
		if lines == 0 {
			return fmt.Errorf("core: set-associative caches need a finite cache size")
		}
		if lines%c.Assoc != 0 {
			return fmt.Errorf("core: %d lines not divisible into %d-way sets", lines, c.Assoc)
		}
		if sets := lines / c.Assoc; sets&(sets-1) != 0 {
			return fmt.Errorf("core: %d sets is not a power of two", lines/c.Assoc)
		}
	}
	return nil
}

// NumClusters returns the number of cluster caches.
func (c Config) NumClusters() int { return c.Procs / c.ClusterSize }

// CacheLinesPerCluster returns each cluster cache's capacity in lines
// (0 = infinite).
func (c Config) CacheLinesPerCluster() int {
	if c.CacheKBPerProc == 0 {
		return 0
	}
	return int(uint64(c.CacheKBPerProc) * 1024 * uint64(c.ClusterSize) / c.LineBytes)
}

// CacheLinesPerProc returns each processor's private-cache capacity in
// lines under the SharedMemory organisation (0 = infinite).
func (c Config) CacheLinesPerProc() int {
	if c.CacheKBPerProc == 0 {
		return 0
	}
	return int(uint64(c.CacheKBPerProc) * 1024 / c.LineBytes)
}

// ClusterOf returns the cluster of a processor. Processors with adjacent
// IDs share a cluster, matching the paper's partitioning assumption that
// "processors are assigned to adjacent subgrids in the same row".
func (c Config) ClusterOf(proc int) int { return proc / c.ClusterSize }
