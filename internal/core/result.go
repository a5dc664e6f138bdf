package core

import (
	"fmt"
	"io"

	"clustersim/internal/coherence"
	"clustersim/internal/memory"
	"clustersim/internal/stats"
	"clustersim/internal/telemetry"
)

// Result is the outcome of one simulation run.
type Result struct {
	// Config is the configuration that ran, less its instruments: the
	// observer fields and SampleEvery are zero, so a kept Result keeps
	// no collector alive. Both are outside the JSON and the config hash.
	Config    Config
	ExecTime  Clock // completion time of the slowest processor
	Procs     []stats.Proc
	Finish    []Clock // per-processor completion time (same origin as ExecTime)
	Clusters  []coherence.Stats
	Footprint uint64 // bytes of simulated memory allocated

	// Allocations is the named-region table of the run's address space,
	// in allocation order — the map from addresses back to the data
	// structures the application declared.
	Allocations []memory.Region `json:",omitempty"`
}

// MemoryReport builds the run manifest's address-space block from the
// run's footprint and named-region table.
func (r *Result) MemoryReport() *telemetry.MemoryReport {
	m := &telemetry.MemoryReport{FootprintBytes: r.Footprint}
	for _, reg := range r.Allocations {
		m.Regions = append(m.Regions, telemetry.RegionInfo{Name: reg.Name, Base: reg.Base, Size: reg.Size})
	}
	return m
}

// Aggregate sums the per-processor records.
func (r *Result) Aggregate() stats.Proc {
	var total stats.Proc
	for _, p := range r.Procs {
		total = total.Plus(p)
	}
	return total
}

// Fractions returns each breakdown component as a fraction of the summed
// per-processor time, in the paper's order: CPU, load, merge, sync. The
// paper's figures scale these fractions by the normalised execution time.
func (r *Result) Fractions() (cpu, load, merge, sync float64) {
	a := r.Aggregate().Breakdown
	t := float64(a.Total())
	if t == 0 {
		return 0, 0, 0, 0
	}
	return float64(a.CPU) / t, float64(a.LoadStall) / t,
		float64(a.MergeStall) / t, float64(a.SyncWait) / t
}

// NormalizedBar expresses this run as a stacked bar of the paper's
// figures: the total height is 100 × ExecTime/base.ExecTime, split into
// CPU, load-stall, merge-stall and sync components.
type NormalizedBar struct {
	Total, CPU, Load, Merge, Sync float64
}

// Normalize builds the stacked bar of this result against a baseline run
// (the one-processor-per-cluster configuration in the paper's figures).
// A zero-ExecTime baseline (a degenerate run, e.g. an empty kernel)
// yields a zero bar rather than ±Inf/NaN components.
func (r *Result) Normalize(base *Result) NormalizedBar {
	if base.ExecTime == 0 {
		return NormalizedBar{}
	}
	h := 100 * float64(r.ExecTime) / float64(base.ExecTime)
	cpu, load, merge, sync := r.Fractions()
	return NormalizedBar{
		Total: h,
		CPU:   h * cpu,
		Load:  h * load,
		Merge: h * merge,
		Sync:  h * sync,
	}
}

// TotalInvalidations sums invalidation messages across clusters.
func (r *Result) TotalInvalidations() uint64 {
	var n uint64
	for _, c := range r.Clusters {
		n += c.InvalidationsSent
	}
	return n
}

// WriteSummary prints a human-readable report of the run.
func (r *Result) WriteSummary(w io.Writer) {
	a := r.Aggregate()
	cpu, load, merge, sync := r.Fractions()
	fmt.Fprintf(w, "procs=%d cluster=%d cache/proc=%s line=%dB\n",
		r.Config.Procs, r.Config.ClusterSize, cacheLabel(r.Config.CacheKBPerProc), r.Config.LineBytes)
	fmt.Fprintf(w, "  exec time       %12d cycles\n", r.ExecTime)
	fmt.Fprintf(w, "  breakdown       cpu %.1f%%  load %.1f%%  merge %.1f%%  sync %.1f%%\n",
		100*cpu, 100*load, 100*merge, 100*sync)
	fmt.Fprintf(w, "  references      %12d (%d reads, %d writes)\n",
		a.References(), a.Reads, a.Writes)
	fmt.Fprintf(w, "  read misses     %12d + %d merges (%.3f%% of reads)\n",
		a.ReadMisses, a.Merges, 100*a.ReadMissRate())
	fmt.Fprintf(w, "  write misses    %12d + %d merges (%.3f%% of writes), upgrades %d\n",
		a.WriteMisses, a.WriteMerges, 100*a.WriteMissRate(), a.Upgrades)
	fmt.Fprintf(w, "  merge rate      %.3f%% of references\n", 100*a.MergeRate())
	fmt.Fprintf(w, "  miss service    local-clean %d  local-dirty %d  remote-clean %d  remote-dirty %d\n",
		a.LocalClean, a.LocalDirty, a.RemoteClean, a.RemoteDirty)
	fmt.Fprintf(w, "  invalidations   %12d\n", r.TotalInvalidations())
	if r.Config.Faults != nil {
		// Only faulted runs print this line, keeping fault-free output
		// byte-identical to builds that predate the fault layer.
		var nacks, acks, cycles uint64
		for _, st := range r.Clusters {
			nacks += st.Nacks
			acks += st.AckDelays
			cycles += st.FaultCycles
		}
		fmt.Fprintf(w, "  faults          nacks %d  ack-delays %d  injected %d cycles (seed %d)\n",
			nacks, acks, cycles, r.Config.Faults.Seed)
	}
	fmt.Fprintf(w, "  footprint       %12d bytes\n", r.Footprint)
}

func cacheLabel(kb int) string {
	if kb == 0 {
		return "inf"
	}
	return fmt.Sprintf("%dKB", kb)
}
