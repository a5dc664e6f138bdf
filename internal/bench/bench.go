// Package bench is the machine-readable benchmark harness: it runs the
// fixed simulation matrix of the repo's Go benchmarks (bench_test.go)
// Passes times, as whole passes, with the host performance monitor
// attached to every point, and reports per-benchmark wall time (the
// median pass, with the quartiles), simulated cycles, throughput,
// allocations (the median) and phase attribution as a
// BENCH_<stamp>.json document.
//
// The report splits metrics into two classes. Deterministic counters —
// simulated cycles, engine handoffs, memory references, point counts —
// must reproduce exactly; Compare treats any drift as a regression,
// which is what the CI gate runs against bench_baseline.json. All but
// handoffs are a function of the simulation alone; handoffs counts
// kernel suspensions to the engine's dispatch loop, so it also moves
// when the engine's mechanism does (run-ahead suspends once per buffer,
// not once per reference). Wall-clock metrics (ns, cycles/sec)
// vary with the host and are reported for trajectory, never gated.
// Allocations sit in between: near-deterministic, gated with a relative
// tolerance.
package bench

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"

	"clustersim/internal/apps"
	"clustersim/internal/apps/registry"
	"clustersim/internal/core"
	"clustersim/internal/experiments"
	"clustersim/internal/perf"
)

// Spec is one named benchmark: a fixed sweep of simulation points
// measured as a unit, mirroring one sub-benchmark of bench_test.go.
type Spec struct {
	Name     string
	App      string
	Clusters []int
	CachesKB []int
}

// Points returns how many simulation runs the spec covers.
func (s Spec) Points() int { return len(s.Clusters) * len(s.CachesKB) }

// finiteApps are the finite-capacity figure applications (Figures 4-8),
// matching BenchmarkFig4..BenchmarkFig8.
var finiteApps = []string{"raytrace", "mp3d", "barnes", "fmm", "volrend"}

// DefaultSpecs is the harness's fixed matrix, mirroring bench_test.go:
// every Figure 2 panel (infinite caches across cluster sizes) and every
// finite-capacity figure (cache sizes × cluster sizes).
func DefaultSpecs() []Spec {
	var specs []Spec
	for _, app := range experiments.Fig2Apps {
		specs = append(specs, Spec{
			Name:     "fig2/" + app,
			App:      app,
			Clusters: experiments.ClusterSizes,
			CachesKB: []int{0},
		})
	}
	for _, app := range finiteApps {
		specs = append(specs, Spec{
			Name:     "finite/" + app,
			App:      app,
			Clusters: experiments.ClusterSizes,
			CachesKB: experiments.FiniteCachesKB,
		})
	}
	return specs
}

// FilterApps keeps only the specs whose application is in keep (nil
// keeps everything). Order is preserved.
func FilterApps(specs []Spec, keep []string) []Spec {
	if len(keep) == 0 {
		return specs
	}
	want := make(map[string]bool, len(keep))
	for _, a := range keep {
		want[a] = true
	}
	var out []Spec
	for _, s := range specs {
		if want[s.App] {
			out = append(out, s)
		}
	}
	return out
}

// Options configures one harness run.
type Options struct {
	// Procs is the simulated machine size (the repo's Go benchmarks use
	// 16).
	Procs int
	// Size selects the problem scale (the Go benchmarks use
	// apps.SizeTest).
	Size apps.Size
	// Progress, when non-nil, receives a one-line report per finished
	// benchmark (typically os.Stderr).
	Progress io.Writer
}

// Measurement is one benchmark's aggregate over its simulation points.
// SimCycles, Handoffs, Refs and Points are deterministic and equal in
// every pass; WallNS, CyclesPerSec, EventsPerSec and Phases are
// host-dependent and come from the pass with the median wall time,
// whose quartiles over the passes are WallQ1NS and WallQ3NS (zero in
// reports written before the harness repeated passes); Allocs and
// AllocBytes are near-deterministic, each the median over the passes.
type Measurement struct {
	Name         string              `json:"name"`
	Points       int                 `json:"points"`
	WallNS       int64               `json:"wallNs"`
	WallQ1NS     int64               `json:"wallQ1Ns,omitempty"`
	WallQ3NS     int64               `json:"wallQ3Ns,omitempty"`
	SimCycles    int64               `json:"simCycles"`
	CyclesPerSec float64             `json:"cyclesPerSec"`
	Handoffs     uint64              `json:"handoffs"`
	Refs         uint64              `json:"refs"`
	EventsPerSec float64             `json:"eventsPerSec"`
	Allocs       uint64              `json:"allocs"`
	AllocBytes   uint64              `json:"allocBytes"`
	Phases       perf.PhaseBreakdown `json:"phases"`
}

// Passes is how many times Run measures the whole matrix. One pass's
// wall times spread up to 38% on a shared 2-vCPU host; the median of
// five, with its quartiles, says how far a difference stands out of
// that spread.
const Passes = 5

// ErrNotRepeatable marks a deterministic counter (points, simulated
// cycles, handoffs, refs) that differed between two passes.
var ErrNotRepeatable = errors.New("bench: deterministic counter differs between passes")

// Run measures every spec Passes times, as whole passes over the
// matrix, and aggregates each benchmark over the passes (see
// Measurement). It fails with ErrNotRepeatable when a deterministic
// counter differs between passes.
func Run(specs []Spec, opt Options) ([]Measurement, error) {
	passes := make([][]Measurement, Passes)
	for i := range passes {
		ms, err := runPass(specs, opt)
		if err != nil {
			return nil, err
		}
		passes[i] = ms
		if opt.Progress != nil {
			fmt.Fprintf(opt.Progress, "bench: pass %d/%d done\n", i+1, Passes)
		}
	}
	out, err := aggregate(passes)
	if err != nil {
		return nil, err
	}
	if opt.Progress != nil {
		for _, m := range out {
			fmt.Fprintf(opt.Progress, "bench: %-18s %2d points  %8.1f ms [%.1f-%.1f]  %12d simcycles  %.3g cycles/s\n",
				m.Name, m.Points, float64(m.WallNS)/1e6, float64(m.WallQ1NS)/1e6, float64(m.WallQ3NS)/1e6,
				m.SimCycles, m.CyclesPerSec)
		}
	}
	return out, nil
}

// runPass executes every spec once per point and aggregates the
// per-point monitor reports. Points within a spec run back to back,
// each on a fresh machine with its own monitor, exactly as the Go
// benchmarks do.
func runPass(specs []Spec, opt Options) ([]Measurement, error) {
	out := make([]Measurement, 0, len(specs))
	for _, spec := range specs {
		w, err := registry.Lookup(spec.App)
		if err != nil {
			return nil, err
		}
		m := Measurement{Name: spec.Name}
		for _, kb := range spec.CachesKB {
			for _, cs := range spec.Clusters {
				cfg := core.DefaultConfig()
				cfg.Procs = opt.Procs
				cfg.ClusterSize = cs
				cfg.CacheKBPerProc = kb
				mon := perf.New()
				cfg.Perf = mon
				res, err := w.Run(cfg, opt.Size)
				if err != nil {
					return nil, fmt.Errorf("bench: %s (cluster %d, cache %d KB): %w", spec.Name, cs, kb, err)
				}
				rep := mon.Report()
				m.Points++
				m.WallNS += rep.WallNS
				m.SimCycles += res.ExecTime
				m.Handoffs += rep.Handoffs
				m.Refs += rep.Refs
				m.Allocs += rep.Allocs
				m.AllocBytes += rep.AllocBytes
				m.Phases.AppNS += rep.Phases.AppNS
				m.Phases.SchedNS += rep.Phases.SchedNS
				m.Phases.CoherenceNS += rep.Phases.CoherenceNS
			}
		}
		if sec := float64(m.WallNS) / 1e9; sec > 0 {
			m.CyclesPerSec = float64(m.SimCycles) / sec
			m.EventsPerSec = float64(m.Handoffs+m.Refs) / sec
		}
		out = append(out, m)
	}
	return out, nil
}

// aggregate folds the passes, each a measurement per spec in the same
// order, into one measurement per spec: the pass with the median wall
// time (the upper median of an even count), the wall quartiles, and
// the median allocations. Every deterministic counter must be equal in
// every pass.
func aggregate(passes [][]Measurement) ([]Measurement, error) {
	out := make([]Measurement, len(passes[0]))
	for i, first := range passes[0] {
		runs := make([]Measurement, len(passes))
		for p, pass := range passes {
			m := pass[i]
			if m.Points != first.Points || m.SimCycles != first.SimCycles ||
				m.Handoffs != first.Handoffs || m.Refs != first.Refs {
				return nil, fmt.Errorf("%w: %s: pass %d measured %d points, %d simcycles, %d handoffs, %d refs; pass 1 measured %d, %d, %d, %d",
					ErrNotRepeatable, first.Name, p+1, m.Points, m.SimCycles, m.Handoffs, m.Refs,
					first.Points, first.SimCycles, first.Handoffs, first.Refs)
			}
			runs[p] = m
		}
		wall := sorted(runs, func(m Measurement) int64 { return m.WallNS })
		allocs := sorted(runs, func(m Measurement) uint64 { return m.Allocs })
		bytes := sorted(runs, func(m Measurement) uint64 { return m.AllocBytes })
		slices.SortStableFunc(runs, func(a, b Measurement) int { return cmp.Compare(a.WallNS, b.WallNS) })
		med := runs[len(runs)/2]
		med.WallQ1NS, med.WallQ3NS = quantile(wall, 0.25), quantile(wall, 0.75)
		med.Allocs, med.AllocBytes = allocs[len(allocs)/2], bytes[len(bytes)/2]
		out[i] = med
	}
	return out, nil
}

// sorted returns one field of every run, in ascending order.
func sorted[T cmp.Ordered](runs []Measurement, field func(Measurement) T) []T {
	out := make([]T, len(runs))
	for i, m := range runs {
		out[i] = field(m)
	}
	slices.Sort(out)
	return out
}

// quantile interpolates linearly between the closest ranks of sorted
// values: the q-quantile sits at position q*(len-1), so with five
// passes the quartiles are the second and fourth values.
func quantile(sorted []int64, q float64) int64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + int64((pos-float64(lo))*float64(sorted[lo+1]-sorted[lo]))
}
