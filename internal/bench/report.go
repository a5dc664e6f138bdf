package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"clustersim/internal/perf"
)

// SchemaV1 identifies the BENCH document layout (see EXPERIMENTS.md for
// the field-by-field schema).
const SchemaV1 = "clustersim/bench/v1"

// Report is one BENCH_<stamp>.json document: the harness configuration,
// the host block, and one Measurement per benchmark. Passes is how many
// times the matrix ran (absent, one, in reports written before the
// harness repeated passes).
type Report struct {
	Schema     string        `json:"schema"`
	Stamp      string        `json:"stamp,omitempty"` // wall-clock label; never compared
	Procs      int           `json:"procs"`
	Size       string        `json:"size"`
	Passes     int           `json:"passes,omitempty"`
	Host       perf.Host     `json:"host"`
	Benchmarks []Measurement `json:"benchmarks"`
}

// WriteReport serialises the report as indented JSON, filling Schema if
// unset.
func WriteReport(w io.Writer, r *Report) error {
	if r.Schema == "" {
		r.Schema = SchemaV1
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses one BENCH document.
func ReadReport(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("bench: bad report: %w", err)
	}
	if rep.Schema != SchemaV1 {
		return nil, fmt.Errorf("bench: unknown report schema %q", rep.Schema)
	}
	return &rep, nil
}

// Tolerance bounds the accepted relative drift of near-deterministic
// counters. Allocs is the fractional increase of heap allocations that
// still passes (0.05 = +5%); decreases never gate.
type Tolerance struct {
	Allocs float64
}

// DefaultTolerance matches the CI gate: allocations may grow 5% before
// the gate trips; the strictly deterministic counters may not move at
// all.
func DefaultTolerance() Tolerance { return Tolerance{Allocs: 0.05} }

// Delta is one metric's movement between a baseline and a current
// report.
type Delta struct {
	Benchmark  string  `json:"benchmark"`
	Metric     string  `json:"metric"`
	Base       float64 `json:"base"`
	Cur        float64 `json:"cur"`
	Frac       float64 `json:"frac"` // (cur-base)/base; ±Inf when base is 0
	Regression bool    `json:"regression"`
}

// deterministicMetrics are the exact-match counters of a Measurement.
var deterministicMetrics = []struct {
	name string
	get  func(*Measurement) float64
}{
	{"points", func(m *Measurement) float64 { return float64(m.Points) }},
	{"simCycles", func(m *Measurement) float64 { return float64(m.SimCycles) }},
	{"handoffs", func(m *Measurement) float64 { return float64(m.Handoffs) }},
	{"refs", func(m *Measurement) float64 { return float64(m.Refs) }},
}

// Compare diffs cur against base. Deterministic counters (points,
// simCycles, handoffs, refs) regress on any drift; allocations regress
// when they grow beyond tol.Allocs; wall metrics are reported as
// informational deltas only. A benchmark present in base but missing
// from cur is a regression (lost coverage); extra benchmarks in cur are
// ignored. It returns every delta (informational and regressed) plus
// the regression count — the gate passes iff regressions is zero.
func Compare(base, cur *Report, tol Tolerance) (deltas []Delta, regressions int) {
	byName := make(map[string]*Measurement, len(cur.Benchmarks))
	for i := range cur.Benchmarks {
		byName[cur.Benchmarks[i].Name] = &cur.Benchmarks[i]
	}
	for i := range base.Benchmarks {
		b := &base.Benchmarks[i]
		c, ok := byName[b.Name]
		if !ok {
			deltas = append(deltas, Delta{Benchmark: b.Name, Metric: "missing", Regression: true})
			regressions++
			continue
		}
		for _, met := range deterministicMetrics {
			d := delta(b.Name, met.name, met.get(b), met.get(c))
			d.Regression = d.Base != d.Cur
			if d.Regression {
				regressions++
			}
			deltas = append(deltas, d)
		}
		da := delta(b.Name, "allocs", float64(b.Allocs), float64(c.Allocs))
		da.Regression = da.Frac > tol.Allocs
		if da.Regression {
			regressions++
		}
		deltas = append(deltas, da)
		deltas = append(deltas,
			delta(b.Name, "wallNs", float64(b.WallNS), float64(c.WallNS)),
			delta(b.Name, "cyclesPerSec", b.CyclesPerSec, c.CyclesPerSec))
	}
	return deltas, regressions
}

func delta(bench, metric string, base, cur float64) Delta {
	d := Delta{Benchmark: bench, Metric: metric, Base: base, Cur: cur}
	switch {
	case base != 0:
		d.Frac = (cur - base) / base
	case cur != 0:
		d.Frac = math.Inf(1)
	}
	return d
}

// WriteTable renders a report as a human-readable table. Wall time is
// the median pass's, with the quartiles over the passes in brackets
// when the report has them.
func WriteTable(w io.Writer, r *Report) {
	fmt.Fprintf(w, "bench %s  procs=%d size=%s passes=%d  %s %s/%s gomaxprocs=%d\n",
		stampOr(r.Stamp, "(unstamped)"), r.Procs, r.Size, max(r.Passes, 1),
		r.Host.GoVersion, r.Host.GOOS, r.Host.GOARCH, r.Host.GOMAXPROCS)
	fmt.Fprintf(w, "%-18s %6s %24s %14s %12s %12s %8s %8s %8s\n",
		"benchmark", "points", "wall-ms median [q1-q3]", "simcycles", "cycles/s", "allocs", "app%", "sched%", "coh%")
	for i := range r.Benchmarks {
		m := &r.Benchmarks[i]
		app, sched, coh := phasePercents(m)
		fmt.Fprintf(w, "%-18s %6d %24s %14d %12.3g %12d %7.1f%% %7.1f%% %7.1f%%\n",
			m.Name, m.Points, wallCell(m), m.SimCycles, m.CyclesPerSec, m.Allocs,
			app, sched, coh)
	}
}

// wallCell renders a benchmark's wall time in milliseconds: the median
// and, when recorded, its quartiles.
func wallCell(m *Measurement) string {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	if m.WallQ1NS == 0 && m.WallQ3NS == 0 {
		return fmt.Sprintf("%.1f", ms(m.WallNS))
	}
	return fmt.Sprintf("%.1f [%.1f-%.1f]", ms(m.WallNS), ms(m.WallQ1NS), ms(m.WallQ3NS))
}

func phasePercents(m *Measurement) (app, sched, coh float64) {
	total := float64(m.Phases.AppNS + m.Phases.SchedNS + m.Phases.CoherenceNS)
	if total == 0 {
		return 0, 0, 0
	}
	return 100 * float64(m.Phases.AppNS) / total,
		100 * float64(m.Phases.SchedNS) / total,
		100 * float64(m.Phases.CoherenceNS) / total
}

// WriteDiff renders the Compare deltas (cur against base): regressions
// first, then every changed metric, then a one-line verdict. Unchanged
// deterministic counters are elided to keep the diff readable. Wall
// times are the reports' medians (see WriteTable).
func WriteDiff(w io.Writer, base, cur *Report, deltas []Delta, regressions int) {
	fmt.Fprintf(w, "bench diff: %s (%d passes) -> %s (%d passes)\n",
		stampOr(base.Stamp, "base"), max(base.Passes, 1), stampOr(cur.Stamp, "cur"), max(cur.Passes, 1))
	for _, d := range deltas {
		if !d.Regression && d.Base == d.Cur {
			continue // unchanged: elide
		}
		flag := " "
		if d.Regression {
			flag = "!"
		}
		fmt.Fprintf(w, "%s %-18s %-12s %14.6g -> %-14.6g (%+.2f%%)\n",
			flag, d.Benchmark, d.Metric, d.Base, d.Cur, 100*d.Frac)
	}
	if regressions > 0 {
		fmt.Fprintf(w, "bench: %d regression(s) on deterministic counters\n", regressions)
	} else {
		fmt.Fprintln(w, "bench: no regressions")
	}
}

func stampOr(s, fallback string) string {
	if s == "" {
		return fallback
	}
	return s
}
