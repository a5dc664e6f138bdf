package bench

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"clustersim/internal/apps"
	"clustersim/internal/apps/registry"
	"clustersim/internal/perf"
)

// smallSpecs is a two-benchmark matrix of one application, cheap
// enough for unit tests at Passes passes.
func smallSpecs() []Spec {
	return []Spec{
		{Name: "fig2/fft", App: "fft", Clusters: []int{1, 2}, CachesKB: []int{0}},
		{Name: "finite/fft", App: "fft", Clusters: []int{2}, CachesKB: []int{4, 0}},
	}
}

func smallOptions() Options {
	return Options{Procs: 8, Size: apps.SizeTest}
}

func TestDefaultSpecs(t *testing.T) {
	specs := DefaultSpecs()
	if len(specs) != 14 { // 9 fig2 panels + 5 finite figures
		t.Errorf("got %d specs, want 14", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Errorf("duplicate spec name %q", s.Name)
		}
		seen[s.Name] = true
		if _, err := registry.Lookup(s.App); err != nil {
			t.Errorf("spec %q: %v", s.Name, err)
		}
		if s.Points() == 0 {
			t.Errorf("spec %q covers no points", s.Name)
		}
	}
}

func TestFilterApps(t *testing.T) {
	specs := DefaultSpecs()
	got := FilterApps(specs, []string{"mp3d", "ocean"})
	want := []string{"fig2/ocean", "fig2/mp3d", "finite/mp3d"}
	if len(got) != len(want) {
		t.Fatalf("got %d specs, want %d", len(got), len(want))
	}
	for i, s := range got {
		if s.Name != want[i] {
			t.Errorf("spec %d = %q, want %q", i, s.Name, want[i])
		}
	}
	if all := FilterApps(specs, nil); len(all) != len(specs) {
		t.Errorf("nil filter dropped specs: %d of %d", len(all), len(specs))
	}
}

// TestRunMeasures: the harness populates every metric class, over
// Passes passes whose deterministic counters Run requires to be equal.
func TestRunMeasures(t *testing.T) {
	first, err := Run(smallSpecs(), smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 2 {
		t.Fatalf("got %d measurements, want 2", len(first))
	}
	for _, m := range first {
		if m.Points == 0 || m.SimCycles <= 0 || m.Handoffs == 0 || m.Refs == 0 {
			t.Errorf("%s: deterministic counters empty: %+v", m.Name, m)
		}
		if m.WallNS <= 0 || m.CyclesPerSec <= 0 || m.EventsPerSec <= 0 {
			t.Errorf("%s: wall metrics empty: %+v", m.Name, m)
		}
		if m.Allocs == 0 || m.AllocBytes == 0 {
			t.Errorf("%s: allocation counters empty: %+v", m.Name, m)
		}
		if sum := m.Phases.AppNS + m.Phases.SchedNS + m.Phases.CoherenceNS; sum != m.WallNS {
			t.Errorf("%s: phase spans sum to %d ns, wall is %d ns", m.Name, sum, m.WallNS)
		}
		if !(m.WallQ1NS > 0 && m.WallQ1NS <= m.WallNS && m.WallNS <= m.WallQ3NS) {
			t.Errorf("%s: wall quartiles %d, median %d, %d out of order", m.Name, m.WallQ1NS, m.WallNS, m.WallQ3NS)
		}
	}
	if first[0].Points != 2 || first[1].Points != 2 {
		t.Errorf("point counts = %d, %d; want 2, 2", first[0].Points, first[1].Points)
	}
}

// TestAggregate: over the passes, a benchmark reports the pass with the
// median wall time, the wall quartiles and the median allocations; a
// deterministic counter that differs between passes is an error.
func TestAggregate(t *testing.T) {
	walls := []int64{50, 10, 40, 20, 30}
	allocs := []uint64{7, 9, 5, 8, 6}
	passes := make([][]Measurement, len(walls))
	for i, w := range walls {
		passes[i] = []Measurement{{Name: "b", Points: 2, SimCycles: 100, Handoffs: 3, Refs: 40,
			WallNS: w, Allocs: allocs[i], AllocBytes: 10 * allocs[i], Phases: perf.PhaseBreakdown{AppNS: w}}}
	}
	got, err := aggregate(passes)
	if err != nil {
		t.Fatal(err)
	}
	m := got[0]
	if m.WallNS != 30 || m.WallQ1NS != 20 || m.WallQ3NS != 40 || m.Phases.AppNS != 30 {
		t.Errorf("wall median [q1-q3] = %d [%d-%d], phases %+v; want 30 [20-40] from the median pass",
			m.WallNS, m.WallQ1NS, m.WallQ3NS, m.Phases)
	}
	if m.Allocs != 7 || m.AllocBytes != 70 {
		t.Errorf("allocs %d, bytes %d; want the medians 7 and 70", m.Allocs, m.AllocBytes)
	}
	if q := quantile([]int64{10, 20, 30, 40}, 0.25); q != 17 {
		t.Errorf("first quartile of 10,20,30,40 = %d, want 17 (linear interpolation)", q)
	}
	for _, drift := range []func(*Measurement){
		func(m *Measurement) { m.Points++ },
		func(m *Measurement) { m.SimCycles++ },
		func(m *Measurement) { m.Handoffs++ },
		func(m *Measurement) { m.Refs++ },
	} {
		drift(&passes[3][0])
		if _, err := aggregate(passes); !errors.Is(err, ErrNotRepeatable) || !strings.Contains(err.Error(), "pass 4") {
			t.Errorf("a counter differing in pass 4: error %v", err)
		}
		passes[3][0] = passes[0][0]
	}
}

// TestRunBadApp: an unknown application surfaces as an error, not a
// panic or a silent skip.
func TestRunBadApp(t *testing.T) {
	_, err := Run([]Spec{{Name: "x", App: "no-such-app", Clusters: []int{1}, CachesKB: []int{0}}}, smallOptions())
	if err == nil {
		t.Fatal("want error for unknown app")
	}
}

func testReport() *Report {
	return &Report{
		Schema: SchemaV1,
		Stamp:  "test",
		Procs:  8,
		Size:   "test",
		Benchmarks: []Measurement{
			{Name: "fig2/fft", Points: 2, WallNS: 5e6, SimCycles: 100000,
				Handoffs: 2000, Refs: 30000, Allocs: 50000, AllocBytes: 4 << 20},
			{Name: "finite/mp3d", Points: 2, WallNS: 9e6, SimCycles: 220000,
				Handoffs: 4100, Refs: 61000, Allocs: 81000, AllocBytes: 6 << 20},
		},
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := testReport()
	var buf bytes.Buffer
	if err := WriteReport(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Stamp != r.Stamp || len(back.Benchmarks) != len(r.Benchmarks) ||
		back.Benchmarks[1] != r.Benchmarks[1] {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, r)
	}
	if _, err := ReadReport(strings.NewReader(`{"schema":"bogus/v9"}`)); err == nil {
		t.Error("unknown schema accepted")
	}
	if _, err := ReadReport(strings.NewReader(`not json`)); err == nil {
		t.Error("malformed report accepted")
	}
}

// TestCompareGate is the regression gate's acceptance test: zero
// regressions against the true baseline, nonzero when a deterministic
// counter is perturbed, and wall-clock drift never gates.
func TestCompareGate(t *testing.T) {
	base := testReport()

	// Identical reports: clean gate.
	if _, n := Compare(base, testReport(), DefaultTolerance()); n != 0 {
		t.Errorf("self-compare found %d regressions, want 0", n)
	}

	// Perturbed simcycles: gate trips.
	cur := testReport()
	cur.Benchmarks[0].SimCycles += 7
	deltas, n := Compare(base, cur, DefaultTolerance())
	if n == 0 {
		t.Error("perturbed simCycles passed the gate")
	}
	found := false
	for _, d := range deltas {
		if d.Benchmark == "fig2/fft" && d.Metric == "simCycles" && d.Regression {
			found = true
		}
	}
	if !found {
		t.Errorf("no simCycles regression delta recorded: %+v", deltas)
	}

	// Wall-clock drift alone: informational, never a regression.
	cur = testReport()
	cur.Benchmarks[0].WallNS *= 3
	cur.Benchmarks[1].CyclesPerSec /= 2
	if _, n := Compare(base, cur, DefaultTolerance()); n != 0 {
		t.Errorf("wall-clock drift tripped the gate: %d regressions", n)
	}

	// Allocations: within tolerance passes, beyond fails, decreases pass.
	cur = testReport()
	cur.Benchmarks[0].Allocs = uint64(float64(base.Benchmarks[0].Allocs) * 1.04)
	if _, n := Compare(base, cur, DefaultTolerance()); n != 0 {
		t.Errorf("4%% alloc growth tripped the 5%% gate: %d regressions", n)
	}
	cur.Benchmarks[0].Allocs = uint64(float64(base.Benchmarks[0].Allocs) * 1.2)
	if _, n := Compare(base, cur, DefaultTolerance()); n == 0 {
		t.Error("20% alloc growth passed the 5% gate")
	}
	cur.Benchmarks[0].Allocs = base.Benchmarks[0].Allocs / 2
	if _, n := Compare(base, cur, DefaultTolerance()); n != 0 {
		t.Error("alloc decrease tripped the gate")
	}

	// A benchmark missing from the current report is lost coverage.
	cur = testReport()
	cur.Benchmarks = cur.Benchmarks[:1]
	if _, n := Compare(base, cur, DefaultTolerance()); n == 0 {
		t.Error("missing benchmark passed the gate")
	}

	// Extra benchmarks in the current report are fine.
	cur = testReport()
	cur.Benchmarks = append(cur.Benchmarks, Measurement{Name: "new/bench", Points: 1})
	if _, n := Compare(base, cur, DefaultTolerance()); n != 0 {
		t.Error("extra benchmark tripped the gate")
	}
}

// TestRenderers: the table and diff renderers produce the headline
// facts without panicking on edge inputs.
func TestRenderers(t *testing.T) {
	r := testReport()
	var buf bytes.Buffer
	WriteTable(&buf, r)
	out := buf.String()
	for _, want := range []string{"fig2/fft", "finite/mp3d", "simcycles", "cycles/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}

	cur := testReport()
	cur.Benchmarks[0].SimCycles++
	deltas, n := Compare(r, cur, DefaultTolerance())
	buf.Reset()
	WriteDiff(&buf, r, cur, deltas, n)
	if !strings.Contains(buf.String(), "regression") {
		t.Errorf("diff missing verdict:\n%s", buf.String())
	}
	buf.Reset()
	deltas, n = Compare(r, testReport(), DefaultTolerance())
	WriteDiff(&buf, r, testReport(), deltas, n)
	if !strings.Contains(buf.String(), "no regressions") {
		t.Errorf("clean diff missing verdict:\n%s", buf.String())
	}

	// Empty report: header only, no panic.
	buf.Reset()
	WriteTable(&buf, &Report{})
	if buf.Len() == 0 {
		t.Error("empty report rendered nothing")
	}
}
