package experiments

import (
	"strings"
	"sync"
	"testing"

	"clustersim/internal/core"
)

// The associativity and organisation studies are simulated once per
// test binary: their data and print tests share the rows.
var (
	assocRows = sync.OnceValues(func() ([]AssocRow, error) {
		return ExtAssociativityData(quickOpts(new(strings.Builder)))
	})
	orgRows = sync.OnceValues(func() ([]OrgRow, error) {
		return ExtOrganizationsData(quickOpts(new(strings.Builder)))
	})
)

func TestExtAssociativityShowsInterference(t *testing.T) {
	rows, err := assocRows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ExtAssocApps)*len(ExtAssocWays)*len(ClusterSizes) {
		t.Fatalf("got %d rows", len(rows))
	}
	// Destructive interference: for each app at cluster size 1, the
	// direct-mapped cache must suffer at least as many read misses as
	// the fully associative one.
	miss := map[[3]interface{}]uint64{}
	for _, r := range rows {
		miss[[3]interface{}{r.App, r.Ways, r.ClusterSize}] = r.ReadMisses
	}
	for _, app := range ExtAssocApps {
		full := miss[[3]interface{}{app, 0, 1}]
		dm := miss[[3]interface{}{app, 1, 1}]
		if dm < full {
			t.Errorf("%s: direct-mapped misses %d < fully associative %d", app, dm, full)
		}
	}
}

func TestExtAssociativityPrints(t *testing.T) {
	rows, err := assocRows()
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	writeAssociativity(&buf, rows)
	if !strings.Contains(buf.String(), "full") || !strings.Contains(buf.String(), "ocean") {
		t.Errorf("output incomplete:\n%s", buf.String())
	}
}

func TestExtOrganizationsData(t *testing.T) {
	rows, err := orgRows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ExtOrgApps)*2*len(ClusterSizes) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		switch r.Organization {
		case core.SharedCache:
			if r.IntraFrac != 0 {
				t.Errorf("%s shared-cache %dp: intra-cluster fraction %.3f should be 0",
					r.App, r.ClusterSize, r.IntraFrac)
			}
		case core.SharedMemory:
			if r.ClusterSize > 1 && r.IntraFrac == 0 {
				t.Errorf("%s shared-memory %dp: no intra-cluster services",
					r.App, r.ClusterSize)
			}
		}
		if r.ExecTime <= 0 {
			t.Errorf("%s %v %dp: empty run", r.App, r.Organization, r.ClusterSize)
		}
	}
}

func TestExtOrganizationsPrints(t *testing.T) {
	rows, err := orgRows()
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	writeOrganizations(&buf, rows)
	out := buf.String()
	if !strings.Contains(out, "shared-memory") || !strings.Contains(out, "in-cluster") {
		t.Errorf("output incomplete:\n%s", out)
	}
}

func TestRenderBars(t *testing.T) {
	bars := []Bar{
		{App: "x", ClusterSize: 1, CacheKB: 0,
			NormalizedBar: core.NormalizedBar{Total: 100, CPU: 40, Load: 30, Merge: 10, Sync: 20}},
		{App: "x", ClusterSize: 2, CacheKB: 0,
			NormalizedBar: core.NormalizedBar{Total: 50, CPU: 40, Load: 5, Merge: 2, Sync: 3}},
		{App: "y", ClusterSize: 1, CacheKB: 4,
			NormalizedBar: core.NormalizedBar{Total: 110, CPU: 55, Load: 55}},
	}
	var buf strings.Builder
	RenderBars(&buf, bars)
	out := buf.String()
	if !strings.Contains(out, "legend") || !strings.Contains(out, "█") {
		t.Fatalf("render output incomplete:\n%s", out)
	}
	// The 100% bar must draw exactly barWidth fill runes.
	lines := strings.Split(out, "\n")
	fills := 0
	for _, r := range lines[1] {
		switch r {
		case '█', '▒', '▓', '░':
			fills++
		}
	}
	if fills != barWidth {
		t.Fatalf("100%% bar drew %d fill runes, want %d", fills, barWidth)
	}
	// A >100% bar must not overflow the canvas.
	for _, r := range lines {
		if len([]rune(r)) > 130 {
			t.Fatalf("line too wide: %q", r)
		}
	}
}

func TestExtScaling(t *testing.T) {
	var buf strings.Builder
	opt := quickOpts(&buf)
	rows, err := ExtScalingData(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(ExtScalingProcs) {
		t.Fatalf("got %d rows", len(rows))
	}
	// Speedup baselines are 1.0 and scaling is monotone nondecreasing in
	// machine size for this near-neighbour code at test scale.
	for i, r := range rows {
		if r.Procs == ExtScalingProcs[0] && (r.Speedup < 0.999 || r.Speedup > 1.001) {
			t.Errorf("row %d: baseline speedup %.3f != 1", i, r.Speedup)
		}
		if r.ExecTime <= 0 {
			t.Errorf("row %d: empty run", i)
		}
	}
	// The clustered machine must be faster in absolute terms at the
	// largest size (the paper's "pushes out the number of processors").
	var un, cl core.Clock
	for _, r := range rows {
		if r.Procs == 64 {
			if r.ClusterSize == 1 {
				un = r.ExecTime
			} else {
				cl = r.ExecTime
			}
		}
	}
	if cl >= un {
		t.Errorf("4-way at 64p (%d) not faster than unclustered (%d)", cl, un)
	}
	if err := ExtScaling(opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Extension C") {
		t.Error("print output missing")
	}
}

func TestWriteBarsCSV(t *testing.T) {
	bars := []Bar{{App: "x", ClusterSize: 2, CacheKB: 4,
		NormalizedBar: core.NormalizedBar{Total: 88.5, CPU: 40, Load: 30, Merge: 10, Sync: 8.5}}}
	var buf strings.Builder
	if err := WriteBarsCSV(&buf, bars); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := "app,cache_kb,cluster,total,cpu,load,merge,sync\nx,4,2,88.50,40.00,30.00,10.00,8.50\n"
	if out != want {
		t.Fatalf("csv = %q, want %q", out, want)
	}
}
