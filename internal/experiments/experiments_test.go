package experiments

import (
	"strings"
	"sync"
	"testing"

	"clustersim/internal/apps"
)

// quickOpts is a small machine at test problem sizes so the whole
// experiment pipeline runs in seconds.
func quickOpts(buf *strings.Builder) Options {
	return Options{Procs: 8, Size: apps.SizeTest, Out: buf}
}

func TestSuiteMemoizes(t *testing.T) {
	var buf strings.Builder
	s := NewSuite(quickOpts(&buf))
	a, err := s.Run("lu", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run("lu", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("suite re-simulated a memoized point")
	}
}

// fig2Suite memoizes Figure 2's points once per test binary, so its
// data and print tests simulate each point once.
var fig2Suite = sync.OnceValue(func() *Suite { return NewSuite(quickOpts(new(strings.Builder))) })

func TestFig2DataShape(t *testing.T) {
	bars, err := fig2Suite().Fig2Data()
	if err != nil {
		t.Fatal(err)
	}
	if len(bars) != len(Fig2Apps)*len(ClusterSizes) {
		t.Fatalf("got %d bars", len(bars))
	}
	for _, b := range bars {
		if b.ClusterSize == 1 && (b.Total < 99.99 || b.Total > 100.01) {
			t.Errorf("%s 1p bar = %.2f, want 100", b.App, b.Total)
		}
		if b.Total <= 0 {
			t.Errorf("%s %dp: nonpositive bar", b.App, b.ClusterSize)
		}
		sum := b.CPU + b.Load + b.Merge + b.Sync
		if sum < b.Total*0.999 || sum > b.Total*1.001 {
			t.Errorf("%s %dp: segments %.2f do not stack to %.2f", b.App, b.ClusterSize, sum, b.Total)
		}
	}
}

func TestFig2Prints(t *testing.T) {
	var buf strings.Builder
	s := fig2Suite()
	s.Opt.Out = &buf
	if err := s.PrintFig2(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, app := range Fig2Apps {
		if !strings.Contains(out, app) {
			t.Errorf("figure 2 output missing %s", app)
		}
	}
}

func TestFig3Prints(t *testing.T) {
	var buf strings.Builder
	opt := quickOpts(&buf)
	// Figure 3 halves Ocean's grid; at SizeTest that would be below the
	// minimum, so run it at default size on the small machine.
	opt.Size = apps.SizeDefault
	if err := Fig3(opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ocean-small") {
		t.Error("figure 3 output missing bars")
	}
}

func TestFigFinite(t *testing.T) {
	var buf strings.Builder
	if err := NewSuite(quickOpts(&buf)).PrintFigFinite(7); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fmm") || !strings.Contains(out, "inf") {
		t.Errorf("figure 7 output incomplete:\n%s", out)
	}
	if err := NewSuite(quickOpts(&buf)).PrintFigFinite(9); err == nil {
		t.Error("want error for unknown figure")
	}
}

func TestTables124Print(t *testing.T) {
	var buf strings.Builder
	opt := quickOpts(&buf)
	if err := Table1(opt); err != nil {
		t.Fatal(err)
	}
	if err := Table2(opt); err != nil {
		t.Fatal(err)
	}
	if err := Table4(opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"150", "512-by-512", "0.199"} {
		if !strings.Contains(out, want) {
			t.Errorf("tables output missing %q", want)
		}
	}
}

func TestTable3WorkingSets(t *testing.T) {
	var buf strings.Builder
	s := NewSuite(quickOpts(&buf))
	rows, err := s.Table3Data()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		// Miss rate must be non-increasing in cache size (fully
		// associative LRU has the inclusion property).
		prev := 2.0
		for _, kb := range WorkingSetSweepKB {
			mr := r.MissRateAtKB[kb]
			if mr > prev+1e-9 {
				t.Errorf("%s: miss rate rose from %.5f to %.5f at %dKB", r.App, prev, mr, kb)
			}
			prev = mr
		}
		if r.InfMissRate > prev+1e-9 {
			t.Errorf("%s: infinite-cache rate above 64KB rate", r.App)
		}
	}
}

func TestTable5FactorsBand(t *testing.T) {
	var buf strings.Builder
	s := NewSuite(quickOpts(&buf))
	rows, err := s.Table5Data()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Factors[0] != 1 {
			t.Errorf("%s: 1-cycle factor %v", r.App, r.Factors[0])
		}
		// The paper's band at 4 cycles is 1.12-1.25; allow slack for the
		// tiny test problems.
		if r.Factors[3] < 1.01 || r.Factors[3] > 1.6 {
			t.Errorf("%s: 4-cycle factor %.3f outside plausible band", r.App, r.Factors[3])
		}
		if !(r.Factors[0] < r.Factors[1] && r.Factors[1] < r.Factors[2] && r.Factors[2] < r.Factors[3]) {
			t.Errorf("%s: factors not increasing: %v", r.App, r.Factors)
		}
	}
}

func TestTables67(t *testing.T) {
	var buf strings.Builder
	opt := quickOpts(&buf)
	if err := NewSuite(opt).PrintTable6(); err != nil {
		t.Fatal(err)
	}
	if err := NewSuite(opt).PrintTable7(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, app := range append(append([]string{}, Table6Apps...), Table7Apps...) {
		if !strings.Contains(out, app) {
			t.Errorf("costed tables missing %s", app)
		}
	}
}

// TestCostedOneWayIsUnity: the 1-way cluster is the base, so its costed
// relative time must be exactly 1.
func TestCostedOneWayIsUnity(t *testing.T) {
	var buf strings.Builder
	s := NewSuite(quickOpts(&buf))
	rows, err := s.CostedData([]string{"lu"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows[0].Relative[1]; got < 0.999 || got > 1.001 {
		t.Fatalf("1-way relative = %v, want 1.0", got)
	}
}
