package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs.", L("state", "done"))
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Errorf("counter = %v, want 3", got)
	}

	g := r.Gauge("depth", "Depth.")
	g.Set(5)
	g.Add(-2)
	if got := g.Value(); got != 3 {
		t.Errorf("gauge = %v, want 3", got)
	}

	h := r.Histogram("cost_seconds", "Cost.", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50) // +Inf bucket only
	if got := h.Count(); got != 3 {
		t.Errorf("histogram count = %d, want 3", got)
	}
}

// Registration is idempotent and label order does not matter: the same
// (name, label set) always resolves to the same series.
func TestSeriesIdentityIgnoresLabelOrder(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "X.", L("a", "1"), L("b", "2"))
	b := r.Counter("x_total", "X.", L("b", "2"), L("a", "1"))
	a.Inc()
	if got := b.Value(); got != 1 {
		t.Errorf("label-reordered handle sees %v, want 1 (same series)", got)
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	mustPanic("invalid metric name", func() { r.Counter("0bad", "") })
	mustPanic("invalid label name", func() { r.Counter("ok_total", "", L("0bad", "v")) })
	mustPanic("duplicate label", func() { r.Counter("ok_total", "", L("a", "1"), L("a", "2")) })
	r.Counter("kind_total", "")
	mustPanic("kind conflict", func() { r.Gauge("kind_total", "") })
	mustPanic("counter decrease", func() { r.Counter("down_total", "").Add(-1) })
	mustPanic("unsorted histogram bounds", func() { r.Histogram("h", "", []float64{2, 1}) })
}

// The exposition is deterministic and byte-exact: families sorted by
// name, series by key-sorted label signature, histograms cumulative.
// This is the golden render the /metrics endpoint serves.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("sweep_points_total", "Points by outcome.", L("state", "done")).Add(3)
	r.Counter("sweep_points_total", "Points by outcome.", L("state", "failed"))
	r.Gauge("sweep_running", "Running now.").Set(2)
	h := r.Histogram("point_seconds", "Point cost.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(7)
	r.Counter("esc_total", "Escapes.", L("msg", "a\"b\\c\nd")).Inc()

	const want = `# HELP esc_total Escapes.
# TYPE esc_total counter
esc_total{msg="a\"b\\c\nd"} 1
# HELP point_seconds Point cost.
# TYPE point_seconds histogram
point_seconds_bucket{le="0.1"} 1
point_seconds_bucket{le="1"} 2
point_seconds_bucket{le="+Inf"} 3
point_seconds_sum 7.55
point_seconds_count 3
# HELP sweep_points_total Points by outcome.
# TYPE sweep_points_total counter
sweep_points_total{state="done"} 3
sweep_points_total{state="failed"} 0
# HELP sweep_running Running now.
# TYPE sweep_running gauge
sweep_running 2
`
	var one, two bytes.Buffer
	if err := r.WritePrometheus(&one); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&two); err != nil {
		t.Fatal(err)
	}
	if one.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", one.String(), want)
	}
	if one.String() != two.String() {
		t.Error("two renders of the same registry differ")
	}
}

// Everything WritePrometheus emits must satisfy our own validator, and
// the validator must reject the classic malformations.
func TestParseExpositionRoundTripAndRejects(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "A.", L("k", "v")).Inc()
	r.Histogram("h_seconds", "H.", []float64{1}).Observe(2)
	var expo bytes.Buffer
	if err := r.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	st, err := ParseExposition(bytes.NewReader(expo.Bytes()))
	if err != nil {
		t.Fatalf("own render rejected: %v\n%s", err, expo.String())
	}
	if st.Families != 2 || st.Series != 5 {
		t.Errorf("stats = %+v, want 2 families, 5 series", st)
	}

	bad := map[string]string{
		"empty":            "",
		"comments only":    "# HELP x y\n",
		"bad type":         "# TYPE x frobnogram\nx 1\n",
		"bad name":         "0bad 1\n",
		"bad value":        "x not-a-number\n",
		"unterminated":     `x{k="v 1` + "\n",
		"missing equals":   "x{k} 1\n",
		"unquoted value":   "x{k=v} 1\n",
		"bad timestamp":    "x 1 soon\n",
		"trailing garbage": "x 1 2 3\n",
	}
	for name, doc := range bad {
		if _, err := ParseExposition(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted %q", name, doc)
		}
	}

	// The specials and timestamps are legal.
	ok := "x +Inf\ny -Inf 1700000000000\nz NaN\nw{} 1\n"
	if _, err := ParseExposition(strings.NewReader(ok)); err != nil {
		t.Errorf("legal document rejected: %v", err)
	}
}

// TestParseExpositionRejectsDuplicateSeries pins the series-identity
// contract the registry and the validator share: a series is identified by
// its name plus the KEY-SORTED label signature, so two samples whose
// labels differ only in order are the same series and must be rejected
// as duplicates.
func TestParseExpositionRejectsDuplicateSeries(t *testing.T) {
	dup := "m{a=\"1\",b=\"2\"} 1\nm{b=\"2\",a=\"1\"} 2\n"
	if _, err := ParseExposition(strings.NewReader(dup)); err == nil {
		t.Errorf("reordered-label duplicate accepted: %q", dup)
	} else if !strings.Contains(err.Error(), "duplicate series") {
		t.Errorf("error = %v, want it to name the duplicate series", err)
	}

	exact := "m{a=\"1\"} 1\nm{a=\"1\"} 2\n"
	if _, err := ParseExposition(strings.NewReader(exact)); err == nil {
		t.Errorf("exact duplicate accepted: %q", exact)
	}

	// Distinct label VALUES are distinct series; so are bare vs labelled.
	ok := "m{a=\"1\",b=\"2\"} 1\nm{a=\"2\",b=\"1\"} 2\nn 1\nn_total{x=\"y\"} 2\n"
	if _, err := ParseExposition(strings.NewReader(ok)); err != nil {
		t.Errorf("distinct series rejected: %v", err)
	}

	// A duplicated TYPE declaration is a malformation too.
	dupType := "# TYPE m counter\nm 1\n# TYPE m counter\n"
	if _, err := ParseExposition(strings.NewReader(dupType)); err == nil {
		t.Errorf("duplicate TYPE accepted: %q", dupType)
	}
}
