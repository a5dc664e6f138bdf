package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"clustersim/internal/bench"
	"clustersim/internal/critpath"
	"clustersim/internal/fabric"
	"clustersim/internal/obs"
	"clustersim/internal/obs/fleet"
	"clustersim/internal/profile"
	"clustersim/internal/stats"
	"clustersim/internal/telemetry"
)

// Every subcommand must report missing or unparseable inputs as errors
// (the process then exits nonzero) instead of succeeding silently.
func TestBadInputsError(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("not json at all {"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "does-not-exist")

	cases := [][]string{
		{},
		{"frobnicate"},
		{"replay", "-i", missing},
		{"replay", "-i", garbage},
		{"telemetry", "-i", missing},
		{"telemetry", "-i", garbage},
		{"profile", missing},
		{"profile", garbage},
		{"profile"},                            // no input at all
		{"profile", garbage, garbage, garbage}, // too many
		{"record", "-app", "no-such-app"},
		{"record", "-size", "enormous"},
		{"bench"},
		{"bench", missing},
		{"bench", garbage},
		{"bench", garbage, garbage, garbage}, // too many
		{"critpath", missing},
		{"critpath", garbage},
		{"critpath"},                            // no input at all
		{"critpath", garbage, garbage, garbage}, // too many
		{"events", missing},
		{"events", garbage},
		{"events"},                   // no input at all
		{"events", garbage, garbage}, // too many
		{"metrics", missing},
		{"metrics", garbage},
		{"metrics"},                   // no input at all
		{"metrics", garbage, garbage}, // too many
		{"fleet", missing},
		{"fleet", garbage},
		{"fleet"}, // no input at all
		{"fleet", "-chrome", filepath.Join(dir, "out.json"), garbage},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%q) succeeded, want error", args)
		}
	}
}

// Errors about a file name the file, so a user with several inputs can
// tell which one is bad.
func TestErrorsNameTheFile(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "mangled.json")
	if err := os.WriteFile(garbage, []byte(`{"schema":"wrong/v0"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"profile", garbage}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "mangled.json") {
		t.Errorf("error %v does not name the bad file", err)
	}
}

func writeTestProfile(t *testing.T, path string, misses uint64) {
	t.Helper()
	r := &profile.Report{
		Schema:    profile.SchemaV1,
		App:       "mp3d",
		Size:      "test",
		LineBytes: 64,
		WordBytes: 8,
		PageBytes: 4096,
		Clusters:  4,
		Regions: []profile.RegionReport{
			{Name: "particles", Misses: profile.ClassCounts{Cold: misses, FalseSharing: 2}},
			{Name: "cells", Misses: profile.ClassCounts{TrueSharing: 1}},
		},
		HotLines: []profile.LineReport{
			{Line: 0x100, Addr: 0x4000, Region: "particles", Misses: profile.ClassCounts{Cold: misses}},
		},
	}
	r.Totals.Misses = profile.ClassCounts{Cold: misses, TrueSharing: 1, FalseSharing: 2}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := profile.WriteReport(f, r); err != nil {
		t.Fatal(err)
	}
}

// `tracetool profile one.json` renders the flat table; with two inputs
// it renders the per-region delta.
func TestProfileRenderAndDiff(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	writeTestProfile(t, a, 5)
	writeTestProfile(t, b, 9)

	var flat bytes.Buffer
	if err := run([]string{"profile", a}, &flat); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"particles", "cells", "classified misses", "hot lines"} {
		if !strings.Contains(flat.String(), want) {
			t.Errorf("flat output missing %q:\n%s", want, flat.String())
		}
	}

	var diff bytes.Buffer
	if err := run([]string{"profile", a, b}, &diff); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(diff.String(), "Δmisses +4") {
		t.Errorf("diff output missing the +4 cold-miss delta:\n%s", diff.String())
	}
}

func writeTestCritpath(t *testing.T, path string, execTime int64) {
	t.Helper()
	r := &critpath.Report{
		Schema:        critpath.SchemaV1,
		App:           "ocean",
		Size:          "test",
		Procs:         8,
		Clusters:      4,
		ExecTime:      execTime,
		IdealExecTime: execTime - 100,
		Phases: []critpath.PhaseReport{
			{Index: 0, Name: "ocean.main#1", SyncID: 0, Start: 0, End: execTime,
				LastArriver: 3, ImbalanceCycles: 70,
				Aggregate: stats.Breakdown{CPU: 6 * execTime, SyncWait: 2 * execTime},
				PerPE:     make([]stats.Breakdown, 8)},
		},
		Barriers: []critpath.BarrierReport{
			{Name: "ocean.main", ID: 0, Participants: 8, Episodes: 1, WaitCycles: 70, MaxWait: 40,
				LastArrivers: []critpath.PECount{{PE: 3, Count: 1}}},
		},
		Locks: []critpath.LockReport{
			{Name: "errsum", ID: 1, Acquisitions: 8, Contended: 7, HoldCycles: 700,
				WaitCycles: 2000, MaxWait: 460, MaxQueueDepth: 6},
		},
		LocksTotal:   1,
		CriticalPath: []critpath.PathLink{{Phase: 0, PE: 3, SpanCycles: execTime}},
		LastArrivers: []critpath.PECount{{PE: 3, Count: 1}},
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := critpath.WriteReport(f, r); err != nil {
		t.Fatal(err)
	}
}

// `tracetool critpath one.json` renders the flat report; with two
// inputs it renders the per-phase delta.
func TestCritpathRenderAndDiff(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	writeTestCritpath(t, a, 5000)
	writeTestCritpath(t, b, 5400)

	var flat bytes.Buffer
	if err := run([]string{"critpath", a}, &flat); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"critical path: ocean", "ocean.main#1", "errsum", "barriers"} {
		if !strings.Contains(flat.String(), want) {
			t.Errorf("flat output missing %q:\n%s", want, flat.String())
		}
	}

	var diff bytes.Buffer
	if err := run([]string{"critpath", a, b}, &diff); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(diff.String(), "Δexec +400") {
		t.Errorf("diff output missing the +400 exec delta:\n%s", diff.String())
	}
}

func writeTestBench(t *testing.T, path string, simCycles int64) {
	t.Helper()
	r := &bench.Report{
		Schema: bench.SchemaV1,
		Stamp:  "t",
		Procs:  8,
		Size:   "test",
		Benchmarks: []bench.Measurement{
			{Name: "fig2/fft", Points: 2, WallNS: 1e6, SimCycles: simCycles,
				Handoffs: 100, Refs: 2000, Allocs: 5000, AllocBytes: 1 << 20},
		},
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := bench.WriteReport(f, r); err != nil {
		t.Fatal(err)
	}
}

// `tracetool bench one.json` renders the table; with two inputs it
// renders the regression diff and errs iff a deterministic counter
// drifted.
func TestBenchRenderAndDiff(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	writeTestBench(t, a, 40000)
	writeTestBench(t, b, 40007)

	var table bytes.Buffer
	if err := run([]string{"bench", a}, &table); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig2/fft", "simcycles", "40000"} {
		if !strings.Contains(table.String(), want) {
			t.Errorf("table missing %q:\n%s", want, table.String())
		}
	}

	var clean bytes.Buffer
	if err := run([]string{"bench", a, a}, &clean); err != nil {
		t.Fatalf("self-diff errored: %v", err)
	}
	if !strings.Contains(clean.String(), "no regressions") {
		t.Errorf("self-diff missing verdict:\n%s", clean.String())
	}

	var diff bytes.Buffer
	err := run([]string{"bench", a, b}, &diff)
	if err == nil {
		t.Fatal("drifted simcycles diff succeeded, want error")
	}
	if !strings.Contains(diff.String(), "simCycles") {
		t.Errorf("diff does not name the drifted counter:\n%s", diff.String())
	}
}

func writeTestEvents(t *testing.T, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	l := obs.NewLog(f, "test-run")
	at := time.Unix(100, 0)
	l.SetClock(func() time.Time { at = at.Add(time.Second); return at })
	l.Emit(obs.Event{Kind: obs.EventSweepStart})
	l.Emit(obs.Event{Kind: obs.EventPointStart, Span: obs.SpanBegin, Point: "fft-c4-inf", App: "fft", Cluster: 4, Cache: "inf"})
	l.Emit(obs.Event{Kind: obs.EventPointDone, Span: obs.SpanEnd, Point: "fft-c4-inf", App: "fft", Cluster: 4, Cache: "inf",
		VirtCycles: 12345, DurNS: int64(2 * time.Second)})
	l.Emit(obs.Event{Kind: obs.EventPointReplay, Point: "lu-c1-inf", App: "lu", Cluster: 1, Cache: "inf", VirtCycles: 99})
	l.Emit(obs.Event{Kind: obs.EventSweepDone, Detail: "1 points computed, 1 replayed from journal, 0 failed"})
}

// `tracetool events log.jsonl` renders every event; -point and -kind
// narrow the rows.
func TestEventsRenderAndFilter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	writeTestEvents(t, path)

	var all bytes.Buffer
	if err := run([]string{"events", path}, &all); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sweep-start", "fft-c4-inf", "12345 cycles", "point-replay", "sweep-done"} {
		if !strings.Contains(all.String(), want) {
			t.Errorf("output missing %q:\n%s", want, all.String())
		}
	}

	var filtered bytes.Buffer
	if err := run([]string{"events", "-point", "lu-c1-inf", path}, &filtered); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(filtered.String(), "fft-c4-inf") || !strings.Contains(filtered.String(), "lu-c1-inf") {
		t.Errorf("-point filter leaked other points:\n%s", filtered.String())
	}

	var kinds bytes.Buffer
	if err := run([]string{"events", "-kind", "point-done", path}, &kinds); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(kinds.String(), "sweep-start") || !strings.Contains(kinds.String(), "point-done") {
		t.Errorf("-kind filter leaked other kinds:\n%s", kinds.String())
	}
}

// An events file from a different (or future) schema is rejected, not
// half-rendered.
func TestEventsRejectsUnknownSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	if err := os.WriteFile(path, []byte(`{"schema":"clustersim/events/v99","seq":1,"kind":"x"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"events", path}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "v99") {
		t.Errorf("unknown schema error = %v, want it to name the schema", err)
	}
}

// `tracetool metrics` accepts a real registry render and rejects a
// truncated one.
func TestMetricsValidatesExposition(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("demo_total", "A demo counter.", obs.L("kind", "x")).Add(3)
	reg.Gauge("demo_gauge", "A demo gauge.").Set(1.5)
	reg.Histogram("demo_seconds", "A demo histogram.", []float64{1, 10}).Observe(4)
	var expo bytes.Buffer
	reg.WritePrometheus(&expo)

	dir := t.TempDir()
	good := filepath.Join(dir, "good.prom")
	if err := os.WriteFile(good, expo.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"metrics", good}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "3 metric families") {
		t.Errorf("verdict missing family count:\n%s", out.String())
	}

	bad := filepath.Join(dir, "bad.prom")
	if err := os.WriteFile(bad, []byte("# TYPE demo_total counter\ndemo_total not-a-number\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"metrics", bad}, &bytes.Buffer{}); err == nil {
		t.Error("malformed exposition accepted")
	}
}

// writeFleetLog records a synthetic coordinator log through the real
// fabric hooks, mirrored into a fleet view: w1 and w2 compute p1 and
// p2, w2 replays p3 from its journal, w1's stolen copy of p2 is a
// duplicate, and the coordinator computes p4 itself. It returns the
// points computed fresh, keyed by point, with the worker that did so.
func writeFleetLog(t *testing.T, path string) (*fleet.View, map[string]string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	l := obs.NewLog(f, "coord")
	at := time.Unix(100, 0)
	l.SetClock(func() time.Time { at = at.Add(5 * time.Second); return at })
	v := fleet.NewView("coord")
	l.SetMirror(v.Observe)
	o := fabric.NewObs(nil, l)
	o.WorkerJoined("w1")
	o.WorkerJoined("w2")
	o.Assigned("w1", "p1", "fresh", 0)
	o.Assigned("w2", "p2", "fresh", 0)
	o.ResultOK("w1", "p1", false, 2*time.Second)
	o.Assigned("w1", "p2", "steal", 0)
	o.ResultOK("w2", "p2", false, 3*time.Second)
	o.ResultDuplicate("w1", "p2")
	o.Assigned("w2", "p3", "fresh", 0)
	o.ResultOK("w2", "p3", true, 0)
	o.LocalRun("p4")
	o.ResultOK("(local)", "p4", false, time.Second)
	o.Drained(2)
	return v, map[string]string{"p1": "w1", "p2": "w2", "p4": "(local)"}
}

// `tracetool fleet doc.json` renders a /fleet document; `-chrome`
// exports the coordinator log with one X slice per fresh fabric-result
// on the named track of the worker that computed it.
func TestFleetRenderAndChrome(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "coord.events.jsonl")
	v, fresh := writeFleetLog(t, logPath)

	docPath := filepath.Join(dir, "fleet.json")
	js, err := json.Marshal(v.Doc())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(docPath, js, 0o644); err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := run([]string{"fleet", docPath}, &doc); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"totals: 3 workers (0 live), 4 points (4 assigned): 3 done, 1 replayed, 0 failed",
		"w1", "w2", "(local)"} {
		if !strings.Contains(doc.String(), want) {
			t.Errorf("fleet doc render missing %q:\n%s", want, doc.String())
		}
	}

	chromePath := filepath.Join(dir, "fleet.chrome.json")
	if err := run([]string{"fleet", "-chrome", chromePath, logPath}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []telemetry.ChromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("chrome export is not trace-event JSON: %v", err)
	}
	tracks := map[int]string{}
	for _, e := range tr.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			tracks[e.Tid] = e.Args["name"].(string)
		}
	}
	slices := map[string]string{}
	for _, e := range tr.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if _, dup := slices[e.Name]; dup {
			t.Errorf("point %s has more than one slice", e.Name)
		}
		slices[e.Name] = tracks[e.Tid]
		if e.Dur <= 0 {
			t.Errorf("slice %s has no duration", e.Name)
		}
	}
	if len(slices) != len(fresh) {
		t.Errorf("slices %v, want one per fresh result %v", slices, fresh)
	}
	for point, worker := range fresh {
		if slices[point] != worker {
			t.Errorf("point %s: slice on track %q, want %q", point, slices[point], worker)
		}
	}
}
