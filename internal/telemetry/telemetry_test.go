package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"clustersim/internal/coherence"
	"clustersim/internal/memory"
	"clustersim/internal/stats"
)

// attach sizes c for procs processors in clusters clusters, as a
// machine attaching it would.
func attach(c *Collector, procs, clusters int) {
	as, _ := memory.New(4096, clusters)
	c.Attach(as, nil, make([]stats.Proc, procs))
}

func TestSliceCoalescing(t *testing.T) {
	c := New()
	attach(c, 1, 1)
	c.Slice(0, SliceCompute, 0, 10)
	c.Slice(0, SliceCompute, 10, 5) // adjacent same kind: coalesces
	c.Slice(0, SliceLoadStall, 15, 30)
	c.Slice(0, SliceCompute, 45, 1)
	c.Slice(0, SliceCompute, 46, 0) // zero duration: dropped
	c.Slice(0, SliceCompute, 50, 2) // gap: new slice
	c.ClosePE(0)

	got := c.Slices(0)
	want := []Slice{
		{SliceCompute, 0, 15},
		{SliceLoadStall, 15, 30},
		{SliceCompute, 45, 1},
		{SliceCompute, 50, 2},
	}
	if len(got) != len(want) {
		t.Fatalf("slices = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("slice %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	totals := c.SliceTotals(0)
	if totals[SliceCompute] != 18 || totals[SliceLoadStall] != 30 {
		t.Errorf("totals = %v", totals)
	}
}

func TestCollectorRejectsReuse(t *testing.T) {
	c := New()
	attach(c, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("second Attach should panic")
		}
	}()
	attach(c, 1, 1)
}

func TestSamplerDeltas(t *testing.T) {
	c := New()
	attach(c, 2, 1)
	cum := func(reads, inval uint64) []ClusterSample {
		return []ClusterSample{{
			Refs: stats.Counters{Reads: reads, ReadMisses: reads / 10},
			Coh:  coherence.Stats{InvalidationsSent: inval},
		}}
	}
	c.Sample(100, cum(50, 3))
	c.Sample(200, cum(90, 7))
	s := c.Samples()
	if len(s) != 2 {
		t.Fatalf("samples = %d", len(s))
	}
	if s[0].Clusters[0].Refs.Reads != 50 || s[1].Clusters[0].Refs.Reads != 40 {
		t.Errorf("read deltas = %d, %d; want 50, 40",
			s[0].Clusters[0].Refs.Reads, s[1].Clusters[0].Refs.Reads)
	}
	if s[1].Clusters[0].Coh.InvalidationsSent != 4 {
		t.Errorf("invalidation delta = %d, want 4", s[1].Clusters[0].Coh.InvalidationsSent)
	}

	// A stats reset rebaselines the next delta at zero instead of
	// underflowing the unsigned counters.
	c.Reset(0, 200)
	c.Sample(300, cum(10, 1))
	s = c.Samples()
	if got := s[2].Clusters[0].Refs.Reads; got != 10 {
		t.Errorf("post-reset delta = %d, want 10", got)
	}
	if len(c.Marks()) != 1 || c.Marks()[0].Name != "begin measurement" {
		t.Errorf("marks = %+v", c.Marks())
	}
}

func TestHandoffMetrics(t *testing.T) {
	c := New()
	attach(c, 2, 1)
	c.Handoff(-1, 0, 0, 0, 1)
	c.Handoff(0, 1, 25, 10, 3)
	c.Handoff(1, 0, 12, 12, 2)
	m := c.Sched()
	if m.Handoffs != 3 || m.MaxReadyDepth != 3 || m.MaxSkew != 15 {
		t.Errorf("sched metrics = %+v", m)
	}
	if mean := m.MeanReadyDepth(); mean < 1.9 || mean > 2.1 {
		t.Errorf("mean depth = %f, want 2", mean)
	}
}

// buildCollector fabricates a small finished collection.
func buildCollector() *Collector {
	c := New()
	attach(c, 2, 1)
	c.DefineSync(0, stats.SyncBarrier, "main", 2)
	c.Slice(0, SliceCompute, 0, 100)
	c.Slice(0, SliceLoadStall, 100, 50)
	c.Slice(1, SliceCompute, 0, 120)
	c.SyncWait(0, 0, 150, 170) // P0 waits 20 at the barrier
	c.Coherence(0, coherence.ReadMiss, coherence.HopRemoteClean, 100)
	c.Sample(170, []ClusterSample{{Refs: stats.Counters{Reads: 9, ReadMisses: 1}}})
	c.ClosePE(0)
	c.ClosePE(1)
	return c
}

func TestChromeTraceRoundTrip(t *testing.T) {
	c := buildCollector()
	var b bytes.Buffer
	if err := WriteChromeTrace(&b, c, map[string]string{"app": "unit"}); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b.Bytes()) {
		t.Fatal("trace is not valid JSON")
	}
	sum, err := SummarizeChromeTrace(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sum.PEs != 2 {
		t.Errorf("PEs = %d, want 2", sum.PEs)
	}
	// P0: 100 compute + 50 load + 20 sync = 170 cycles, tiling its clock.
	if got := sum.PETotals[0]; got != 170 {
		t.Errorf("P0 slice cycles = %d, want 170", got)
	}
	if sum.ByKind["sync-wait"] != 20 || sum.ByKind["compute"] != 220 {
		t.Errorf("by-kind = %+v", sum.ByKind)
	}
	if sum.SyncWaits != 1 || sum.Counters != 1 {
		t.Errorf("syncWaits=%d counters=%d", sum.SyncWaits, sum.Counters)
	}
	if sum.OtherData["app"] != "unit" {
		t.Errorf("otherData = %+v", sum.OtherData)
	}
}

func TestManifestRoundTripAndStableHash(t *testing.T) {
	type miniConfig struct {
		Procs, ClusterSize int
	}
	cfg := miniConfig{Procs: 8, ClusterSize: 4}
	c := buildCollector()

	write := func() string {
		var b bytes.Buffer
		if err := WriteManifest(&b, Manifest{
			App: "unit", Size: "test", Config: cfg,
			Result:    map[string]int{"ExecTime": 170},
			Telemetry: c.SelfReport(),
		}); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first, second := write(), write()
	if first != second {
		t.Fatal("manifest encoding is not deterministic")
	}

	doc, err := ReadManifest(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Schema != SchemaV1 || doc.App != "unit" || doc.Size != "test" {
		t.Errorf("doc header = %+v", doc)
	}
	wantHash, err := HashConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if doc.ConfigHash != wantHash {
		t.Errorf("hash = %s, want %s", doc.ConfigHash, wantHash)
	}
	var back miniConfig
	if err := json.Unmarshal(doc.Config, &back); err != nil {
		t.Fatal(err)
	}
	if back != cfg {
		t.Errorf("config round-trip = %+v, want %+v", back, cfg)
	}
	if doc.Telemetry == nil || doc.Telemetry.SyncEpisodes != 1 || doc.Telemetry.Samples != 1 {
		t.Errorf("telemetry block = %+v", doc.Telemetry)
	}

	// A different config must hash differently.
	otherHash, err := HashConfig(miniConfig{Procs: 8, ClusterSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if otherHash == wantHash {
		t.Error("distinct configs hashed equal")
	}
}

func TestNilCollectorSelfReport(t *testing.T) {
	var c *Collector
	if c.SelfReport() != nil {
		t.Fatal("nil collector should report nil")
	}
}

func TestReadManifestRejectsUnknownSchema(t *testing.T) {
	_, err := ReadManifest(strings.NewReader(`{"schema":"bogus/v9"}`))
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("err = %v", err)
	}
}

// TestCountSlicesOnly: a collector that only counts stores no slice but
// reports the same slice count and per-kind totals as one that keeps
// its timeline.
func TestCountSlicesOnly(t *testing.T) {
	feed := func(c *Collector) {
		attach(c, 2, 1)
		for pe := 0; pe < 2; pe++ {
			c.Slice(pe, SliceCompute, 0, 10)
			c.Slice(pe, SliceCompute, 10, 5)
			c.Slice(pe, SliceLoadStall, 15, 30+Clock(pe))
			c.SyncWait(pe, 0, 45+Clock(pe), 60)
			c.Slice(pe, SliceCompute, 60, 2)
		}
		c.End([]Clock{62, 62})
	}
	kept, counted := New(), New()
	counted.CountSlicesOnly()
	feed(kept)
	feed(counted)
	for pe := 0; pe < 2; pe++ {
		if got := counted.Slices(pe); got != nil {
			t.Errorf("pe %d: counting collector kept slices %+v", pe, got)
		}
		if got, want := counted.SliceTotals(pe), kept.SliceTotals(pe); got != want {
			t.Errorf("pe %d: totals %v, want %v", pe, got, want)
		}
	}
	if got, want := counted.SelfReport().Slices, kept.SelfReport().Slices; got != want || want != 8 {
		t.Errorf("slice count %d, want %d (8)", got, want)
	}
}
