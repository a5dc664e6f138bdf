package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"clustersim/internal/coherence"
	"clustersim/internal/perf"
	"clustersim/internal/stats"
	"clustersim/internal/telemetry"
)

// fixedResult builds a fully deterministic Result by hand, so the
// report goldens are independent of the simulator.
func fixedResult() *Result {
	cfg := DefaultConfig()
	cfg.Procs = 2
	cfg.ClusterSize = 2
	cfg.CacheKBPerProc = 16
	r := &Result{
		Config:   cfg,
		ExecTime: 12345,
		Procs: []stats.Proc{
			{
				Breakdown: stats.Breakdown{CPU: 6000, LoadStall: 3000, MergeStall: 2000, SyncWait: 1345},
				Counters: stats.Counters{
					Reads: 4000, Writes: 2000,
					ReadHits: 3700, WriteHits: 1800,
					ReadMisses: 200, WriteMisses: 100, Upgrades: 80, Merges: 100, WriteMerges: 20,
					LocalClean: 120, LocalDirty: 60, RemoteClean: 80, RemoteDirty: 40,
				},
			},
			{
				Breakdown: stats.Breakdown{CPU: 5000, LoadStall: 4000, MergeStall: 1000, SyncWait: 2345},
				Counters: stats.Counters{
					Reads: 3000, Writes: 1000,
					ReadHits: 2850, WriteHits: 900,
					ReadMisses: 100, WriteMisses: 50, Upgrades: 40, Merges: 50, WriteMerges: 10,
					LocalClean: 50, LocalDirty: 30, RemoteClean: 40, RemoteDirty: 30,
				},
			},
		},
		Finish:    []Clock{12000, 12345},
		Clusters:  []coherence.Stats{{InvalidationsSent: 321, InvalidationsReceived: 321, Writebacks: 12}},
		Footprint: 65536,
	}
	return r
}

const wantSummary = `procs=2 cluster=2 cache/proc=16KB line=64B
  exec time              12345 cycles
  breakdown       cpu 44.6%  load 28.4%  merge 12.2%  sync 14.9%
  references             10000 (7000 reads, 3000 writes)
  read misses              300 + 150 merges (6.429% of reads)
  write misses             150 + 30 merges (6.000% of writes), upgrades 120
  merge rate      1.800% of references
  miss service    local-clean 170  local-dirty 90  remote-clean 120  remote-dirty 70
  invalidations            321
  footprint              65536 bytes
`

func TestWriteSummaryGolden(t *testing.T) {
	var b strings.Builder
	fixedResult().WriteSummary(&b)
	if got := b.String(); got != wantSummary {
		t.Errorf("summary mismatch:\n--- got ---\n%s--- want ---\n%s", got, wantSummary)
	}
}

// TestNormalizeZeroBaseline: a degenerate zero-time baseline produces a
// zero bar, not ±Inf/NaN.
func TestNormalizeZeroBaseline(t *testing.T) {
	r := fixedResult()
	base := fixedResult()
	base.ExecTime = 0
	bar := r.Normalize(base)
	if bar != (NormalizedBar{}) {
		t.Errorf("bar = %+v, want zero value", bar)
	}
	// Sanity: a real baseline still normalizes.
	base.ExecTime = r.ExecTime
	if bar := r.Normalize(base); bar.Total != 100 {
		t.Errorf("self-normalized total = %f, want 100", bar.Total)
	}
}

// TestManifestWithRealResult: the JSON manifest round-trips a concrete
// core.Result and its hash is stable across independent encodings of
// the same config.
func TestManifestWithRealResult(t *testing.T) {
	res := fixedResult()
	write := func() []byte {
		var b bytes.Buffer
		if err := telemetry.WriteManifest(&b, telemetry.Manifest{
			App: "golden", Size: "test", Config: res.Config, Result: res,
		}); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	first, second := write(), write()
	if !bytes.Equal(first, second) {
		t.Fatal("manifest not byte-identical across two encodings of the same run")
	}

	doc, err := telemetry.ReadManifest(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	var cfg Config
	if err := json.Unmarshal(doc.Config, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg != res.Config {
		t.Errorf("config round-trip:\n got %+v\nwant %+v", cfg, res.Config)
	}
	var back Result
	if err := json.Unmarshal(doc.Result, &back); err != nil {
		t.Fatal(err)
	}
	if back.ExecTime != res.ExecTime || back.Footprint != res.Footprint ||
		len(back.Procs) != len(res.Procs) || back.Procs[1] != res.Procs[1] {
		t.Errorf("result round-trip mismatch: %+v", back)
	}

	// The hash must not depend on observability attachments.
	withTel := res.Config
	withTel.Telemetry = telemetry.New()
	withTel.SampleEvery = 999
	withTel.Tracer = nil
	h1, err := telemetry.HashConfig(res.Config)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := telemetry.HashConfig(withTel)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("config hash changed when telemetry was attached")
	}
	if doc.ConfigHash != h1 {
		t.Errorf("manifest hash %s != direct hash %s", doc.ConfigHash, h1)
	}
}

// TestManifestHostBlock: the manifest's host block round-trips, and two
// manifests of the same run that differ only in their host blocks are
// identical once the host block is stripped — the normalization scripts
// (and the reproducibility tests) rely on.
func TestManifestHostBlock(t *testing.T) {
	res := fixedResult()
	write := func(h perf.Host) []byte {
		var b bytes.Buffer
		if err := telemetry.WriteManifest(&b, telemetry.Manifest{
			App: "golden", Size: "test", Config: res.Config, Result: res, Host: h,
		}); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	hostA := perf.Host{GoVersion: "go1.0", GOOS: "linux", GOARCH: "amd64",
		GOMAXPROCS: 8, NumCPU: 8, WallNS: 1e9, HeapPeakBytes: 1 << 20}
	hostB := hostA
	hostB.WallNS = 7e9 // a slower host, same simulation
	hostB.GOMAXPROCS = 2

	first, second := write(hostA), write(hostB)
	if bytes.Equal(first, second) {
		t.Fatal("distinct host blocks encoded identically")
	}
	strip := func(raw []byte) *telemetry.ManifestDoc {
		doc, err := telemetry.ReadManifest(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var h perf.Host
		if err := json.Unmarshal(doc.Host, &h); err != nil {
			t.Fatalf("host block does not parse: %v", err)
		}
		doc.Host = nil // normalization: the host block never identifies a run
		return doc
	}
	a, b := strip(first), strip(second)
	if a.ConfigHash != b.ConfigHash || !bytes.Equal(a.Config, b.Config) || !bytes.Equal(a.Result, b.Result) {
		t.Error("manifests differ beyond the host block")
	}

	// Round-trip fidelity of the block itself.
	doc, err := telemetry.ReadManifest(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	var back perf.Host
	if err := json.Unmarshal(doc.Host, &back); err != nil {
		t.Fatal(err)
	}
	if back != hostA {
		t.Errorf("host round-trip:\n got %+v\nwant %+v", back, hostA)
	}
}
