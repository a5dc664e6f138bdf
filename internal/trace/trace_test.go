package trace_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"

	"clustersim/internal/apps"
	"clustersim/internal/apps/registry"
	"clustersim/internal/core"
	"clustersim/internal/trace"
)

// record runs a small synthetic workload under a collector.
func record(t *testing.T, procs, clusterSize int) *trace.Trace {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Procs = procs
	cfg.ClusterSize = clusterSize
	c := trace.NewCollector(procs)
	cfg.Tracer = c
	synthetic(t, cfg)
	return c.Finish()
}

// synthetic runs a small workload exercising every traced operation:
// references, compute, a placement, a barrier, a lock and a flag, with
// the measured phase starting after initialization.
func synthetic(t *testing.T, cfg core.Config) *core.Result {
	t.Helper()
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := m.Alloc(1<<14, "data")
	m.Place(data, 4096, cfg.Procs-1)
	bar := m.NewBarrier()
	lock := m.NewLock("l")
	flag := m.NewFlag("f")
	res, err := m.Run(func(p *core.Proc) {
		p.Write(data + uint64(p.ID())*64)
		bar.Wait(p)
		if p.ID() == 0 {
			m.BeginMeasurement(p)
		}
		bar.Wait(p)
		for i := 0; i < 40; i++ {
			off := uint64((p.ID()*101+i*7)%256) * 64
			if i%5 == 0 {
				p.Write(data + off)
			} else {
				p.Read(data + off)
			}
			p.Compute(3)
		}
		bar.Wait(p)
		lock.Acquire(p)
		p.Write(data)
		lock.Release(p)
		if p.ID() == 0 {
			flag.Set(p)
		} else {
			flag.Wait(p)
		}
		bar.Wait(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCollectorCaptures(t *testing.T) {
	tr := record(t, 4, 1)
	if tr.Procs != 4 {
		t.Fatalf("procs = %d", tr.Procs)
	}
	if len(tr.Regions) == 0 || tr.Regions[0].Name != "data" {
		t.Fatalf("regions = %+v", tr.Regions)
	}
	if len(tr.Syncs) != 3 {
		t.Fatalf("syncs = %+v", tr.Syncs)
	}
	kinds := map[trace.EventKind]int{}
	for _, ev := range tr.Events {
		kinds[ev.Kind]++
	}
	if kinds[trace.EvRead] != 4*32+0 { // 32 reads per proc in the loop
		t.Errorf("reads = %d", kinds[trace.EvRead])
	}
	if kinds[trace.EvBarrier] != 4*4 || kinds[trace.EvAcquire] != 4 || kinds[trace.EvRelease] != 4 {
		t.Errorf("sync events = %v", kinds)
	}
	if kinds[trace.EvFlagSet] != 1 || kinds[trace.EvFlagWait] != 3 {
		t.Errorf("flag events = %v", kinds)
	}
	if kinds[trace.EvBegin] != 1 {
		t.Errorf("measurement starts = %d, want 1", kinds[trace.EvBegin])
	}
	if len(tr.Placements) != 1 || tr.Placements[0] != (trace.Placement{Base: 4096, Size: 4096, Proc: 3}) {
		t.Errorf("placements = %+v", tr.Placements)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	tr := record(t, 4, 2)
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Procs != tr.Procs || len(got.Events) != len(tr.Events) ||
		len(got.Regions) != len(tr.Regions) || len(got.Syncs) != len(tr.Syncs) {
		t.Fatalf("shape mismatch: %d/%d events", len(got.Events), len(tr.Events))
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d: %+v != %+v", i, got.Events[i], tr.Events[i])
		}
	}
	for i := range tr.Regions {
		if got.Regions[i] != tr.Regions[i] {
			t.Fatalf("region %d mismatch", i)
		}
	}
	if len(got.Placements) != 1 || got.Placements[0] != tr.Placements[0] {
		t.Fatalf("placements %+v, want %+v", got.Placements, tr.Placements)
	}
	for i := range tr.Syncs {
		if got.Syncs[i] != tr.Syncs[i] {
			t.Fatalf("sync %d: %+v != %+v", i, got.Syncs[i], tr.Syncs[i])
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := trace.Read(strings.NewReader("not a trace")); err == nil {
		t.Fatal("want bad-magic error")
	}
	// A version-1 trace lacks placement and measured-phase records.
	if _, err := trace.Read(strings.NewReader("CSTR\x01\x04\x00\x00\x00")); err == nil ||
		!strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("version-1 trace: got %v, want a format-version error", err)
	}
	if _, err := trace.Read(strings.NewReader("")); err == nil {
		t.Fatal("want EOF error")
	}
}

// TestReplayMatchesOriginalConfig: replayed at the configuration it was
// recorded on, a trace reproduces the run exactly — byte-identical
// Result JSON — for the synthetic workload and for every registered
// application. That needs the recorded placements and the start of the
// measured phase, not just the references. Replay calls
// DeclareFixedStreams, so the engine's dispatch loop performs every
// replayed reference, whichever way the recorded run performed it: the
// eight applications that declare themselves race-free ran most of
// theirs through the loop too, while MP3D and the racy intervals of
// Barnes, Raytrace and Volrend ran inline. Across all nine, the replay
// is the run-ahead oracle for those inline references.
func TestReplayMatchesOriginalConfig(t *testing.T) {
	check := func(t *testing.T, cfg core.Config, run func(core.Config) (*core.Result, error)) {
		t.Helper()
		col := trace.NewCollector(cfg.Procs)
		cfg.Tracer = col
		orig, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Tracer = nil
		res, err := trace.Replay(cfg, col.Finish())
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(orig)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("replay Result JSON differs from the recorded run's:\n replay   %s\n recorded %s", got, want)
		}
	}
	t.Run("synthetic", func(t *testing.T) {
		cfg := core.DefaultConfig()
		cfg.Procs = 4
		cfg.ClusterSize = 2
		check(t, cfg, func(cfg core.Config) (*core.Result, error) {
			return synthetic(t, cfg), nil
		})
	})
	for _, w := range registry.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Procs = 16
			cfg.ClusterSize = 4
			cfg.CacheKBPerProc = 4
			check(t, cfg, func(cfg core.Config) (*core.Result, error) {
				return w.Run(cfg, apps.SizeTest)
			})
		})
	}
}

// TestReplayRacyTraceUnderSanitize: Replay runs ahead because a
// recorded stream is fixed, not because it is race-free, so the
// sanitizer's race check holds it to no promise. MP3D races by design
// (its move loop); its replayed trace must pass with Sanitize set.
func TestReplayRacyTraceUnderSanitize(t *testing.T) {
	w, err := registry.Lookup("mp3d")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Procs = 8
	cfg.ClusterSize = 2
	cfg.CacheKBPerProc = 4
	col := trace.NewCollector(cfg.Procs)
	cfg.Tracer = col
	if _, err := w.Run(cfg, apps.SizeTest); err != nil {
		t.Fatal(err)
	}
	cfg.Tracer = nil
	cfg.Sanitize = true
	if _, err := trace.Replay(cfg, col.Finish()); err != nil {
		t.Fatalf("replaying MP3D's trace under the sanitizer: %v", err)
	}
}

func TestReplayAcrossConfigurations(t *testing.T) {
	// The point of traces: record once, replay under different cluster
	// sizes and cache sizes.
	tr := record(t, 4, 1)
	for _, cs := range []int{1, 2, 4} {
		for _, kb := range []int{0, 1} {
			cfg := core.DefaultConfig()
			cfg.Procs = 4
			cfg.ClusterSize = cs
			cfg.CacheKBPerProc = kb
			res, err := trace.Replay(cfg, tr)
			if err != nil {
				t.Fatalf("cluster=%d cache=%d: %v", cs, kb, err)
			}
			if res.ExecTime <= 0 {
				t.Fatalf("cluster=%d: empty replay", cs)
			}
		}
	}
}

func TestReplayRejectsProcMismatch(t *testing.T) {
	tr := record(t, 4, 1)
	cfg := core.DefaultConfig()
	cfg.Procs = 8
	if _, err := trace.Replay(cfg, tr); err == nil {
		t.Fatal("want processor-count mismatch error")
	}
}

func TestReplayDeterministic(t *testing.T) {
	tr := record(t, 4, 1)
	cfg := core.DefaultConfig()
	cfg.Procs = 4
	cfg.ClusterSize = 2
	a, err := trace.Replay(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := trace.Replay(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecTime != b.ExecTime {
		t.Fatalf("replay nondeterministic: %d vs %d", a.ExecTime, b.ExecTime)
	}
}

// Property: Write/Read round-trips arbitrary small event streams.
func TestRoundTripProperty(t *testing.T) {
	f := func(procsSeed uint8, events []struct {
		Proc uint8
		Kind uint8
		Arg  uint32
	}) bool {
		tr := &trace.Trace{Procs: int(procsSeed%16) + 1}
		for _, e := range events {
			tr.Events = append(tr.Events, trace.Event{
				Proc: int32(e.Proc),
				Kind: trace.EventKind(e.Kind % 8),
				Arg:  uint64(e.Arg),
			})
		}
		var buf bytes.Buffer
		if err := trace.Write(&buf, tr); err != nil {
			return false
		}
		got, err := trace.Read(&buf)
		if err != nil || got.Procs != tr.Procs || len(got.Events) != len(tr.Events) {
			return false
		}
		for i := range tr.Events {
			if got.Events[i] != tr.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
