package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"clustersim/internal/apps"
	"clustersim/internal/apps/registry"
	"clustersim/internal/core"
	"clustersim/internal/critpath"
	"clustersim/internal/perf"
	"clustersim/internal/profile"
	"clustersim/internal/telemetry"
	"clustersim/internal/trace"
)

// detConfig is the small clustered machine every registered application
// is replayed on — finite caches so eviction, hint and writeback paths
// are all exercised.
func detConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Procs = 8
	cfg.ClusterSize = 2
	cfg.CacheKBPerProc = 16
	return cfg
}

// TestCrossRunDeterminism replays every registered application twice
// under an identical configuration and requires byte-identical JSON
// results (every counter and finish time) and equal config hashes —
// the simulator's bit-reproducibility guarantee, end to end. A third
// run attaches every observer at once — sanitizer, tracer, telemetry
// with interval sampling, sharing profiler, critical-path analyzer and
// performance monitor — and must also be byte-identical: observers are
// read-only and must not perturb the simulation they watch. The
// profile and critical-path reports of that run must in turn be
// byte-identical to runs with each attached alone, so no observer's
// output depends on which others share the machine.
func TestCrossRunDeterminism(t *testing.T) {
	for _, w := range registry.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			run := func(attach func(*core.Config)) ([]byte, string) {
				t.Helper()
				cfg := detConfig()
				if attach != nil {
					attach(&cfg)
				}
				res, err := w.Run(cfg, apps.SizeTest)
				if err != nil {
					t.Fatal(err)
				}
				blob, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				hash, err := telemetry.HashConfig(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return blob, hash
			}
			first, hash1 := run(nil)
			second, hash2 := run(nil)
			if hash1 != hash2 {
				t.Errorf("config hash differs across runs: %s vs %s", hash1, hash2)
			}
			if !bytes.Equal(first, second) {
				t.Errorf("results differ across identical runs:\n run 1: %s\n run 2: %s",
					diffHint(first, second), diffHint(second, first))
			}
			prof, crit := profile.New(), critpath.New()
			composed, hash3 := run(func(cfg *core.Config) {
				cfg.Sanitize = true
				cfg.Tracer = trace.NewCollector(cfg.Procs)
				cfg.Telemetry = telemetry.New()
				cfg.SampleEvery = 5000
				cfg.Profile = prof
				cfg.Critpath = crit
				cfg.Perf = perf.New()
			})
			if hash3 != hash1 {
				t.Errorf("attaching every observer changed the config hash: %s vs %s", hash3, hash1)
			}
			if !bytes.Equal(first, composed) {
				t.Errorf("observers perturbed the run:\n plain:    %s\n observed: %s",
					diffHint(first, composed), diffHint(composed, first))
			}
			aloneProf, aloneCrit := profile.New(), critpath.New()
			run(func(cfg *core.Config) { cfg.Profile = aloneProf })
			run(func(cfg *core.Config) { cfg.Critpath = aloneCrit })
			var got, want bytes.Buffer
			if err := profile.WriteReport(&got, prof.Report(10)); err != nil {
				t.Fatal(err)
			}
			if err := profile.WriteReport(&want, aloneProf.Report(10)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("profile report depends on the other observers:\n composed: %s\n alone:    %s",
					diffHint(got.Bytes(), want.Bytes()), diffHint(want.Bytes(), got.Bytes()))
			}
			got.Reset()
			want.Reset()
			if err := critpath.WriteReport(&got, crit.Report(0)); err != nil {
				t.Fatal(err)
			}
			if err := critpath.WriteReport(&want, aloneCrit.Report(0)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("critpath report depends on the other observers:\n composed: %s\n alone:    %s",
					diffHint(got.Bytes(), want.Bytes()), diffHint(want.Bytes(), got.Bytes()))
			}
		})
	}
}

// TestProfilerDeterminism attaches the sharing profiler to every
// registered application and requires (a) the profiler is read-only —
// the Result JSON and config hash stay byte-identical to an unprofiled
// run — and (b) the profile report itself is byte-identical across two
// profiled runs of the same configuration.
func TestProfilerDeterminism(t *testing.T) {
	for _, w := range registry.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			run := func(withProfile bool) (result, prof []byte, hash string) {
				t.Helper()
				cfg := detConfig()
				var col *profile.Collector
				if withProfile {
					col = profile.New()
					cfg.Profile = col
				}
				res, err := w.Run(cfg, apps.SizeTest)
				if err != nil {
					t.Fatal(err)
				}
				blob, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				h, err := telemetry.HashConfig(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if col != nil {
					rep := col.Report(10)
					// The profiler classifies exactly the machine's fetch
					// misses, no more, no fewer.
					if got, want := rep.Totals.Misses.Total(), res.Aggregate().Misses(); got != want {
						t.Errorf("profile classified %d misses, machine counted %d", got, want)
					}
					var buf bytes.Buffer
					if err := profile.WriteReport(&buf, rep); err != nil {
						t.Fatal(err)
					}
					prof = buf.Bytes()
				}
				return blob, prof, h
			}
			plain, _, hash1 := run(false)
			profiled1, report1, hash2 := run(true)
			if hash2 != hash1 {
				t.Errorf("Profile changed the config hash: %s vs %s", hash2, hash1)
			}
			if !bytes.Equal(plain, profiled1) {
				t.Errorf("profiler perturbed the run:\n plain:    %s\n profiled: %s",
					diffHint(plain, profiled1), diffHint(profiled1, plain))
			}
			_, report2, _ := run(true)
			if !bytes.Equal(report1, report2) {
				t.Errorf("profile reports differ across identical runs:\n run 1: %s\n run 2: %s",
					diffHint(report1, report2), diffHint(report2, report1))
			}
			if len(report1) == 0 || !bytes.Contains(report1, []byte(profile.SchemaV1)) {
				t.Errorf("profile report missing schema header: %.120s", report1)
			}
		})
	}
}

// diffHint trims a JSON blob to the window around its first divergence
// from other, keeping failure output readable.
func diffHint(blob, other []byte) []byte {
	i := 0
	for i < len(blob) && i < len(other) && blob[i] == other[i] {
		i++
	}
	lo, hi := i-40, i+80
	if lo < 0 {
		lo = 0
	}
	if hi > len(blob) {
		hi = len(blob)
	}
	return blob[lo:hi]
}
