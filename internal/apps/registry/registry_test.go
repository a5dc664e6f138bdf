package registry

import (
	"testing"

	"clustersim/internal/apps"
	"clustersim/internal/core"
	"clustersim/internal/trace"
)

func TestAllNinePresent(t *testing.T) {
	want := []string{"barnes", "fft", "fmm", "lu", "mp3d", "ocean", "radix", "raytrace", "volrend"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("position %d: %q, want %q (Table 2 order)", i, got[i], want[i])
		}
	}
}

func TestLookup(t *testing.T) {
	w, err := Lookup("ocean")
	if err != nil || w.Name != "ocean" {
		t.Fatalf("Lookup(ocean) = %v, %v", w, err)
	}
	if _, err := Lookup("doom"); err == nil {
		t.Fatal("want error for unknown app")
	}
}

func TestMetadataComplete(t *testing.T) {
	for _, w := range All() {
		if w.Representative == "" || w.PaperProblem == "" || w.Communication == "" ||
			w.WorkingSet == "" || w.Run == nil {
			t.Errorf("%s: incomplete metadata %+v", w.Name, w)
		}
	}
}

// TestEveryWorkloadRunsAtTestSize is the cross-application smoke test:
// all nine verify at SizeTest on a small clustered machine.
func TestEveryWorkloadRunsAtTestSize(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Procs = 4
	cfg.ClusterSize = 2
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res, err := w.Run(cfg, apps.SizeTest)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if res.ExecTime <= 0 || res.Aggregate().References() == 0 {
				t.Fatalf("%s: empty run", w.Name)
			}
		})
	}
}

// TestEveryWorkloadFiniteCache runs all nine with a small finite cache,
// exercising evictions, replacement hints and writebacks end to end.
func TestEveryWorkloadFiniteCache(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Procs = 4
	cfg.ClusterSize = 2
	cfg.CacheKBPerProc = 4
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			if _, err := w.Run(cfg, apps.SizeTest); err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
		})
	}
}

// TestEveryWorkloadSharedMemoryClusters runs all nine applications on
// the paper's second cluster organisation (private caches + attraction
// memory over a snoopy bus).
func TestEveryWorkloadSharedMemoryClusters(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Procs = 4
	cfg.ClusterSize = 2
	cfg.CacheKBPerProc = 4
	cfg.Organization = core.SharedMemory
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			if _, err := w.Run(cfg, apps.SizeTest); err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
		})
	}
}

// TestEveryWorkloadSetAssociative runs all nine with 2-way
// set-associative cluster caches (the future-work configuration).
func TestEveryWorkloadSetAssociative(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Procs = 4
	cfg.ClusterSize = 2
	cfg.CacheKBPerProc = 4
	cfg.Assoc = 2
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			if _, err := w.Run(cfg, apps.SizeTest); err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
		})
	}
}

// TestEveryWorkloadTraceable records a trace of every application and
// replays it through a different cluster size, checking reference-count
// fidelity over the measured phase.
func TestEveryWorkloadTraceable(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			col := trace.NewCollector(4)
			cfg := core.DefaultConfig()
			cfg.Procs = 4
			cfg.ClusterSize = 1
			cfg.Tracer = col
			res, err := w.Run(cfg, apps.SizeTest)
			if err != nil {
				t.Fatal(err)
			}
			tr := col.Finish()
			rcfg := core.DefaultConfig()
			rcfg.Procs = 4
			rcfg.ClusterSize = 2
			rep, err := trace.Replay(rcfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			// The trace carries the start of the measured phase, so the
			// replay measures exactly the references the original run
			// measured, whatever the cluster size.
			ra, oa := rep.Aggregate(), res.Aggregate()
			if ra.Reads != oa.Reads || ra.Writes != oa.Writes {
				t.Fatalf("replay refs %d/%d differ from the recorded run's %d/%d",
					ra.Reads, ra.Writes, oa.Reads, oa.Writes)
			}
		})
	}
}
