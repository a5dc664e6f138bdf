package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clustersim/internal/apps"
	"clustersim/internal/core"
	"clustersim/internal/obs"
	"clustersim/internal/telemetry"
)

// TestRunPointFailureWritesNothing drives a panicking workload through
// the shared runner with every artifact asked for and a sweep attached:
// the panic comes back as an error, the sweep settles the point as
// failed with exactly one point-fail event, and no artifact file or
// directory is created.
func TestRunPointFailureWritesNothing(t *testing.T) {
	dir := t.TempDir()
	art := Artifacts{
		TracePath:    filepath.Join(dir, "trace", "boom.trace.json"),
		ProfilePath:  filepath.Join(dir, "profile", "boom.profile.json"),
		CritpathPath: filepath.Join(dir, "critpath", "boom.critpath.json"),
		SampleEvery:  1000,
		OnSample:     func(telemetry.Clock, telemetry.ClusterSample) {},
		Manifest:     true,
	}
	log := obs.NewLog(nil, "test")
	sweep := obs.NewSweep("test", obs.NewRegistry(), log)
	w := apps.Runner{Name: "boom", Run: func(core.Config, apps.Size) (*core.Result, error) {
		panic("setup exploded")
	}}
	opt := journalOpts(t)
	run, err := RunPoint(w, opt.config(2, 4), opt.Size, "sha256:test", art, sweep)
	if run != nil || err == nil || !strings.Contains(err.Error(), "setup exploded") {
		t.Fatalf("want the panic back as an error and no run, got %+v, %v", run, err)
	}

	rows := sweep.Status().Points
	if len(rows) != 1 || rows[0].Point != "boom-c2-4k" || rows[0].State != obs.PointFailed {
		t.Errorf("sweep rows = %+v, want one failed boom-c2-4k", rows)
	}
	fails := 0
	for _, e := range log.Recent() {
		if e.Kind == obs.EventPointFail {
			fails++
		}
	}
	if fails != 1 {
		t.Errorf("%d point-fail events, want 1", fails)
	}

	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("a failed point left %s behind", e.Name())
	}
}
