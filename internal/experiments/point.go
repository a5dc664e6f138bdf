package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"clustersim/internal/apps"
	"clustersim/internal/core"
	"clustersim/internal/critpath"
	"clustersim/internal/obs"
	"clustersim/internal/profile"
	"clustersim/internal/telemetry"
)

// Artifacts says what one point run records besides its Result; the
// zero value attaches no instrument. Each path, when set, receives one
// artifact file: the Chrome trace, the sharing profile (ProfileTop hot
// lines, default 10) or the critical-path report. SampleEvery, when
// positive, is the telemetry sampling grid in cycles, and OnSample
// observes each sample as it lands (telemetry.Collector.SetOnSample).
// Manifest asks for the run manifest, without a host block.
type Artifacts struct {
	TracePath, ProfilePath, CritpathPath string
	ProfileTop                           int
	SampleEvery                          int64
	OnSample                             func(at telemetry.Clock, total telemetry.ClusterSample)
	Manifest                             bool
}

// PointRun is one finished point: its Result, the wall time of the
// simulation, the attached analyzers' reports and the manifest.
type PointRun struct {
	Result   *core.Result
	Wall     time.Duration
	Profile  *profile.Report
	Critpath *critpath.Report
	Manifest *telemetry.Manifest
}

// RunPoint runs one point with the instruments art asks for; it is the
// fresh-point body of Suite.Run and the whole of a clustersim run. A
// telemetry collector is attached for sampling, a trace or a manifest,
// a sharing profiler for a profile path and the critical-path analyzer
// for a critpath path. The point is reported to sweep (nil is fine) as
// (w.Name, cfg.ClusterSize, cfg.CacheKBPerProc) and runs under panic
// isolation. On success each artifact is stamped with w.Name, size and
// hash and written atomically, its directory created if missing. A
// failed point returns a nil run and writes nothing; a run returned
// with an error finished, but an artifact could not be written.
func RunPoint(w apps.Runner, cfg core.Config, size apps.Size, hash string, art Artifacts, sweep *obs.Sweep) (*PointRun, error) {
	var col *telemetry.Collector
	if art.SampleEvery > 0 || art.TracePath != "" || art.Manifest {
		col = telemetry.New()
		col.SetOnSample(art.OnSample)
		cfg.Telemetry, cfg.SampleEvery = col, art.SampleEvery
	}
	if art.ProfilePath != "" {
		cfg.Profile = profile.New()
	}
	if art.CritpathPath != "" {
		cfg.Critpath = critpath.New()
	}
	key := obs.Point{App: w.Name, Cluster: cfg.ClusterSize, CacheKB: cfg.CacheKBPerProc}
	sweep.PointStarted(key, "", "")
	// Wall timing feeds the sweep and progress lines, never simulated state.
	start := time.Now() //simlint:allow wallclock
	res, err := runPoint(w, cfg, size)
	if err != nil {
		sweep.PointFailed(key, "", err.Error())
		return nil, err
	}
	run := &PointRun{Result: res, Wall: time.Since(start)} //simlint:allow wallclock
	sweep.PointDone(key, "", run.Wall, int64(res.ExecTime))

	type file struct {
		path  string
		write func(io.Writer) error
	}
	var files []file
	sizeName := size.String()
	if cfg.Profile != nil {
		top := art.ProfileTop
		if top <= 0 {
			top = 10
		}
		run.Profile = cfg.Profile.Report(top)
		run.Profile.App, run.Profile.Size, run.Profile.ConfigHash = w.Name, sizeName, hash
		files = append(files, file{art.ProfilePath, func(f io.Writer) error { return profile.WriteReport(f, run.Profile) }})
	}
	if cfg.Critpath != nil {
		run.Critpath = cfg.Critpath.Report(0)
		run.Critpath.App, run.Critpath.Size, run.Critpath.ConfigHash = w.Name, sizeName, hash
		files = append(files, file{art.CritpathPath, func(f io.Writer) error { return critpath.WriteReport(f, run.Critpath) }})
	}
	if art.TracePath != "" {
		meta := map[string]string{"app": w.Name, "size": sizeName, "configHash": hash}
		files = append(files, file{art.TracePath, func(f io.Writer) error { return telemetry.WriteChromeTrace(f, col, meta) }})
	}
	for _, a := range files {
		if err := os.MkdirAll(filepath.Dir(a.path), 0o755); err != nil {
			return run, err
		}
		if err := telemetry.AtomicFile(a.path, a.write); err != nil {
			return run, err
		}
	}
	if art.Manifest {
		run.Manifest = &telemetry.Manifest{Schema: telemetry.SchemaV1, App: w.Name, Size: sizeName,
			ConfigHash: hash, Config: cfg, Result: res, Memory: res.MemoryReport(), Telemetry: col.SelfReport()}
		if run.Profile != nil {
			run.Manifest.Profile = run.Profile.Summary()
		}
		if run.Critpath != nil {
			run.Manifest.Critpath = run.Critpath.Summary()
		}
	}
	return run, nil
}

// runPoint executes one workload under panic isolation: a panic that
// escapes the engine (application setup or verification code outside
// Scheduler.Run, whose own panics the scheduler already converts) comes
// back as an error instead of killing the process.
func runPoint(w apps.Runner, cfg core.Config, size apps.Size) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("point panicked outside the engine: %v", r)
		}
	}()
	return w.Run(cfg, size)
}
