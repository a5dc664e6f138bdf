// Package experiments regenerates every table and figure of the paper's
// evaluation: the infinite-cache clustering study (Figure 2), the small
// Ocean problem (Figure 3), the finite-capacity studies (Figures 4-8),
// the configuration tables (1, 2), the measured working sets (Table 3),
// the shared-cache cost model (Tables 4, 5) and the clustering-with-
// costs results (Tables 6, 7).
package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"clustersim/internal/apps"
	"clustersim/internal/apps/registry"
	"clustersim/internal/core"
	"clustersim/internal/critpath"
	"clustersim/internal/fault"
	"clustersim/internal/obs"
	"clustersim/internal/profile"
	"clustersim/internal/telemetry"
)

// ClusterSizes are the paper's cluster configurations.
var ClusterSizes = []int{1, 2, 4, 8}

// FiniteCachesKB are the paper's per-processor cache sizes for
// Figures 4-8; 0 denotes the infinite cache.
var FiniteCachesKB = []int{4, 16, 32, 0}

// Options configures a reproduction run.
type Options struct {
	// Procs is the machine size (the paper fixes 64).
	Procs int
	// Size selects problem scale (apps.SizeDefault or apps.SizePaper).
	Size apps.Size
	// Quantum is the engine's event-ordering slack; 0 is exact.
	Quantum int64
	// Sanitize attaches the runtime sanitizer to every run: per-
	// transaction directory/cache cross-validation and virtual-time
	// monotonicity checks, fatal on violation. Requires Quantum 0.
	Sanitize bool
	// Out receives the printed tables; defaults to os.Stdout.
	Out io.Writer
	// Bars renders figures as ASCII stacked bars instead of numeric rows.
	Bars bool
	// CSV emits figure data as CSV rows for external plotting; takes
	// precedence over Bars.
	CSV bool

	// Progress, when non-nil, receives one line per completed
	// simulation point (typically os.Stderr).
	Progress io.Writer
	// SampleEvery, when positive, attaches a telemetry collector to
	// every run and samples per-cluster counter deltas on that
	// simulated-cycle grid.
	SampleEvery int64
	// TraceDir, when set, writes one Chrome trace-event JSON file per
	// simulated point into the directory (created if missing).
	TraceDir string
	// ProfileDir, when set, attaches a sharing profiler to every run and
	// writes one profile JSON per simulated point into the directory
	// (created if missing). ProfileTop bounds the hot-line ranking
	// (default 10).
	ProfileDir string
	ProfileTop int
	// CritpathDir, when set, attaches the critical-path analyzer to
	// every run and writes one critpath JSON per simulated point into
	// the directory (created if missing).
	CritpathDir string
	// ManifestOut, when non-nil, receives one compact JSON run manifest
	// per simulated point, one per line (JSONL).
	ManifestOut io.Writer

	// Faults, when non-nil, attaches the deterministic fault plan to
	// every simulated point (see the fault package). The plan is part of
	// each point's config hash, so faulted and fault-free results never
	// share a journal entry.
	Faults *fault.Config

	// Journal, when non-nil, records every finished point as one JSON
	// file and replays journalled points instead of re-simulating them,
	// making an interrupted suite resumable with byte-identical tables.
	Journal *Journal

	// Stop, when non-nil, is polled before each fresh simulation; when
	// it reports true the suite returns ErrInterrupted with all finished
	// work flushed (see SignalStop).
	Stop func() bool

	// StopAfter, when positive, interrupts the suite after that many
	// freshly simulated (not replayed) points — a deterministic stand-in
	// for an operator interrupt, used by the resume smoke test.
	StopAfter int

	// PointTimeout, when positive, arms a wall-clock watchdog around
	// each simulated point: a point that wedges past the timeout is
	// journalled as failed and the process exits with ExitWatchdog
	// instead of hanging the suite forever.
	PointTimeout time.Duration

	// RetryFailed re-runs points the journal has recorded as failed;
	// by default a journalled failure is reported without re-running.
	RetryFailed bool

	// Obs, when non-nil, receives the live-observability hooks: per-point
	// state transitions for /status, sweep-level metrics, and structured
	// run events. The sweep is strictly wall-clock-side — it never feeds
	// simulated state or the config hash (pinned by TestObsReadOnly).
	Obs *obs.Sweep
}

// DefaultOptions is the paper's machine at the scaled default problem
// sizes.
func DefaultOptions() Options {
	return Options{Procs: 64, Size: apps.SizeDefault}
}

func (o Options) out() io.Writer {
	if o.Out == nil {
		return os.Stdout
	}
	return o.Out
}

func (o Options) config(clusterSize, cacheKB int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Procs = o.Procs
	cfg.ClusterSize = clusterSize
	cfg.CacheKBPerProc = cacheKB
	cfg.Quantum = o.Quantum
	cfg.Sanitize = o.Sanitize
	cfg.Faults = o.Faults
	return cfg
}

// Suite memoizes simulation runs so tables that share configurations
// (e.g. Figure 4 and Table 6) simulate each point once.
type Suite struct {
	Opt      Options
	runs     map[obs.Point]*core.Result
	fresh    int // points actually simulated (not replayed), for StopAfter
	replayed int // points served from the journal
	// dry makes Run a planning pass (PlanPoints): it records each new
	// point in planned and returns an empty Result instead of simulating.
	dry     bool
	planned []obs.Point
}

// Fresh is how many points this suite actually simulated.
func (s *Suite) Fresh() int { return s.fresh }

// Replayed is how many points this suite served from the journal.
func (s *Suite) Replayed() int { return s.replayed }

// NewSuite creates a suite with the given options.
func NewSuite(opt Options) *Suite {
	return &Suite{Opt: opt, runs: make(map[obs.Point]*core.Result)}
}

// Run simulates one (application, cluster size, cache size) point,
// memoized. With a Journal attached, a previously journalled point is
// replayed instead of re-simulated and a fresh one is journalled; the
// point executes under panic isolation (a panic becomes a per-point
// failure record and error, not a suite crash) and, with PointTimeout,
// a wall-clock watchdog.
func (s *Suite) Run(app string, clusterSize, cacheKB int) (*core.Result, error) {
	key := obs.Point{App: app, Cluster: clusterSize, CacheKB: cacheKB}
	if r, ok := s.runs[key]; ok {
		return r, nil
	}
	if s.dry {
		s.planned = append(s.planned, key)
		s.runs[key] = &core.Result{}
		return s.runs[key], nil
	}
	w, err := registry.Lookup(app)
	if err != nil {
		return nil, err
	}
	cfg := s.Opt.config(clusterSize, cacheKB)
	sizeName := s.Opt.Size.String()
	// One hash per point: the journal key, the watchdog's failure record
	// and every artifact's configHash share it.
	var hash string
	if s.Opt.Journal != nil || s.Opt.PointTimeout > 0 || s.Opt.exporting() {
		if hash, err = telemetry.HashConfig(cfg); err != nil {
			return nil, err
		}
	}
	if s.Opt.Journal != nil {
		res, ok, err := s.Opt.Journal.Load(app, sizeName, clusterSize, cacheKB, hash)
		if err != nil {
			return nil, err
		}
		if ok {
			if s.Opt.Progress != nil {
				fmt.Fprintf(s.Opt.Progress, "replayed %s cluster=%d cache=%s from journal: exec %d cycles\n",
					app, clusterSize, obs.CacheLabel(cacheKB), res.ExecTime)
			}
			s.replayed++
			s.Opt.Obs.JournalLookup(true)
			s.Opt.Obs.PointReplayed(key, "", int64(res.ExecTime))
			s.runs[key] = res
			return res, nil
		}
		s.Opt.Obs.JournalLookup(false)
		if !s.Opt.RetryFailed {
			if fr, ok, err := s.Opt.Journal.LoadFailure(app, sizeName, clusterSize, cacheKB, hash); err != nil {
				return nil, err
			} else if ok {
				s.Opt.Obs.PointFailed(key, "", "journalled as failed: "+fr.Error)
				return nil, fmt.Errorf("%s cluster=%d cache=%s: journalled as failed (re-run with -retry-failed to attempt again): %s",
					app, clusterSize, obs.CacheLabel(cacheKB), fr.Error)
			}
		}
	}
	if s.Opt.Stop != nil && s.Opt.Stop() {
		return nil, ErrInterrupted
	}
	if s.Opt.StopAfter > 0 && s.fresh >= s.Opt.StopAfter {
		return nil, ErrInterrupted
	}
	var col *telemetry.Collector
	if s.Opt.observing() {
		col = telemetry.New()
		cfg.Telemetry = col
		cfg.SampleEvery = s.Opt.SampleEvery
	}
	var prof *profile.Collector
	if s.Opt.ProfileDir != "" {
		prof = profile.New()
		cfg.Profile = prof
	}
	var crit *critpath.Analyzer
	if s.Opt.CritpathDir != "" {
		crit = critpath.New()
		cfg.Critpath = crit
	}
	if s.Opt.PointTimeout > 0 {
		timer := s.armWatchdog(key, sizeName, hash)
		defer timer.Stop()
	}
	s.Opt.Obs.PointStarted(key, "", "")
	// Wall timing here feeds the progress line and run manifest only,
	// never simulated state.
	start := time.Now() //simlint:allow wallclock
	res, err := runPoint(w, cfg, s.Opt.Size)
	if err != nil {
		s.Opt.Obs.PointFailed(key, "", err.Error())
		pointErr := fmt.Errorf("%s cluster=%d cache=%s: %w", app, clusterSize, obs.CacheLabel(cacheKB), err)
		if s.Opt.Journal != nil {
			if jerr := s.Opt.Journal.StoreFailure(FailureRecord{
				App: app, Size: sizeName, ClusterSize: clusterSize, CacheKB: cacheKB,
				ConfigHash: hash, Error: err.Error(),
			}); jerr != nil {
				return nil, fmt.Errorf("%w (and journalling the failure failed: %v)", pointErr, jerr)
			}
		}
		return nil, pointErr
	}
	s.fresh++
	wall := time.Since(start) //simlint:allow wallclock
	s.Opt.Obs.PointDone(key, "", wall, int64(res.ExecTime))
	if err := s.export(key, cfg, hash, col, prof, crit, res, wall); err != nil {
		return nil, err
	}
	if s.Opt.Journal != nil {
		if err := s.Opt.Journal.Store(PointRecord{
			App: app, Size: sizeName, ClusterSize: clusterSize, CacheKB: cacheKB,
			ConfigHash: hash, Result: res,
		}); err != nil {
			return nil, err
		}
	}
	s.runs[key] = res
	return res, nil
}

// runPoint executes one workload under panic isolation: a panic that
// escapes the engine (application setup or verification code running
// outside Scheduler.Run) is converted to an error carrying the
// workload's coordinates instead of killing the whole suite. Engine-
// internal panics are already annotated and converted by the scheduler.
func runPoint(w apps.Runner, cfg core.Config, size apps.Size) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("point panicked outside the engine: %v", r)
		}
	}()
	return w.Run(cfg, size)
}

// armWatchdog starts the per-point wall-clock watchdog: if the point is
// still running when the timer fires, the point is journalled as failed
// (so a resume skips it) and the process exits with ExitWatchdog. The
// failure record is fully precomputed here — the callback runs on a
// runtime timer goroutine and must not touch suite state.
func (s *Suite) armWatchdog(key obs.Point, sizeName, hash string) *time.Timer {
	j := s.Opt.Journal
	sweep := s.Opt.Obs
	timeout := s.Opt.PointTimeout
	rec := FailureRecord{
		App: key.App, Size: sizeName, ClusterSize: key.Cluster, CacheKB: key.CacheKB,
		ConfigHash: hash,
		Error:      fmt.Sprintf("watchdog: point exceeded the %v wall-clock budget", timeout),
	}
	// Harness-level wall clock: the watchdog guards the real process
	// against a wedged point and never feeds simulated state.
	return time.AfterFunc(timeout, func() { //simlint:allow wallclock
		fmt.Fprintf(os.Stderr, "experiments: watchdog: %s cluster=%d cache=%s still running after %v; aborting\n",
			key.App, key.Cluster, obs.CacheLabel(key.CacheKB), timeout)
		// Last event of the log: the timer goroutine owns no suite state,
		// and the sweep's hooks are safe from any goroutine.
		sweep.PointTimeout(key, timeout)
		if j != nil {
			if err := j.StoreFailure(rec); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: watchdog:", err)
			} else {
				fmt.Fprintf(os.Stderr, "experiments: point journalled as failed; resume from -state %s\n", j.Dir())
			}
		}
		os.Exit(ExitWatchdog)
	})
}

// observing reports whether runs need a telemetry collector attached.
func (o Options) observing() bool {
	return o.SampleEvery > 0 || o.TraceDir != "" || o.ManifestOut != nil
}

// exporting reports whether runs write artifacts that carry the
// point's config hash.
func (o Options) exporting() bool {
	return o.TraceDir != "" || o.ProfileDir != "" || o.CritpathDir != "" || o.ManifestOut != nil
}

// artifactPath is one point's artifact file in dir (created if
// missing), e.g. ocean-c4-16k.profile.json.
func artifactPath(dir string, key obs.Point, ext string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, key.Name()+ext), nil
}

// export emits the per-point observability artifacts: a progress line,
// a Chrome trace file, a sharing-profile JSON, a critical-path JSON,
// and a manifest JSONL row. hash is the point's config hash; the files
// are written atomically, so a crash never leaves a torn artifact.
func (s *Suite) export(key obs.Point, cfg core.Config, hash string, col *telemetry.Collector,
	prof *profile.Collector, crit *critpath.Analyzer, res *core.Result, wall time.Duration) error {
	if s.Opt.Progress != nil {
		fmt.Fprintf(s.Opt.Progress, "ran %s cluster=%d cache=%s: exec %d cycles (wall %v)\n",
			key.App, key.Cluster, obs.CacheLabel(key.CacheKB), res.ExecTime, wall.Round(time.Millisecond))
	}
	var profReport *profile.Report
	if prof != nil {
		top := s.Opt.ProfileTop
		if top <= 0 {
			top = 10
		}
		profReport = prof.Report(top)
		profReport.App, profReport.Size, profReport.ConfigHash = key.App, s.Opt.Size.String(), hash
		path, err := artifactPath(s.Opt.ProfileDir, key, ".profile.json")
		if err != nil {
			return err
		}
		if err := telemetry.AtomicFile(path, func(w io.Writer) error {
			return profile.WriteReport(w, profReport)
		}); err != nil {
			return err
		}
	}
	var critReport *critpath.Report
	if crit != nil {
		critReport = crit.Report(0)
		critReport.App, critReport.Size, critReport.ConfigHash = key.App, s.Opt.Size.String(), hash
		path, err := artifactPath(s.Opt.CritpathDir, key, ".critpath.json")
		if err != nil {
			return err
		}
		if err := telemetry.AtomicFile(path, func(w io.Writer) error {
			return critpath.WriteReport(w, critReport)
		}); err != nil {
			return err
		}
	}
	if col == nil {
		return nil
	}
	if s.Opt.TraceDir != "" {
		path, err := artifactPath(s.Opt.TraceDir, key, ".trace.json")
		if err != nil {
			return err
		}
		if err := telemetry.AtomicFile(path, func(w io.Writer) error {
			return telemetry.WriteChromeTrace(w, col, map[string]string{
				"app": key.App, "size": s.Opt.Size.String(), "configHash": hash,
			})
		}); err != nil {
			return err
		}
	}
	if s.Opt.ManifestOut != nil {
		// Compact (one line) so the stream is JSONL.
		var b bytes.Buffer
		m := telemetry.Manifest{
			App:        key.App,
			Size:       s.Opt.Size.String(),
			ConfigHash: hash,
			Config:     cfg,
			Result:     res,
			Memory:     res.MemoryReport(),
			Telemetry:  col.SelfReport(),
		}
		if profReport != nil {
			m.Profile = profReport.Summary()
		}
		if critReport != nil {
			m.Critpath = critReport.Summary()
		}
		if err := telemetry.WriteManifest(&b, m); err != nil {
			return err
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, b.Bytes()); err != nil {
			return err
		}
		compact.WriteByte('\n')
		if _, err := s.Opt.ManifestOut.Write(compact.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// Bar is one stacked bar of a paper figure.
type Bar struct {
	App         string
	ClusterSize int
	CacheKB     int // 0 = infinite
	core.NormalizedBar
}

// barsFor produces the bars of one application at one cache size,
// normalized to the 1-processor-per-cluster configuration.
func (s *Suite) barsFor(app string, cacheKB int) ([]Bar, error) {
	base, err := s.Run(app, 1, cacheKB)
	if err != nil {
		return nil, err
	}
	var out []Bar
	for _, cs := range ClusterSizes {
		res, err := s.Run(app, cs, cacheKB)
		if err != nil {
			return nil, err
		}
		out = append(out, Bar{App: app, ClusterSize: cs, CacheKB: cacheKB,
			NormalizedBar: res.Normalize(base)})
	}
	return out, nil
}

func (o Options) printBars(w io.Writer, bars []Bar) {
	if o.CSV {
		if err := WriteBarsCSV(w, bars); err != nil {
			fmt.Fprintln(w, "csv error:", err)
		}
		return
	}
	if o.Bars {
		RenderBars(w, bars)
		return
	}
	printBars(w, bars)
}

func printBars(w io.Writer, bars []Bar) {
	fmt.Fprintf(w, "%-10s %-6s %-6s %8s %8s %8s %8s %8s\n",
		"app", "cache", "clus", "total", "cpu", "load", "merge", "sync")
	for _, b := range bars {
		fmt.Fprintf(w, "%-10s %-6s %-6s %8.1f %8.1f %8.1f %8.1f %8.1f\n",
			b.App, obs.CacheLabel(b.CacheKB), fmt.Sprintf("%dp", b.ClusterSize),
			b.Total, b.CPU, b.Load, b.Merge, b.Sync)
	}
}
