// Package experiments regenerates every table and figure of the paper's
// evaluation: the infinite-cache clustering study (Figure 2), the small
// Ocean problem (Figure 3), the finite-capacity studies (Figures 4-8),
// the configuration tables (1, 2), the measured working sets (Table 3),
// the shared-cache cost model (Tables 4, 5) and the clustering-with-
// costs results (Tables 6, 7).
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"clustersim/internal/apps"
	"clustersim/internal/apps/registry"
	"clustersim/internal/core"
	"clustersim/internal/fault"
	"clustersim/internal/obs"
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
	// SampleEvery, when positive, is the simulated-cycle grid on which
	// each point's trace (TraceDir) and manifest (ManifestOut) sample
	// per-cluster counter deltas; on its own it records nothing.
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

	// Stop, when non-nil, is polled before each fresh simulation is
	// started; once it reports true no further point starts, the points
	// in flight finish and are journalled, and the suite returns
	// ErrInterrupted with all finished work flushed (see SignalStop and
	// StopAfter). A data method polls it from its worker goroutines, so
	// it must be safe for concurrent use.
	Stop func() bool

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
	fresh    int // points actually simulated (not replayed)
	replayed int // points served from the journal
	// dry makes Run a planning pass (PlanPoints): it records each new
	// point in planned and returns an empty Result instead of simulating.
	dry     bool
	planned []obs.Point
	// ahead holds the points the running data method has looked up and
	// queued before its render pass reaches them (see prefetch).
	ahead map[obs.Point]*point
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
// replayed instead of re-simulated and a fresh one is journalled. A
// fresh point runs through RunPoint, which attaches the instruments the
// options ask for and writes the point's artifacts under their
// directories; a failure becomes a journalled failure record and an
// error, not a suite crash. With PointTimeout a wall-clock watchdog
// guards the point.
//
// Inside a data method (Table3Data, Fig2Data, ...) the point has
// usually been looked up and started on a worker already (see
// prefetch); Run then waits for it and commits it exactly as it would
// commit a point it computed itself, so the progress lines, manifest
// lines and counters follow the render order.
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
	pt, ok := s.ahead[key]
	if !ok {
		var err error
		if pt, err = s.lookup(key); err != nil {
			return nil, err
		}
	}
	if pt.replay != nil {
		if s.Opt.Progress != nil {
			fmt.Fprintf(s.Opt.Progress, "replayed %s cluster=%d cache=%s from journal: exec %d cycles\n",
				app, clusterSize, obs.CacheLabel(cacheKB), pt.replay.ExecTime)
		}
		s.replayed++
		s.Opt.Obs.PointReplayed(key, "", int64(pt.replay.ExecTime))
		s.runs[key] = pt.replay
		return pt.replay, nil
	}
	if fr := pt.failed; fr != nil {
		s.Opt.Obs.PointFailed(key, "", "journalled as failed: "+fr.Error)
		return nil, fmt.Errorf("%s cluster=%d cache=%s: journalled as failed (re-run with -retry-failed to attempt again): %s",
			app, clusterSize, obs.CacheLabel(cacheKB), fr.Error)
	}
	if pt.done == nil {
		// Not queued on a worker: a direct caller's point.
		if s.Opt.Stop != nil && s.Opt.Stop() {
			return nil, ErrInterrupted
		}
		pt.run, pt.err = s.compute(pt)
	} else if <-pt.done; !pt.ran {
		// The worker loop polled Stop true before it took the point.
		return nil, ErrInterrupted
	}
	if pt.run == nil {
		return nil, pt.err
	}
	s.fresh++
	if pt.err != nil {
		return nil, pt.err
	}
	run := pt.run
	if s.Opt.Progress != nil {
		fmt.Fprintf(s.Opt.Progress, "ran %s cluster=%d cache=%s: exec %d cycles (wall %v)\n",
			app, clusterSize, obs.CacheLabel(cacheKB), run.Result.ExecTime, run.Wall.Round(time.Millisecond))
	}
	if s.Opt.ManifestOut != nil {
		// Compact, one line per point, so the stream is JSONL.
		line, err := json.Marshal(run.Manifest)
		if err == nil {
			_, err = s.Opt.ManifestOut.Write(append(line, '\n'))
		}
		if err != nil {
			return nil, err
		}
	}
	s.runs[key] = run.Result
	return run.Result, nil
}

// point is one Suite point from its journal lookup to its commit.
type point struct {
	key  obs.Point
	w    apps.Runner
	cfg  core.Config
	hash string // the journal key, the watchdog's record and every artifact's configHash
	// What the journal holds for the point, read once per pass: a result
	// to replay or, unless RetryFailed, a failure to report.
	replay *core.Result
	failed *FailureRecord
	// done is set when the point is queued on the worker loop and closes
	// once a worker has computed it (ran) or the loop has stopped without
	// taking it. run and err are the outcome of compute.
	done chan struct{}
	ran  bool
	run  *PointRun
	err  error
}

// lookup resolves one point: its runner, machine and config hash, and
// what the journal holds for it.
func (s *Suite) lookup(key obs.Point) (*point, error) {
	w, err := registry.Lookup(key.App)
	if err != nil {
		return nil, err
	}
	pt := &point{key: key, w: w, cfg: s.Opt.config(key.Cluster, key.CacheKB)}
	if pt.hash, err = telemetry.HashConfig(pt.cfg); err != nil {
		return nil, err
	}
	j := s.Opt.Journal
	if j == nil {
		return pt, nil
	}
	sizeName := s.Opt.Size.String()
	res, ok, err := j.Load(key.App, sizeName, key.Cluster, key.CacheKB, pt.hash)
	if err != nil {
		return nil, err
	}
	s.Opt.Obs.JournalLookup(ok)
	if ok {
		pt.replay = res
		return pt, nil
	}
	if !s.Opt.RetryFailed {
		if pt.failed, _, err = j.LoadFailure(key.App, sizeName, key.Cluster, key.CacheKB, pt.hash); err != nil {
			return nil, err
		}
	}
	return pt, nil
}

// compute is the one fresh-point body, run inline by Run or by a worker:
// the watchdog, RunPoint, then the journal record of the outcome, so a
// point is journalled the moment it finishes. It reads only the options
// and pt, never the suite's own state. A failed point returns a nil run;
// a run returned with an error finished, but an artifact or its journal
// record could not be written.
func (s *Suite) compute(pt *point) (*PointRun, error) {
	key, sizeName := pt.key, s.Opt.Size.String()
	if s.Opt.PointTimeout > 0 {
		timer := s.armWatchdog(key, sizeName, pt.hash)
		defer timer.Stop()
	}
	run, err := RunPoint(pt.w, pt.cfg, s.Opt.Size, pt.hash, s.Opt.artifacts(key), s.Opt.Obs)
	j := s.Opt.Journal
	if run == nil {
		pointErr := fmt.Errorf("%s cluster=%d cache=%s: %w", key.App, key.Cluster, obs.CacheLabel(key.CacheKB), err)
		if j != nil {
			if jerr := j.StoreFailure(FailureRecord{
				App: key.App, Size: sizeName, ClusterSize: key.Cluster, CacheKB: key.CacheKB,
				ConfigHash: pt.hash, Error: err.Error(),
			}); jerr != nil {
				return nil, fmt.Errorf("%w (and journalling the failure failed: %v)", pointErr, jerr)
			}
		}
		return nil, pointErr
	}
	if err == nil && j != nil {
		err = j.Store(PointRecord{
			App: key.App, Size: sizeName, ClusterSize: key.Cluster, CacheKB: key.CacheKB,
			ConfigHash: pt.hash, Result: run.Result,
		})
	}
	return run, err
}

// armWatchdog starts the per-point wall-clock watchdog: if the point is
// still running when the timer fires, the point is journalled as failed
// (so a resume skips it) and the process exits with ExitWatchdog. The
// failure record is fully precomputed here — the callback runs on a
// runtime timer goroutine and must not touch suite state.
func (s *Suite) armWatchdog(key obs.Point, sizeName, hash string) *time.Timer {
	exit := watchdogExit
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
		exit(ExitWatchdog)
	})
}

// watchdogExit ends the process when a watchdog fires; tests replace it.
// armWatchdog reads it when it arms, so a replacement applies to the
// points started after it.
var watchdogExit = os.Exit

// artifacts names one point's files in the options' artifact
// directories, e.g. ocean-c4-16k.profile.json.
func (o Options) artifacts(key obs.Point) Artifacts {
	in := func(dir, ext string) string {
		if dir == "" {
			return ""
		}
		return filepath.Join(dir, key.Name()+ext)
	}
	return Artifacts{
		TracePath:    in(o.TraceDir, ".trace.json"),
		ProfilePath:  in(o.ProfileDir, ".profile.json"),
		ProfileTop:   o.ProfileTop,
		CritpathPath: in(o.CritpathDir, ".critpath.json"),
		SampleEvery:  o.SampleEvery,
		Manifest:     o.ManifestOut != nil,
	}
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
