package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"clustersim/internal/apps/registry"
	"clustersim/internal/core"
	"clustersim/internal/critpath"
	"clustersim/internal/engine"
	"clustersim/internal/experiments"
	"clustersim/internal/perf"
	"clustersim/internal/profile"
	"clustersim/internal/telemetry"
)

// setupReps is how many times a timed run sets up; setup_s is the
// median. The first repetition is timed from process start.
const setupReps = 5

// timedSetup runs setup setupReps times and returns the median seconds.
//
//simlint:allow wallclock — benchmark timing, never simulated state
func (b *bench) timedSetup(setup func() error) (float64, error) {
	var ts []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if i == 0 {
			start = procStart
		}
		if err := b.check.reload(); err != nil {
			return 0, err
		}
		if err := setup(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	return median(ts), nil
}

// resetState empties the run's journal and artifact directory.
func (b *bench) resetState() error {
	dir := filepath.Join(b.work, "state")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}

// warmUp runs one small checked point (test size, 16 processors, one
// processor per cluster) before anything is timed.
func (b *bench) warmUp(app string, cacheKB int) error {
	w, err := registry.Lookup(app)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.Procs = reproProcs
	cfg.CacheKBPerProc = cacheKB
	key := pointKey(app, reproSize.String(), reproProcs, 1, cacheKB)
	res, err := safeRun(w, cfg, reproSize)
	if err != nil {
		b.check.fail(key, err)
		return nil
	}
	b.check.ok(key, resultDigest(res))
	return nil
}

// endToEnd adds the metrics every timed workload reports.
func (b *bench) endToEnd(m map[string]metric, setupS float64) error {
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	m["setup_s"] = metric{setupS, "s"}
	m["peak_rss_mib"] = metric{rss, "MiB"}
	m["ok_frac"] = metric{div(float64(b.check.attempted-b.check.failed), float64(b.check.attempted)), "ratio"}
	return nil
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics reads the engine, apps, coherence and core layers off
// perf-monitored runs: the monitor's three phases (sched, app,
// coherence) tile its wall time, and the Results give the counts.
func (b *bench) layerMetrics(runs []pointRun) map[string]metric {
	var (
		appNS, schedNS, cohNS, wallNS, gcNS, cycles int64
		handoffs, allocs, nrefs, misses, merges     uint64
		inval, hints, writebacks                    uint64
	)
	for _, r := range runs {
		rep := r.mon.Report()
		appNS += rep.Phases.AppNS
		schedNS += rep.Phases.SchedNS
		cohNS += rep.Phases.CoherenceNS
		wallNS += rep.WallNS
		gcNS += rep.Host.GCPauseTotalNS
		handoffs += rep.Handoffs
		allocs += rep.Allocs
		a := r.res.Aggregate()
		nrefs += a.Reads + a.Writes
		misses += a.ReadMisses + a.WriteMisses
		merges += a.Merges + a.WriteMerges
		cycles += r.res.ExecTime
		for _, c := range r.res.Clusters {
			inval += c.InvalidationsSent
			hints += c.ReplacementHints
			writebacks += c.Writebacks
		}
	}
	b.check.invariant("perf phases tile the monitor's wall", appNS+schedNS+cohNS == wallNS)
	r := float64(nrefs)
	return map[string]metric{
		"engine.handoffs":             {float64(handoffs), "count"},
		"engine.handoffs_per_ref":     {div(float64(handoffs), r), "ratio"},
		"engine.self_s":               {float64(schedNS) / 1e9, "s"},
		"engine.ns_per_handoff":       {div(float64(schedNS), float64(handoffs)), "ns"},
		"apps.self_s":                 {float64(appNS) / 1e9, "s"},
		"apps.ns_per_ref":             {div(float64(appNS), r), "ns"},
		"coherence.self_s":            {float64(cohNS) / 1e9, "s"},
		"coherence.ns_per_ref":        {div(float64(cohNS), r), "ns"},
		"coherence.miss_ratio":        {div(float64(misses), r), "ratio"},
		"coherence.invalidations":     {float64(inval), "count"},
		"coherence.replacement_hints": {float64(hints), "count"},
		"coherence.writebacks":        {float64(writebacks), "count"},
		"coherence.merges":            {float64(merges), "count"},
		"core.refs":                   {r, "count"},
		"core.sim_cycles":             {float64(cycles), "count"},
		"core.allocs_per_point":       {div(float64(allocs), float64(len(runs))), "count"},
		"core.gc_pause_s":             {float64(gcNS) / 1e9, "s"},
		"perf.wall_s":                 {float64(wallNS) / 1e9, "s"},
	}
}

// sharedLayers adds the per-layer metrics every traced run reports:
// the experiments layer from the repro workload with the obs tracker
// attached, each observer's cost on a fixed subset of repro points, the
// engine's pure-handoff cost, and GOMAXPROCS. With subsetLayers the
// engine, apps, coherence and core metrics come from the subset run
// with the perf monitor (the repro workload has no monitor of its own).
func (b *bench) sharedLayers(m map[string]metric, subsetLayers bool) error {
	if err := b.resetState(); err != nil {
		return err
	}
	if err := b.experimentLayers(m); err != nil {
		return err
	}
	if err := b.observerLayers(m, subsetLayers); err != nil {
		return err
	}
	for _, pes := range []int{64, 16} {
		ns, err := yieldNS(pes)
		if err != nil {
			return err
		}
		m[fmt.Sprintf("engine.yield_ns_%dpe", pes)] = metric{ns, "ns"}
	}
	m["host.gomaxprocs"] = metric{float64(runtime.GOMAXPROCS(0)), "count"}
	return nil
}

// observerPoint is one point of the fixed subset of repro-resume
// points the observer costs are measured on.
type observerPoint struct {
	sweepPoint
	cacheKB int
}

// observerPoints is that subset: every Figure 2 app with infinite
// caches and every Figure 4-8 app with 4 KB caches, at cluster size 4.
func observerPoints() ([]observerPoint, error) {
	var pts []observerPoint
	add := func(app string, cacheKB int) error {
		w, err := registry.Lookup(app)
		pts = append(pts, observerPoint{sweepPoint{app: app, cluster: 4, run: w}, cacheKB})
		return err
	}
	for _, app := range experiments.Fig2Apps {
		if err := add(app, 0); err != nil {
			return nil, err
		}
	}
	for _, fig := range []int{4, 5, 6, 7, 8} {
		if err := add(experiments.FiniteFigures[fig], 4); err != nil {
			return nil, err
		}
	}
	return pts, nil
}

// observerModes are the observers measured alone against "none".
var observerModes = []string{"none", "telemetry", "profile", "critpath", "perf"}

// observerRounds is how many times every point runs under every mode;
// a point's cost under a mode is its fastest round.
const observerRounds = 3

func (b *bench) observerLayers(m map[string]metric, subsetLayers bool) error {
	pts, err := observerPoints()
	if err != nil {
		return err
	}
	fastest := map[string][]float64{}
	for _, mode := range observerModes {
		fastest[mode] = make([]float64, len(pts))
	}
	var monitored []pointRun
	for round := 0; round < observerRounds; round++ {
		pass := b.spans.begin("observers", -1)
		for i, p := range pts {
			// The modes of one point run back to back, so they see the
			// same host load.
			for _, mode := range observerModes {
				cfg := core.DefaultConfig()
				cfg.Procs = reproProcs
				cfg.ClusterSize = p.cluster
				cfg.CacheKBPerProc = p.cacheKB
				var (
					mon    *perf.Monitor
					report func()
				)
				switch mode {
				case "telemetry":
					cfg.Telemetry = telemetry.New()
					cfg.SampleEvery = reproSampleEvery
				case "profile":
					prof := profile.New()
					cfg.Profile = prof
					report = func() { prof.Report(10) }
				case "critpath":
					crit := critpath.New()
					cfg.Critpath = crit
					report = func() { crit.Report(0) }
				case "perf":
					mon = perf.New()
					cfg.Perf = mon
					report = func() { mon.Report() }
				}
				key := pointKey(p.app, reproSize.String(), reproProcs, p.cluster, p.cacheKB)
				sp := b.spans.begin(mode+".run "+key, pass)
				res, err := safeRun(p.run, cfg, reproSize)
				if err == nil && report != nil {
					report()
				}
				wall := b.spans.end(sp)
				if round == 0 || wall.Seconds() < fastest[mode][i] {
					fastest[mode][i] = wall.Seconds()
				}
				if err != nil {
					b.check.fail(mode+" "+key, err)
					continue
				}
				b.check.ok(key, resultDigest(res))
				if mode == "perf" && round == 0 {
					monitored = append(monitored, pointRun{point: p.sweepPoint, res: res, wall: wall, mon: mon})
				}
			}
		}
		b.spans.end(pass)
	}
	ratio := func(mode string) metric {
		var num, den float64
		for i := range pts {
			num += fastest[mode][i]
			den += fastest["none"][i]
		}
		return metric{div(num, den), "ratio"}
	}
	for _, mode := range []string{"telemetry", "profile", "critpath"} {
		m[mode+".overhead_ratio"] = ratio(mode)
	}
	if subsetLayers {
		for k, v := range b.layerMetrics(monitored) {
			m[k] = v
		}
		m["perf.overhead_ratio"] = ratio("perf")
	}
	return nil
}

// yieldHandoffs is the pure-handoff probe's event count per run.
const yieldHandoffs = 1 << 19

type handoffCounter struct{ n uint64 }

func (c *handoffCounter) Handoff(from, to int, fromTime, toTime engine.Clock, readyDepth int) { c.n++ }

// yieldNS is the engine's cost per token handoff with nothing else to
// do: pes processors each advance one cycle and yield, so every Yield
// hands the token on (BenchmarkYieldHandoff's shape). One counted run
// sizes the handoffs; three timed runs without a probe give the median.
//
//simlint:allow wallclock — benchmark timing, never simulated state
func yieldNS(pes int) (float64, error) {
	iters := yieldHandoffs / pes
	kernel := func(pe *engine.PE) {
		for i := 0; i < iters; i++ {
			pe.Advance(1)
			pe.Yield()
		}
	}
	count := &handoffCounter{}
	s := engine.NewScheduler(pes, 0)
	s.SetProbe(count)
	if err := s.Run(kernel); err != nil {
		return 0, err
	}
	var ts []float64
	for rep := 0; rep < 3; rep++ {
		s := engine.NewScheduler(pes, 0)
		start := time.Now()
		if err := s.Run(kernel); err != nil {
			return 0, err
		}
		ts = append(ts, float64(time.Since(start).Nanoseconds()))
	}
	return div(median(ts), float64(count.n)), nil
}
