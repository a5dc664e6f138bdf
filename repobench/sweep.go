package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"clustersim/internal/apps"
	"clustersim/internal/apps/registry"
	"clustersim/internal/core"
	"clustersim/internal/experiments"
	"clustersim/internal/perf"
	"clustersim/internal/telemetry"
)

// sweepSpec is a sweep workload: every app at every cluster size, on
// the paper's 64-processor machine at the default problem size, run
// through registry.Lookup(app).Run as cmd/clustersim does.
type sweepSpec struct {
	apps     []string
	clusters []int
	cacheKB  int
}

const sweepProcs = 64

var sweepSize = apps.SizeDefault

// timedResumes is how many resume passes a timed run makes; resume_s
// is their median.
const timedResumes = 2

// fig2Infinite is Figure 2's machine: infinite caches, so the engine
// and the app kernels do nearly all the work.
var fig2Infinite = sweepSpec{apps: []string{"fft", "fmm"}, clusters: []int{1, 8}, cacheKB: 0}

// finite4K runs the same kernels with 4 KB per processor, the smallest
// cache of Figures 4-8, so the coherence miss path is busy.
var finite4K = sweepSpec{apps: []string{"fft", "fmm"}, clusters: []int{1, 8}, cacheKB: 4}

func (s sweepSpec) config(cluster int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Procs = sweepProcs
	cfg.ClusterSize = cluster
	cfg.CacheKBPerProc = s.cacheKB
	return cfg
}

type sweepPoint struct {
	app     string
	cluster int
	run     apps.Runner
}

func (s sweepSpec) key(p sweepPoint) string {
	return pointKey(p.app, sweepSize.String(), sweepProcs, p.cluster, s.cacheKB)
}

// pointRun is one finished point with its wall time and, in the traced
// run, its perf monitor.
type pointRun struct {
	point sweepPoint
	res   *core.Result
	wall  time.Duration
	mon   *perf.Monitor
}

func sweepRunner(s sweepSpec) workloadRunner {
	return workloadRunner{
		timed:  func(b *bench) (map[string]metric, error) { return b.sweepTimed(s) },
		traced: func(b *bench) (map[string]metric, error) { return b.sweepTraced(s) },
	}
}

// setupSweep resolves the apps, orders the points by the seed, resets
// the journal directory and runs one small warm-up point.
func (b *bench) setupSweep(s sweepSpec) ([]sweepPoint, error) {
	var pts []sweepPoint
	for _, app := range s.apps {
		w, err := registry.Lookup(app)
		if err != nil {
			return nil, err
		}
		for _, c := range s.clusters {
			pts = append(pts, sweepPoint{app: app, cluster: c, run: w})
		}
	}
	// The seed is the benchmark's -seed argument: same seed, same order.
	//simlint:allow rand
	rand.New(rand.NewSource(b.seed)).Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	if err := b.resetState(); err != nil {
		return nil, err
	}
	return pts, b.warmUp(s.apps[0], s.cacheKB)
}

// sweepOnce runs every point once, in order, and checks each result.
// With monitor set, each point carries its own perf monitor.
func (b *bench) sweepOnce(s sweepSpec, pts []sweepPoint, monitor bool, parent int) []pointRun {
	runs := make([]pointRun, 0, len(pts))
	for _, p := range pts {
		cfg := s.config(p.cluster)
		var mon *perf.Monitor
		if monitor {
			mon = perf.New()
			cfg.Perf = mon
		}
		key := s.key(p)
		sp := b.spans.begin("apps.run "+key, parent)
		res, err := safeRun(p.run, cfg, sweepSize)
		wall := b.spans.end(sp)
		if err != nil {
			b.check.fail(key, err)
			continue
		}
		b.check.ok(key, resultDigest(res))
		runs = append(runs, pointRun{point: p, res: res, wall: wall, mon: mon})
	}
	return runs
}

// sweepTimed is the sweep workloads' end-to-end run.
//
//simlint:allow wallclock — benchmark timing, never simulated state
func (b *bench) sweepTimed(s sweepSpec) (map[string]metric, error) {
	var pts []sweepPoint
	setupS, err := b.timedSetup(func() (err error) {
		pts, err = b.setupSweep(s)
		return err
	})
	if err != nil {
		return nil, err
	}
	results := map[string]*core.Result{}
	var (
		nrefs uint64
		walls []float64
	)
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < b.seconds {
		sp := b.spans.begin("sweep", -1)
		var wall float64
		for _, r := range b.sweepOnce(s, pts, false, sp) {
			wall += r.wall.Seconds()
			if len(walls) == 0 {
				nrefs += refs(r.res)
				results[s.key(r.point)] = r.res
			}
		}
		b.spans.end(sp)
		walls = append(walls, wall)
	}
	var resumes []float64
	for i := 0; i < timedResumes; i++ {
		wall, err := b.resumeSweep(s, pts, results)
		if err != nil {
			return nil, err
		}
		resumes = append(resumes, wall)
	}
	m := map[string]metric{
		"refs_per_s": {float64(nrefs) / median(walls), "1/s"},
		"sweep_s":    {median(walls), "s"},
		"resume_s":   {median(resumes), "s"},
	}
	return m, b.endToEnd(m, setupS)
}

// resumeSweep finishes an interrupted sweep through the experiments
// layer: a fresh journal holds the sweep's points at the first cluster
// size, as if the sweep had stopped after them, and a Suite over that
// journal runs every point in the seed's order, replaying the
// journalled ones and simulating (and journalling) the rest. results
// holds the sweep's finished points by key. It returns the Suite's
// wall seconds.
func (b *bench) resumeSweep(s sweepSpec, pts []sweepPoint, results map[string]*core.Result) (float64, error) {
	dir := filepath.Join(b.work, "state", "journal")
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	j, err := experiments.OpenJournal(dir)
	if err != nil {
		return 0, err
	}
	stored := 0
	for _, p := range pts {
		res := results[s.key(p)]
		if p.cluster != s.clusters[0] || res == nil {
			continue
		}
		hash, err := telemetry.HashConfig(s.config(p.cluster))
		if err != nil {
			return 0, err
		}
		if err := j.Store(experiments.PointRecord{
			App: p.app, Size: sweepSize.String(), ClusterSize: p.cluster,
			CacheKB: s.cacheKB, ConfigHash: hash, Result: res,
		}); err != nil {
			return 0, err
		}
		stored++
	}
	suite := experiments.NewSuite(experiments.Options{Procs: sweepProcs, Size: sweepSize, Journal: j})
	sp := b.spans.begin("experiments.resume", -1)
	for _, p := range pts {
		res, err := suite.Run(p.app, p.cluster, s.cacheKB)
		if err != nil {
			b.check.fail("resume "+s.key(p), err)
			continue
		}
		b.check.ok(s.key(p), resultDigest(res))
	}
	wall := b.spans.end(sp).Seconds()
	b.check.invariant("resume replays the journalled points and simulates the rest",
		suite.Replayed() == stored && suite.Fresh() == len(pts)-stored)
	return wall, nil
}

func (b *bench) sweepTraced(s sweepSpec) (map[string]metric, error) {
	pts, err := b.setupSweep(s)
	if err != nil {
		return nil, err
	}
	// Each point runs detached and then monitored, back to back, so
	// both see the same host load.
	var plain, traced []pointRun
	sp := b.spans.begin("sweep.traced", -1)
	for _, p := range pts {
		plain = append(plain, b.sweepOnce(s, []sweepPoint{p}, false, sp)...)
		traced = append(traced, b.sweepOnce(s, []sweepPoint{p}, true, sp)...)
	}
	b.spans.end(sp)
	m := b.layerMetrics(traced)
	m["perf.overhead_ratio"] = metric{totalWall(traced) / totalWall(plain), "ratio"}
	return m, b.sharedLayers(m, false)
}

func totalWall(runs []pointRun) float64 {
	var s float64
	for _, r := range runs {
		s += r.wall.Seconds()
	}
	return s
}

// safeRun runs one point, converting a panic that escapes the engine
// into an error as Suite.Run does.
func safeRun(w apps.Runner, cfg core.Config, size apps.Size) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("point panicked: %v", r)
		}
	}()
	return w.Run(cfg, size)
}
