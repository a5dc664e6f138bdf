// Distributed-sweep glue: enumerating the suite's simulation points as
// fabric.PointSpecs and executing assigned specs on a worker. The
// division of labor with the fabric package: fabric knows leases,
// heartbeats and transports; this file knows which points each
// experiment needs and how a spec becomes a core.Config.
//
// Distribution is journal-shaped. The coordinator plans the points the
// requested experiments will ask Suite.Run for, fans them out across
// the fleet, and stores every completion in its journal; the tables
// are then rendered by the ordinary local suite, which replays every
// point. Byte-identical output to a local run follows from the same
// replay determinism that makes an interrupted suite resumable — the
// fabric adds no second rendering path to trust.

package experiments

import (
	"fmt"
	"io"
	"os"
	"time"

	"clustersim/internal/apps"
	"clustersim/internal/apps/registry"
	"clustersim/internal/core"
	"clustersim/internal/fabric"
	"clustersim/internal/obs"
	"clustersim/internal/telemetry"
)

// ParseSize maps a size name (test, default, paper) back to apps.Size —
// the inverse of Size.String, for specs arriving over the wire.
func ParseSize(name string) (apps.Size, error) {
	for _, s := range []apps.Size{apps.SizeTest, apps.SizeDefault, apps.SizePaper} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("experiments: unknown problem size %q (want test, default or paper)", name)
}

// pointSpec builds the wire spec for one (app, clusterSize, cacheKB)
// point under opt, including the config hash the worker re-derives and
// verifies.
func pointSpec(opt Options, app string, clusterSize, cacheKB int) (fabric.PointSpec, error) {
	hash, err := telemetry.HashConfig(opt.config(clusterSize, cacheKB))
	if err != nil {
		return fabric.PointSpec{}, err
	}
	return fabric.PointSpec{
		App: app, Size: opt.Size.String(),
		ClusterSize: clusterSize, CacheKB: cacheKB,
		Procs: opt.Procs, Quantum: opt.Quantum, Sanitize: opt.Sanitize,
		Faults: opt.Faults, ConfigHash: hash,
	}, nil
}

// PlanPoints enumerates, in deterministic order and without duplicates,
// every Suite.Run point the named experiments will request — the same
// (app, clusterSize, cacheKB) triples the memoizing suite would
// simulate on demand. Experiments that run outside Suite.Run (fig3's
// small-problem Ocean, the ext-* studies, the static tables) contribute
// no points: they are computed during rendering and gain nothing from
// distribution.
func PlanPoints(names []string, opt Options) ([]fabric.PointSpec, error) {
	var specs []fabric.PointSpec
	seen := make(map[runKey]bool)
	add := func(app string, clusterSize, cacheKB int) error {
		key := runKey{app, clusterSize, cacheKB}
		if seen[key] {
			return nil
		}
		seen[key] = true
		spec, err := pointSpec(opt, app, clusterSize, cacheKB)
		if err != nil {
			return err
		}
		specs = append(specs, spec)
		return nil
	}
	addSweep := func(appNames []string, cacheKB int) error {
		for _, app := range appNames {
			for _, cs := range ClusterSizes {
				if err := add(app, cs, cacheKB); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, name := range names {
		var err error
		switch name {
		case "fig2":
			err = addSweep(Fig2Apps, 0)
		case "fig4", "fig5", "fig6", "fig7", "fig8":
			app := FiniteFigures[int(name[3]-'0')]
			for _, kb := range FiniteCachesKB {
				if err = addSweep([]string{app}, kb); err != nil {
					break
				}
			}
		case "table3":
			for _, wk := range registry.All() {
				if err = add(wk.Name, 1, 0); err != nil {
					break
				}
				for _, kb := range WorkingSetSweepKB {
					if err = add(wk.Name, 1, kb); err != nil {
						break
					}
				}
			}
		case "table5":
			for _, wk := range registry.All() {
				if err = add(wk.Name, 1, 0); err != nil {
					break
				}
			}
		case "table6":
			for _, app := range Table6Apps {
				if err = add(app, 1, 0); err != nil {
					break
				}
				if err = add(app, 1, 4); err != nil {
					break
				}
			}
			if err == nil {
				err = addSweep(Table6Apps, 4)
			}
		case "table7":
			for _, app := range Table7Apps {
				if err = add(app, 1, 0); err != nil {
					break
				}
			}
			if err == nil {
				err = addSweep(Table7Apps, 0)
			}
		default:
			// Static tables, fig3, ext-*: nothing to distribute.
		}
		if err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// FilterJournalled drops specs the journal has already completed, so a
// resumed coordinator redistributes only the missing points. The
// skipped count feeds the operator summary.
func FilterJournalled(j *Journal, specs []fabric.PointSpec) (todo []fabric.PointSpec, skipped int, err error) {
	if j == nil {
		return specs, 0, nil
	}
	for _, spec := range specs {
		_, ok, err := j.Load(spec.App, spec.Size, spec.ClusterSize, spec.CacheKB, spec.ConfigHash)
		if err != nil {
			return nil, 0, err
		}
		if ok {
			skipped++
			continue
		}
		todo = append(todo, spec)
	}
	return todo, skipped, nil
}

// configFromSpec rebuilds the exact core.Config a spec describes; the
// caller verifies its hash against the coordinator's, so any divergence
// between fleet binaries (a changed default, a new config field) is
// caught before it can fork an experiment.
func configFromSpec(spec fabric.PointSpec) core.Config {
	cfg := core.DefaultConfig()
	cfg.Procs = spec.Procs
	cfg.ClusterSize = spec.ClusterSize
	cfg.CacheKBPerProc = spec.CacheKB
	cfg.Quantum = spec.Quantum
	cfg.Sanitize = spec.Sanitize
	cfg.Faults = spec.Faults
	return cfg
}

// FabricRunner builds the fabric.Runner both fleet roles execute: the
// worker's assignment handler and the coordinator's degraded-mode local
// path. It wraps the suite's own per-point machinery — journal replay
// (a restarted worker resumes instead of recomputing), runPoint's panic
// isolation, and with timeout > 0 the same journal-then-exit watchdog
// the local suite arms — so a point behaves identically however it
// reaches a machine. sw, when non-nil, receives point lifecycle hooks
// for the worker's own -serve/-events plane; it never touches results,
// so observed and unobserved runs stay byte-identical.
func FabricRunner(j *Journal, timeout time.Duration, progress io.Writer, sw *obs.Sweep) fabric.Runner {
	return func(spec fabric.PointSpec) (*core.Result, bool, error) {
		name := spec.Name()
		cache := cacheName(spec.CacheKB)
		fail := func(err error) (*core.Result, bool, error) {
			sw.PointFailed(name, spec.App, spec.ClusterSize, cache, err.Error())
			return nil, false, err
		}
		w, err := registry.Lookup(spec.App)
		if err != nil {
			return fail(err)
		}
		size, err := ParseSize(spec.Size)
		if err != nil {
			return fail(err)
		}
		cfg := configFromSpec(spec)
		hash, err := telemetry.HashConfig(cfg)
		if err != nil {
			return fail(err)
		}
		if hash != spec.ConfigHash {
			return fail(fmt.Errorf(
				"experiments: config hash mismatch for %s: coordinator sent %s, this binary derives %s (fleet version skew — refusing to run)",
				name, spec.ConfigHash, hash))
		}
		if j != nil {
			res, ok, err := j.Load(spec.App, spec.Size, spec.ClusterSize, spec.CacheKB, hash)
			if err != nil {
				return fail(err)
			}
			if ok {
				if progress != nil {
					fmt.Fprintf(progress, "replayed %s from local journal\n", name)
				}
				sw.PointReplayed(name, spec.App, spec.ClusterSize, cache, int64(res.ExecTime))
				return res, true, nil
			}
			sw.JournalMiss()
		}
		if timeout > 0 {
			rec := FailureRecord{
				App: spec.App, Size: spec.Size, ClusterSize: spec.ClusterSize,
				CacheKB: spec.CacheKB, ConfigHash: hash,
				Error: fmt.Sprintf("watchdog: point exceeded the %v wall-clock budget", timeout),
			}
			// Same contract as the suite watchdog: journal the failure so
			// a restarted worker skips the wedged point, then kill the
			// process — the coordinator sees the dead connection and
			// requeues. Harness wall clock only.
			t := time.AfterFunc(timeout, func() { //simlint:allow wallclock
				fmt.Fprintf(os.Stderr, "experiments: watchdog: %s still running after %v; aborting worker\n",
					spec.Name(), timeout)
				sw.PointTimeout(name, timeout)
				if j != nil {
					if err := j.StoreFailure(rec); err != nil {
						fmt.Fprintln(os.Stderr, "experiments: watchdog:", err)
					}
				}
				os.Exit(ExitWatchdog)
			})
			defer t.Stop()
		}
		sw.PointStarted(name, spec.App, spec.ClusterSize, cache)
		// Harness wall clock: point cost for the sweep span and fleet ETA.
		started := time.Now() //simlint:allow wallclock
		res, err := runPoint(w, cfg, size)
		if err != nil {
			if j != nil {
				if jerr := j.StoreFailure(FailureRecord{
					App: spec.App, Size: spec.Size, ClusterSize: spec.ClusterSize,
					CacheKB: spec.CacheKB, ConfigHash: hash, Error: err.Error(),
				}); jerr != nil {
					err = fmt.Errorf("%v (and journalling the failure failed: %v)", err, jerr)
				}
			}
			return fail(err)
		}
		if j != nil {
			if err := j.Store(PointRecord{
				App: spec.App, Size: spec.Size, ClusterSize: spec.ClusterSize,
				CacheKB: spec.CacheKB, ConfigHash: hash, Result: res,
			}); err != nil {
				return fail(err)
			}
		}
		sw.PointDone(name, time.Since(started), int64(res.ExecTime)) //simlint:allow wallclock
		return res, false, nil
	}
}

// CoordinatorSinks wires a coordinator's completion callbacks to the
// sweep journal: every distributed result and failure lands exactly
// where the local suite would have put it, which is what makes the
// post-sweep rendering pass replay instead of recompute.
func CoordinatorSinks(j *Journal) (onResult func(fabric.PointSpec, *core.Result, bool) error, onFailure func(fabric.PointSpec, string)) {
	onResult = func(spec fabric.PointSpec, res *core.Result, resumed bool) error {
		return j.Store(PointRecord{
			App: spec.App, Size: spec.Size, ClusterSize: spec.ClusterSize,
			CacheKB: spec.CacheKB, ConfigHash: spec.ConfigHash, Result: res,
		})
	}
	onFailure = func(spec fabric.PointSpec, msg string) {
		if err := j.StoreFailure(FailureRecord{
			App: spec.App, Size: spec.Size, ClusterSize: spec.ClusterSize,
			CacheKB: spec.CacheKB, ConfigHash: spec.ConfigHash, Error: msg,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: journalling a distributed failure failed:", err)
		}
	}
	return onResult, onFailure
}
