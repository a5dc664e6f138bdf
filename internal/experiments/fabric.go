// Distributed-sweep glue. The fabric package knows leases, heartbeats
// and transports; this file knows how the experiments' demand becomes
// fabric.PointSpecs and how a spec becomes a Suite point.
//
// A fabric point is a Suite point. The coordinator plans by dry-running
// the requested experiments' renderers, fans the points out across the
// fleet, and journals every completion; the ordinary local suite then
// renders the tables by replaying every point. A worker hands each
// assignment to Suite.Run, so journal replay, failure records, panic
// isolation, the watchdog, the obs hooks and the per-point artifacts are
// the local suite's own, and each artifact lands on the machine that
// computed its point. Byte-identical output to a local run follows from
// the replay determinism that makes an interrupted suite resumable.

package experiments

import (
	"fmt"
	"os"

	"clustersim/internal/apps"
	"clustersim/internal/core"
	"clustersim/internal/fabric"
	"clustersim/internal/obs"
	"clustersim/internal/telemetry"
)

// pointSpec builds the wire spec for one (app, clusterSize, cacheKB)
// point under opt, including the config hash the worker re-derives and
// verifies.
func pointSpec(opt Options, key obs.Point) (fabric.PointSpec, error) {
	hash, err := telemetry.HashConfig(opt.config(key.Cluster, key.CacheKB))
	if err != nil {
		return fabric.PointSpec{}, err
	}
	return fabric.PointSpec{
		App: key.App, Size: opt.Size.String(),
		ClusterSize: key.Cluster, CacheKB: key.CacheKB,
		Procs: opt.Procs, Quantum: opt.Quantum, Sanitize: opt.Sanitize,
		Faults: opt.Faults, ConfigHash: hash,
	}, nil
}

// PlanPoints enumerates, in request order and without duplicates, every
// Suite.Run point the named experiments will ask for. It renders each
// Suite-backed experiment against a planning suite whose Run records
// the point and returns an empty Result, so the plan is the render
// pass's own demand and cannot drift from it. Experiments without a
// Suite renderer, and unknown names, contribute no points.
func PlanPoints(names []string, opt Options) ([]fabric.PointSpec, error) {
	plan := newPlanner(opt)
	for _, name := range names {
		if e, err := lookupExperiment(name); err == nil && e.render != nil {
			if err := e.render(plan); err != nil {
				return nil, err
			}
		}
	}
	specs := make([]fabric.PointSpec, len(plan.planned))
	for i, key := range plan.planned {
		spec, err := pointSpec(opt, key)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}
	return specs, nil
}

// FilterJournalled drops specs opt.Journal has already settled, so a
// resumed coordinator redistributes only the missing points. A point
// journalled as failed is settled too unless opt.RetryFailed, exactly
// as for a local resume: the render pass then reports the failure
// instead of the fleet silently retrying it. The skipped count feeds
// the operator summary.
func FilterJournalled(opt Options, specs []fabric.PointSpec) (todo []fabric.PointSpec, skipped int, err error) {
	j := opt.Journal
	if j == nil {
		return specs, 0, nil
	}
	for _, spec := range specs {
		_, settled, err := j.Load(spec.App, spec.Size, spec.ClusterSize, spec.CacheKB, spec.ConfigHash)
		if err != nil {
			return nil, 0, err
		}
		if !settled && !opt.RetryFailed {
			if _, settled, err = j.LoadFailure(spec.App, spec.Size, spec.ClusterSize, spec.CacheKB, spec.ConfigHash); err != nil {
				return nil, 0, err
			}
		}
		if settled {
			skipped++
			continue
		}
		todo = append(todo, spec)
	}
	return todo, skipped, nil
}

// FabricRunner builds the fabric.Runner both fleet roles execute: the
// worker's assignment handler and the coordinator's degraded-mode local
// path. The spec supplies the machine (procs, size, quantum, sanitizer,
// fault plan) and opt everything else. A spec whose config hash this
// binary does not derive is refused, so version skew between fleet
// binaries cannot fork an experiment. The point then runs through
// NewSuite(opt).Run, and resumed reports that the suite replayed it
// from opt.Journal.
func FabricRunner(opt Options) fabric.Runner {
	// The worker's own Stop hook decides between points. Inside one, an
	// interrupt would come back as a point failure the coordinator
	// journals.
	opt.Stop = nil
	return func(spec fabric.PointSpec) (*core.Result, bool, error) {
		size, err := apps.ParseSize(spec.Size)
		if err != nil {
			return nil, false, err
		}
		o := opt
		o.Procs, o.Size, o.Quantum = spec.Procs, size, spec.Quantum
		o.Sanitize, o.Faults = spec.Sanitize, spec.Faults
		hash, err := telemetry.HashConfig(o.config(spec.ClusterSize, spec.CacheKB))
		if err != nil {
			return nil, false, err
		}
		if hash != spec.ConfigHash {
			return nil, false, fmt.Errorf(
				"experiments: config hash mismatch for %s: coordinator sent %s, this binary derives %s (fleet version skew — refusing to run)",
				spec.Name(), spec.ConfigHash, hash)
		}
		s := NewSuite(o)
		res, err := s.Run(spec.App, spec.ClusterSize, spec.CacheKB)
		return res, s.Replayed() > 0, err
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
