package fabric

import (
	"fmt"
	"time"

	"clustersim/internal/core"
	"clustersim/internal/obs"
)

// Fabric event kinds, appended to the sweep's clustersim/events/v1
// stream (the Worker field carries the worker identity). They record
// only what a fleet has and a local sweep does not; a point's own
// lifecycle on the fleet is the sweep's point-* events, which carry the
// worker too. Every recovery path emits an event, so "the fabric
// recovered from X" is a checkable statement over the coordinator's
// log, the fleet's one timeline.
const (
	EventWorkerJoin = "fabric-worker-join"
	EventWorkerDead = "fabric-worker-dead"
	EventRequeue    = "fabric-requeue"
	// EventResultDup marks a completion the coordinator dropped: a
	// byte-identical duplicate of a settled point, or a late failure.
	EventResultDup = "fabric-result-dup"
	EventDrain     = "fabric-drain"
	// EventRedial marks a worker's reconnect attempt to the coordinator,
	// in the worker's own event log.
	EventRedial = "fabric-redial"
)

// Obs reports the fabric's lifecycle to the coordinator's sweep: a
// lease is a point start, a first completion a point done (or replayed,
// when the worker resumed it from its journal), a permanent failure a
// point failure, each with the worker; the fleet-only story is fabric-*
// events in the sweep's log. A nil *Obs or sweep disables it, so fabric
// code calls the hooks unconditionally.
type Obs struct {
	sweep *obs.Sweep
}

// NewObs wraps the coordinator's sweep (which may be nil).
func NewObs(sweep *obs.Sweep) *Obs {
	return &Obs{sweep: sweep}
}

func (o *Obs) sw() *obs.Sweep {
	if o == nil {
		return nil
	}
	return o.sweep
}

func (o *Obs) emit(e obs.Event) {
	o.sw().Log().Emit(e) // nil-safe
}

// WorkerJoined records a Hello.
func (o *Obs) WorkerJoined(worker string) {
	o.emit(obs.Event{Kind: EventWorkerJoin, Worker: worker})
}

// WorkerDead records a worker declared dead, with its in-flight leases.
func (o *Obs) WorkerDead(worker, reason string, leases int) {
	o.emit(obs.Event{Kind: EventWorkerDead, Worker: worker,
		Detail: fmt.Sprintf("%s; %d leases requeued", reason, leases)})
}

// Leased records a lease of spec to worker; detail is fresh, reassign
// attempt=N, steal, or local for the coordinator's degraded mode.
func (o *Obs) Leased(worker string, spec PointSpec, detail string) {
	o.sw().PointStarted(spec.Point(), worker, detail)
}

// Requeued records a lease returned to the pending queue.
func (o *Obs) Requeued(spec PointSpec, reason string, attempt int) {
	o.emit(obs.Event{Kind: EventRequeue, Point: spec.Name(),
		Detail: fmt.Sprintf("%s; attempt=%d", reason, attempt)})
}

// Completed records the first completion of a point, or a success that
// replaces a recorded failure. wall is the worker-measured cost of a
// fresh computation; it becomes the point-done event's durNs.
func (o *Obs) Completed(worker string, spec PointSpec, res *core.Result, resumed bool, wall time.Duration) {
	if resumed {
		o.sw().PointReplayed(spec.Point(), worker, int64(res.ExecTime))
		return
	}
	o.sw().PointDone(spec.Point(), worker, wall, int64(res.ExecTime))
}

// Failed records a point's permanent failure on worker.
func (o *Obs) Failed(worker string, spec PointSpec, errMsg string) {
	o.sw().PointFailed(spec.Point(), worker, errMsg)
}

// Dropped records a completion the coordinator verified and dropped.
func (o *Obs) Dropped(worker string, spec PointSpec, detail string) {
	o.emit(obs.Event{Kind: EventResultDup, Worker: worker, Point: spec.Name(), Detail: detail})
}

// Drained records the end-of-sweep goodbye to the fleet.
func (o *Obs) Drained(workers int) {
	o.emit(obs.Event{Kind: EventDrain, Detail: fmt.Sprintf("sweep complete; drained %d workers", workers)})
}
