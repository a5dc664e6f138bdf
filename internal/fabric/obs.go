package fabric

import (
	"fmt"
	"time"

	"clustersim/internal/obs"
)

// Fabric event kinds, appended to the sweep's clustersim/events/v1
// stream (the Worker field carries the worker identity). Every recovery
// path emits an event, so "the fabric recovered from X" is a checkable
// statement over the log, not an inference. The coordinator's log is
// the fleet's one timeline; the fleet view (internal/obs/fleet) keys
// its point state machine on these kinds.
const (
	EventWorkerJoin = "fabric-worker-join"
	EventWorkerDead = "fabric-worker-dead"
	EventAssign     = "fabric-assign" // Detail: fresh | reassign attempt=N | steal
	EventRequeue    = "fabric-requeue"
	EventResult     = "fabric-result" // Detail: computed | resumed-from-journal; DurNS: worker wall cost
	EventResultDup  = "fabric-result-dup"
	EventResultFail = "fabric-result-fail"
	EventLocal      = "fabric-local"
	EventDrain      = "fabric-drain"
	// EventRedial marks a worker's reconnect attempt to the coordinator,
	// in the worker's own event log.
	EventRedial = "fabric-redial"
)

// DetailResumed is the fabric-result Detail of a point replayed from a
// worker's journal rather than computed.
const DetailResumed = "resumed-from-journal"

// WorkerLink is the coordinator's live view of one registered worker,
// merged into the fleet doc alongside the event-derived aggregates.
type WorkerLink struct {
	Worker         string
	Alive          bool
	LeasesHeld     int
	HeartbeatAgeMS int64
}

// Obs feeds the fabric's lifecycle into the observability plane: the
// clustersim_fabric_* series in the metrics registry and fabric-*
// events in the run-event log. Either sink may be nil; a nil *Obs
// disables the whole plane, so fabric code calls hooks unconditionally.
type Obs struct {
	log *obs.Log

	gWorkers      *obs.Gauge
	cAssignFresh  *obs.Counter
	cAssignRetry  *obs.Counter
	cAssignSteal  *obs.Counter
	cResultOK     *obs.Counter
	cResultFailed *obs.Counter
	cResultDup    *obs.Counter
	cResumes      *obs.Counter
	cDeaths       *obs.Counter
	cHeartbeats   *obs.Counter
	cRequeues     *obs.Counter
	cLocal        *obs.Counter
}

// NewObs registers the fabric series on reg and routes events to log
// (either may be nil).
func NewObs(reg *obs.Registry, log *obs.Log) *Obs {
	o := &Obs{log: log}
	if reg != nil {
		o.gWorkers = reg.Gauge("clustersim_fabric_workers", "Live connected workers.")
		o.cAssignFresh = reg.Counter("clustersim_fabric_assigns_total", "Leases handed out, by kind.", obs.L("kind", "fresh"))
		o.cAssignRetry = reg.Counter("clustersim_fabric_assigns_total", "Leases handed out, by kind.", obs.L("kind", "reassign"))
		o.cAssignSteal = reg.Counter("clustersim_fabric_assigns_total", "Leases handed out, by kind.", obs.L("kind", "steal"))
		o.cResultOK = reg.Counter("clustersim_fabric_results_total", "Point completions received, by outcome.", obs.L("outcome", "ok"))
		o.cResultFailed = reg.Counter("clustersim_fabric_results_total", "Point completions received, by outcome.", obs.L("outcome", "failed"))
		o.cResultDup = reg.Counter("clustersim_fabric_results_total", "Point completions received, by outcome.", obs.L("outcome", "duplicate"))
		o.cResumes = reg.Counter("clustersim_fabric_worker_resumes_total", "Results replayed from a restarted worker's local journal.")
		o.cDeaths = reg.Counter("clustersim_fabric_worker_deaths_total", "Workers declared dead (connection loss or missed heartbeats).")
		o.cHeartbeats = reg.Counter("clustersim_fabric_heartbeats_total", "Worker heartbeats received.")
		o.cRequeues = reg.Counter("clustersim_fabric_requeues_total", "Leases returned to the pending queue for re-assignment.")
		o.cLocal = reg.Counter("clustersim_fabric_local_points_total", "Points the coordinator ran locally (degraded mode).")
	}
	return o
}

func inc(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

func (o *Obs) emit(e obs.Event) {
	if o == nil {
		return
	}
	o.log.Emit(e) // nil-safe
}

// WorkerJoined records a Hello.
func (o *Obs) WorkerJoined(worker string) {
	if o == nil {
		return
	}
	if o.gWorkers != nil {
		o.gWorkers.Add(1)
	}
	o.emit(obs.Event{Kind: EventWorkerJoin, Worker: worker})
}

// WorkerDead records a worker declared dead, with its in-flight leases.
func (o *Obs) WorkerDead(worker, reason string, leases int) {
	if o == nil {
		return
	}
	if o.gWorkers != nil {
		o.gWorkers.Add(-1)
	}
	inc(o.cDeaths)
	o.emit(obs.Event{Kind: EventWorkerDead, Worker: worker,
		Detail: fmt.Sprintf("%s; %d leases requeued", reason, leases)})
}

// Heartbeat counts one liveness beacon.
func (o *Obs) Heartbeat(worker string) {
	if o == nil {
		return
	}
	inc(o.cHeartbeats)
}

// Assigned records a lease: kind is "fresh" (first attempt),
// "reassign" (after a requeue) or "steal" (speculative duplicate).
func (o *Obs) Assigned(worker, point, kind string, attempt int) {
	if o == nil {
		return
	}
	switch kind {
	case "reassign":
		inc(o.cAssignRetry)
	case "steal":
		inc(o.cAssignSteal)
	default:
		inc(o.cAssignFresh)
	}
	detail := kind
	if kind == "reassign" {
		detail = fmt.Sprintf("reassign attempt=%d", attempt)
	}
	o.emit(obs.Event{Kind: EventAssign, Worker: worker, Point: point, Detail: detail})
}

// Requeued records a lease returned to the pending queue.
func (o *Obs) Requeued(point, reason string, attempt int) {
	if o == nil {
		return
	}
	inc(o.cRequeues)
	o.emit(obs.Event{Kind: EventRequeue, Point: point,
		Detail: fmt.Sprintf("%s; attempt=%d", reason, attempt)})
}

// ResultOK records the first completion of a point. wall is the
// worker-measured cost of a fresh computation (zero for resumes),
// carried as DurNS so the fleet ETA can learn point costs across
// processes and the Chrome export can draw the point's slice.
func (o *Obs) ResultOK(worker, point string, resumed bool, wall time.Duration) {
	if o == nil {
		return
	}
	inc(o.cResultOK)
	detail := "computed"
	if resumed {
		inc(o.cResumes)
		detail = DetailResumed
	}
	o.emit(obs.Event{Kind: EventResult, Worker: worker, Point: point,
		DurNS: int64(wall), Detail: detail})
}

// ResultDuplicate records a late or stolen double-completion that was
// verified byte-identical and dropped.
func (o *Obs) ResultDuplicate(worker, point string) {
	if o == nil {
		return
	}
	inc(o.cResultDup)
	o.emit(obs.Event{Kind: EventResultDup, Worker: worker, Point: point,
		Detail: "byte-identical duplicate dropped (last write wins)"})
}

// ResultFailed records a point that failed on a worker.
func (o *Obs) ResultFailed(worker, point, errMsg string) {
	if o == nil {
		return
	}
	inc(o.cResultFailed)
	o.emit(obs.Event{Kind: EventResultFail, Worker: worker, Point: point, Error: errMsg})
}

// LocalRun records a point executed by the coordinator itself.
func (o *Obs) LocalRun(point string) {
	if o == nil {
		return
	}
	inc(o.cLocal)
	o.emit(obs.Event{Kind: EventLocal, Point: point,
		Detail: "no live workers; degraded to local execution"})
}

// Drained records the end-of-sweep goodbye to the fleet.
func (o *Obs) Drained(workers int) {
	if o == nil {
		return
	}
	o.emit(obs.Event{Kind: EventDrain, Detail: fmt.Sprintf("sweep complete; drained %d workers", workers)})
}
