// Package fleet is the cross-process half of the observability plane:
// it turns one distributed sweep into one observable story. The
// coordinator's event log is the fleet's only timeline: every assign,
// requeue, result (with the worker and its measured wall cost), death
// and drain is emitted there, with a strictly monotone seq, by the one
// process that decides them. The View mirrors that log into an
// aggregated fleet state — per-worker liveness and tallies, per-point
// timelines, a fleet ETA — served as the clustersim/fleet/v1 document
// on GET /fleet, with per-point timelines on GET /fleet/trace.
//
// Like its parent package, fleet is strictly wall-clock-side harness
// state: it never touches simulation state (it is a member of the
// simlint readonly observer set), and an observed distributed sweep
// stays byte-identical to a local run.
package fleet

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"clustersim/internal/fabric"
	"clustersim/internal/obs"
)

// SchemaV1 identifies the GET /fleet document.
const SchemaV1 = "clustersim/fleet/v1"

// TraceSchemaV1 identifies the GET /fleet/trace document.
const TraceSchemaV1 = "clustersim/fleettrace/v1"

// maxTimelineEvents bounds one point's retained timeline; beyond it
// events still feed the state machine but are not stored.
const maxTimelineEvents = 512

// pointState is one point's story in the coordinator log.
type pointState struct {
	name      string
	assigned  bool
	state     string // "" | "assigned" | "done" | "failed"
	resumed   bool
	results   int // fabric-result events seen (exactly 1 for a done point)
	events    []obs.Event
	truncated int
}

// workerAgg is the event-derived per-worker tally.
type workerAgg struct {
	done, replayed, failed, dups int
}

// View aggregates the coordinator's event log into the fleet status
// document. It attaches as the event log's mirror (lossless,
// synchronous), so the timelines it serves are complete — unlike
// /events followers, which may drop under backpressure.
type View struct {
	mu          sync.Mutex
	run         string
	eta         *obs.ETA
	links       func() []fabric.WorkerLink
	points      map[string]*pointState
	order       []string
	workers     map[string]*workerAgg
	workerOrder []string
	events      int
}

// NewView builds a fleet view labelled run.
func NewView(run string) *View {
	return &View{
		run:     run,
		eta:     obs.NewETA(),
		points:  make(map[string]*pointState),
		workers: make(map[string]*workerAgg),
	}
}

// SetSource installs the coordinator's worker snapshot (liveness,
// leases, heartbeat age). Called once the coordinator exists; the doc
// works without it, from events alone.
func (v *View) SetSource(links func() []fabric.WorkerLink) {
	v.mu.Lock()
	v.links = links
	v.mu.Unlock()
}

// SetTotal declares the sweep's expected point count for the fleet ETA.
func (v *View) SetTotal(n int) {
	v.mu.Lock()
	v.eta.SetTotal(n)
	v.mu.Unlock()
}

// Observe ingests one event of the coordinator's log. It is the
// mirror callback: invoked synchronously under the log lock, in seq
// order, for every event — the completeness guarantee the audit rests
// on. Lock order is coordinator → log → view, so Observe must never
// call back into either.
func (v *View) Observe(e obs.Event) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.events++
	if e.Worker != "" {
		v.worker(e.Worker)
	}
	if e.Point == "" {
		return
	}
	p := v.point(e.Point)
	if len(p.events) < maxTimelineEvents {
		p.events = append(p.events, e)
	} else {
		p.truncated++
	}
	switch e.Kind {
	case fabric.EventAssign, fabric.EventLocal:
		p.assigned = true
		if p.state == "" {
			p.state = "assigned"
		}
	case fabric.EventResult:
		p.results++
		if p.state == "done" {
			return // defensive: coordinator emits one result per point
		}
		wasFailed := p.state == "failed"
		p.state = "done"
		p.resumed = e.Detail == fabric.DetailResumed
		if !wasFailed {
			// First terminal transition feeds the ETA exactly once:
			// resumes are free, fresh completions carry the worker's
			// measured wall cost. Duplicate completions of a stolen
			// point arrive as fabric-result-dup and never reach here.
			if p.resumed || e.DurNS == 0 {
				v.eta.CompletedFree()
			} else {
				v.eta.Completed(time.Duration(e.DurNS))
			}
		}
		if e.Worker != "" {
			if p.resumed {
				v.worker(e.Worker).replayed++
			} else {
				v.worker(e.Worker).done++
			}
		}
	case fabric.EventResultDup:
		if e.Worker != "" {
			v.worker(e.Worker).dups++
		}
	case fabric.EventResultFail:
		if p.state == "" || p.state == "assigned" {
			p.state = "failed"
			v.eta.CompletedFree()
			if e.Worker != "" {
				v.worker(e.Worker).failed++
			}
		}
	}
}

// point finds or creates a point's state (caller holds v.mu).
func (v *View) point(name string) *pointState {
	p := v.points[name]
	if p == nil {
		p = &pointState{name: name}
		v.points[name] = p
		v.order = append(v.order, name)
		v.eta.Saw()
	}
	return p
}

// worker finds or creates a worker tally (caller holds v.mu).
func (v *View) worker(id string) *workerAgg {
	w := v.workers[id]
	if w == nil {
		w = &workerAgg{}
		v.workers[id] = w
		v.workerOrder = append(v.workerOrder, id)
	}
	return w
}

// Audit is the timeline completeness check the keystone chaos
// test asserts: after a drained sweep every assigned point must have
// reached exactly one terminal state.
type Audit struct {
	Points      int
	Assigned    int
	Done        int // fresh completions
	Replayed    int
	Failed      int
	Incomplete  []string // assigned points with no terminal state
	MultiResult []string // points with more than one fabric-result event
}

// Audit computes the completeness summary over every point seen.
func (v *View) Audit() Audit {
	v.mu.Lock()
	defer v.mu.Unlock()
	var a Audit
	a.Points = len(v.order)
	for _, name := range v.order {
		p := v.points[name]
		if p.assigned {
			a.Assigned++
		}
		switch {
		case p.state == "done" && p.resumed:
			a.Replayed++
		case p.state == "done":
			a.Done++
		case p.state == "failed":
			a.Failed++
		default:
			if p.assigned {
				a.Incomplete = append(a.Incomplete, name)
			}
		}
		if p.results > 1 {
			a.MultiResult = append(a.MultiResult, name)
		}
	}
	return a
}

// Totals is the fleet-wide tally block of the /fleet doc.
type Totals struct {
	Workers  int `json:"workers"`
	Live     int `json:"live"`
	Points   int `json:"points"`
	Assigned int `json:"assigned"`
	Done     int `json:"done"`
	Replayed int `json:"replayed"`
	Failed   int `json:"failed"`
	Events   int `json:"events"`
}

// WorkerStatus is one worker's row of the /fleet doc: the coordinator's
// live link state merged with the event-derived tallies.
type WorkerStatus struct {
	Worker         string `json:"worker"`
	Alive          bool   `json:"alive"`
	LeasesHeld     int    `json:"leasesHeld"`
	HeartbeatAgeMS int64  `json:"heartbeatAgeMs,omitempty"`
	Done           int    `json:"done"`
	Replayed       int    `json:"replayed"`
	Failed         int    `json:"failed"`
	Duplicates     int    `json:"duplicates"`
}

// Doc is the GET /fleet response (schema clustersim/fleet/v1).
type Doc struct {
	Schema          string         `json:"schema"`
	Run             string         `json:"run,omitempty"`
	GeneratedUnixMS int64          `json:"generatedUnixMs"`
	Totals          Totals         `json:"totals"`
	ETA             obs.Estimate   `json:"eta"`
	Workers         []WorkerStatus `json:"workers"`
}

// Doc renders the current fleet document. The coordinator snapshot is
// taken outside the view lock (lock order: the coordinator may emit
// events — coordinator → log → view — so the view must not hold its
// lock while calling into the coordinator).
func (v *View) Doc() *Doc {
	var links []fabric.WorkerLink
	v.mu.Lock()
	source := v.links
	v.mu.Unlock()
	if source != nil {
		links = source()
	}

	v.mu.Lock()
	defer v.mu.Unlock()
	doc := &Doc{
		Schema: SchemaV1,
		Run:    v.run,
		// Harness wall clock: document stamp only, never simulation input.
		GeneratedUnixMS: time.Now().UnixMilli(), //simlint:allow wallclock
		ETA:             v.eta.Estimate(),
	}
	doc.Totals.Points = len(v.order)
	doc.Totals.Events = v.events
	for _, name := range v.order {
		p := v.points[name]
		if p.assigned {
			doc.Totals.Assigned++
		}
		switch {
		case p.state == "done" && p.resumed:
			doc.Totals.Replayed++
		case p.state == "done":
			doc.Totals.Done++
		case p.state == "failed":
			doc.Totals.Failed++
		}
	}
	// Workers: coordinator link order first, then event-only identities
	// (e.g. "(local)") in first-seen order.
	seen := make(map[string]bool, len(links))
	addRow := func(link *fabric.WorkerLink, id string) {
		row := WorkerStatus{Worker: id}
		if link != nil {
			row.Alive = link.Alive
			row.LeasesHeld = link.LeasesHeld
			row.HeartbeatAgeMS = link.HeartbeatAgeMS
		}
		if agg := v.workers[id]; agg != nil {
			row.Done = agg.done
			row.Replayed = agg.replayed
			row.Failed = agg.failed
			row.Duplicates = agg.dups
		}
		if row.Alive {
			doc.Totals.Live++
		}
		doc.Workers = append(doc.Workers, row)
	}
	for i := range links {
		addRow(&links[i], links[i].Worker)
		seen[links[i].Worker] = true
	}
	for _, id := range v.workerOrder {
		if !seen[id] {
			addRow(nil, id)
		}
	}
	doc.Totals.Workers = len(doc.Workers)
	return doc
}

// TraceDoc is the GET /fleet/trace response (clustersim/fleettrace/v1):
// one point's timeline in coordinator-seq order.
type TraceDoc struct {
	Schema    string      `json:"schema"`
	Point     string      `json:"point"`
	State     string      `json:"state,omitempty"`
	Truncated int         `json:"truncatedEvents,omitempty"`
	Events    []obs.Event `json:"events"`
}

// Trace renders one point's timeline document.
func (v *View) Trace(name string) (*TraceDoc, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	p := v.points[name]
	if p == nil {
		return nil, false
	}
	doc := &TraceDoc{
		Schema:    TraceSchemaV1,
		Point:     p.name,
		State:     p.state,
		Truncated: p.truncated,
		Events:    make([]obs.Event, len(p.events)),
	}
	copy(doc.Events, p.events)
	return doc, true
}

// Mount registers the fleet endpoints on an obs server:
//
//	GET /fleet          the clustersim/fleet/v1 document
//	GET /fleet/trace    one point's timeline (?point=NAME)
func (v *View) Mount(s *obs.Server) {
	s.Handle("GET /fleet", "fleet status JSON (clustersim/fleet/v1)", http.HandlerFunc(v.handleDoc))
	s.Handle("GET /fleet/trace", "per-point timeline (?point=NAME)", http.HandlerFunc(v.handleTrace))
}

func (v *View) handleDoc(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v.Doc())
}

func (v *View) handleTrace(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("point")
	if q == "" {
		http.Error(w, "missing ?point=", http.StatusBadRequest)
		return
	}
	doc, ok := v.Trace(q)
	if !ok {
		http.Error(w, "unknown point "+q, http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}
