package fleet

import (
	"testing"
	"time"

	"clustersim/internal/fabric"
	"clustersim/internal/obs"
)

// The view's point state machine: one terminal transition per point,
// duplicates and late failures never double-count, resumes are free.
func TestViewStateMachineAndAudit(t *testing.T) {
	v := NewView("run-x")
	v.SetTotal(4)

	// p1: assigned, computed fresh (2s measured on the worker).
	v.Observe(obs.Event{Kind: fabric.EventAssign, Point: "p1", Worker: "w1"})
	v.Observe(obs.Event{Kind: fabric.EventResult, Point: "p1", Worker: "w1",
		DurNS: int64(2 * time.Second), Detail: "computed"})
	// The stolen duplicate of p1 arrives: counted as a dup, not a result.
	v.Observe(obs.Event{Kind: fabric.EventResultDup, Point: "p1", Worker: "w2"})

	// p2: resumed from a worker journal — free for the ETA.
	v.Observe(obs.Event{Kind: fabric.EventAssign, Point: "p2", Worker: "w2"})
	v.Observe(obs.Event{Kind: fabric.EventResult, Point: "p2", Worker: "w2", Detail: fabric.DetailResumed})

	// p3: failed.
	v.Observe(obs.Event{Kind: fabric.EventAssign, Point: "p3", Worker: "w1"})
	v.Observe(obs.Event{Kind: fabric.EventResultFail, Point: "p3", Worker: "w1", Error: "boom"})

	// p4: assigned, never finishes.
	v.Observe(obs.Event{Kind: fabric.EventAssign, Point: "p4", Worker: "w2"})

	a := v.Audit()
	if a.Points != 4 || a.Assigned != 4 || a.Done != 1 || a.Replayed != 1 || a.Failed != 1 {
		t.Errorf("audit = %+v", a)
	}
	if len(a.Incomplete) != 1 || a.Incomplete[0] != "p4" {
		t.Errorf("incomplete = %v, want [p4]", a.Incomplete)
	}
	if len(a.MultiResult) != 0 {
		t.Errorf("multiresult = %v, want none", a.MultiResult)
	}

	doc := v.Doc()
	if doc.Schema != SchemaV1 || doc.Run != "run-x" {
		t.Fatalf("doc header: %+v", doc)
	}
	if doc.Totals != (Totals{Workers: 2, Points: 4, Assigned: 4, Done: 1, Replayed: 1, Failed: 1, Events: 8}) {
		t.Errorf("totals = %+v", doc.Totals)
	}
	// ETA: one 2s sample, three free/failed of four total → 2s remaining... no:
	// 3 of 4 complete (done+replayed+failed), 1 outstanding at mean 2s.
	if !doc.ETA.HaveRemaining || doc.ETA.MeanPointMS != 2000 || doc.ETA.RemainingMS != 2000 {
		t.Errorf("eta = %+v, want mean 2000ms, remaining 2000ms", doc.ETA)
	}
	var w1 *WorkerStatus
	for i := range doc.Workers {
		if doc.Workers[i].Worker == "w1" {
			w1 = &doc.Workers[i]
		}
	}
	if w1 == nil || w1.Done != 1 || w1.Failed != 1 || w1.Duplicates != 0 {
		t.Errorf("w1 row = %+v", w1)
	}

	// Timeline lookup by point name.
	tr, ok := v.Trace("p1")
	if !ok || len(tr.Events) != 3 || tr.State != "done" || tr.Schema != TraceSchemaV1 {
		t.Errorf("trace of p1 = %+v (ok=%v), want 3 events in state done", tr, ok)
	}
	if _, ok := v.Trace("nope"); ok {
		t.Error("unknown point resolved")
	}
}

// A duplicate fabric-result for an already-done point (the defensive
// path — the coordinator emits one per point by construction) must not
// feed the ETA twice, and is flagged by the audit.
func TestViewDoubleResultFlaggedNotDoubleCounted(t *testing.T) {
	v := NewView("r")
	v.SetTotal(2)
	v.Observe(obs.Event{Kind: fabric.EventAssign, Point: "p", Worker: "w1"})
	v.Observe(obs.Event{Kind: fabric.EventResult, Point: "p", Worker: "w1", DurNS: int64(time.Second), Detail: "computed"})
	v.Observe(obs.Event{Kind: fabric.EventResult, Point: "p", Worker: "w2", DurNS: int64(9 * time.Second), Detail: "computed"})

	doc := v.Doc()
	if doc.Totals.Done != 1 {
		t.Errorf("done = %d, want 1", doc.Totals.Done)
	}
	if doc.ETA.MeanPointMS != 1000 {
		t.Errorf("mean = %dms: second result fed the ETA", doc.ETA.MeanPointMS)
	}
	a := v.Audit()
	if len(a.MultiResult) != 1 || a.MultiResult[0] != "p" {
		t.Errorf("multiresult = %v, want [p]", a.MultiResult)
	}
}

// A late failure after a completion does not demote the point, and a
// completion after a failure recovers it (matching the coordinator's
// "healthy result is better evidence" rule).
func TestViewFailThenResultRecovers(t *testing.T) {
	v := NewView("r")
	v.Observe(obs.Event{Kind: fabric.EventAssign, Point: "p", Worker: "w1"})
	v.Observe(obs.Event{Kind: fabric.EventResultFail, Point: "p", Worker: "w1", Error: "watchdog"})
	v.Observe(obs.Event{Kind: fabric.EventResult, Point: "p", Worker: "w2", DurNS: int64(time.Second), Detail: "computed"})
	// And a failure arriving after done is ignored.
	v.Observe(obs.Event{Kind: fabric.EventResultFail, Point: "p", Worker: "w1", Error: "late"})

	doc := v.Doc()
	if doc.Totals.Done != 1 || doc.Totals.Failed != 0 {
		t.Errorf("totals = %+v, want the completion to win", doc.Totals)
	}
}

// View.Doc merges the coordinator's live worker links with event-only
// identities like "(local)".
func TestViewDocMergesLinksAndEventWorkers(t *testing.T) {
	v := NewView("r")
	v.SetSource(func() []fabric.WorkerLink {
		return []fabric.WorkerLink{
			{Worker: "w1", Alive: true, LeasesHeld: 2, HeartbeatAgeMS: 40},
			{Worker: "w2", Alive: false},
		}
	})
	v.Observe(obs.Event{Kind: fabric.EventLocal, Point: "p", Worker: "(local)"})
	v.Observe(obs.Event{Kind: fabric.EventResult, Point: "p", Worker: "(local)", Detail: "computed"})

	doc := v.Doc()
	if doc.Totals.Workers != 3 || doc.Totals.Live != 1 {
		t.Fatalf("totals = %+v, want 3 workers / 1 live", doc.Totals)
	}
	if doc.Workers[0].Worker != "w1" || !doc.Workers[0].Alive || doc.Workers[0].LeasesHeld != 2 || doc.Workers[0].HeartbeatAgeMS != 40 {
		t.Errorf("w1 row = %+v", doc.Workers[0])
	}
	if doc.Workers[2].Worker != "(local)" || doc.Workers[2].Done != 1 {
		t.Errorf("(local) row = %+v", doc.Workers[2])
	}
}

// The mirror wiring end-to-end: every event the coordinator's log
// emits reaches the view, stamped by the log, in seq order.
func TestLogMirrorFeedsViewLosslessly(t *testing.T) {
	log := obs.NewLog(nil, "coord")
	log.SetClock(func() time.Time { return time.Unix(500, 0) })
	v := NewView("coord")
	log.SetMirror(v.Observe)

	log.Emit(obs.Event{Kind: fabric.EventAssign, Point: "p", Worker: "w1"})
	log.Emit(obs.Event{Kind: fabric.EventRequeue, Point: "p", Detail: "worker w1 died; attempt=1"})
	log.Emit(obs.Event{Kind: fabric.EventAssign, Point: "p", Worker: "w2", Detail: "reassign attempt=1"})
	log.Emit(obs.Event{Kind: fabric.EventResult, Point: "p", Worker: "w2", Detail: "computed", DurNS: 5})

	tr, ok := v.Trace("p")
	if !ok || len(tr.Events) != 4 {
		t.Fatalf("timeline = %+v (ok=%v), want 4 events", tr, ok)
	}
	for i, e := range tr.Events {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d (%s): seq %d, want %d", i, e.Kind, e.Seq, i+1)
		}
		if e.WallUnixNS != time.Unix(500, 0).UnixNano() || e.Run != "coord" || e.Schema != obs.EventsSchemaV1 {
			t.Errorf("event %d not stamped by the log: %+v", i, e)
		}
	}
	if tr.State != "done" {
		t.Errorf("state = %q, want done", tr.State)
	}
}
