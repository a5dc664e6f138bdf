package fabric

import (
	"testing"
	"time"

	"clustersim/internal/obs"
)

// A second completion of a settled point is not counted again, even if
// it reaches the sweep (the coordinator drops duplicates before they
// do); what flags it is the coordinator's drop, a fabric-result-dup
// event from the worker that sent it.
func TestObsDuplicateResultFlaggedNotDoubleCounted(t *testing.T) {
	log := obs.NewLog(nil, "r")
	sw := obs.NewSweep("r", obs.NewRegistry(), log)
	sw.SetTotalPoints(2)
	o := NewObs(sw)
	spec := makeSpecs(1)[0]
	res := fakeResult(spec)

	o.Leased("w1", spec, "fresh")
	o.Completed("w1", spec, res, false, time.Second)
	o.Completed("w2", spec, res, false, 9*time.Second)
	o.Dropped("w2", spec, "byte-identical duplicate dropped")

	doc := sw.Status()
	if doc.Counts != (obs.PointCounts{Done: 1}) {
		t.Errorf("counts = %+v, want 1 done", doc.Counts)
	}
	if doc.ETA.MeanPointMS != 1000 {
		t.Errorf("mean = %dms: the second completion fed the ETA", doc.ETA.MeanPointMS)
	}
	if r := doc.Points[0]; r.Worker != "w1" || r.WallMS != 1000 {
		t.Errorf("point row = %+v, want w1's completion (1000ms)", r)
	}
	var done, dups []string
	for _, e := range log.Recent() {
		switch e.Kind {
		case obs.EventPointDone:
			done = append(done, e.Point+" "+e.Worker)
		case EventResultDup:
			dups = append(dups, e.Point+" "+e.Worker)
		}
	}
	want := spec.Name()
	if len(done) != 1 || done[0] != want+" w1" {
		t.Errorf("point-done events = %q, want one from w1", done)
	}
	if len(dups) != 1 || dups[0] != want+" w2" {
		t.Errorf("%s events = %q, want one from w2", EventResultDup, dups)
	}
}
