package obs

import (
	"testing"
	"time"
)

// The ETA model under a fake clock: mean completed cost times the
// outstanding count, with replays and failures advancing completion
// for free.
func TestETACompletedCostModel(t *testing.T) {
	now := time.Unix(0, 0)
	e := NewETAAt(func() time.Time { return now })
	e.SetTotal(10)

	// Nothing computed yet: elapsed only, no projection.
	now = now.Add(5 * time.Second)
	est := e.Estimate()
	if est.HaveRemaining || est.ElapsedMS != 5000 || est.TotalPoints != 10 {
		t.Fatalf("pre-sample estimate = %+v", est)
	}

	e.Completed(2 * time.Second)
	e.Completed(4 * time.Second)
	est = e.Estimate()
	if !est.HaveRemaining || est.MeanPointMS != 3000 {
		t.Fatalf("mean = %+v, want 3000ms", est)
	}
	if est.RemainingMS != 8*3000 {
		t.Errorf("remaining = %dms, want 8 points x 3000ms", est.RemainingMS)
	}

	// A replay completes a point without contributing a cost sample.
	e.CompletedFree()
	est = e.Estimate()
	if est.MeanPointMS != 3000 || est.RemainingMS != 7*3000 || est.DonePoints != 3 {
		t.Errorf("after free completion: %+v", est)
	}
}

// Points discovered beyond the declared total grow the total instead of
// producing a negative remaining count.
func TestETATotalGrowsWithSightings(t *testing.T) {
	now := time.Unix(0, 0)
	e := NewETAAt(func() time.Time { return now })
	e.SetTotal(1)
	for i := 0; i < 3; i++ {
		e.Saw()
		e.Completed(time.Second)
	}
	est := e.Estimate()
	if est.TotalPoints != 3 || est.RemainingMS != 0 {
		t.Errorf("estimate = %+v, want total grown to 3 and nothing remaining", est)
	}
}

// Points that run at once finish the sweep sooner: with two points
// running side by side the projection is half of the one-at-a-time
// figure. A point's start, not its completion, is what the model
// counts, so the peak stays after both points settle.
func TestETADividesByPointsRunningAtOnce(t *testing.T) {
	now := time.Unix(0, 0)
	sw := NewSweepAt("eta", nil, nil, func() time.Time { return now })
	sw.SetTotalPoints(5)
	a, b := Point{App: "fft", Cluster: 1}, Point{App: "fft", Cluster: 2}
	sw.PointStarted(a, "", "")
	sw.PointStarted(b, "", "")
	sw.PointDone(a, "", 2*time.Second, 1)
	// One cost sample (2 s), four points outstanding, two at a time.
	if est := sw.Status().ETA; !est.HaveRemaining || est.MeanPointMS != 2000 || est.RemainingMS != 4*2000/2 {
		t.Errorf("two running: eta = %+v, want 4 points x 2000ms / 2", est)
	}
	sw.PointDone(b, "", 4*time.Second, 1)
	if est := sw.Status().ETA; est.MeanPointMS != 3000 || est.RemainingMS != 3*3000/2 {
		t.Errorf("both settled: eta = %+v, want 3 points x 3000ms / 2", est)
	}
}
