package telemetry

import (
	"testing"

	"clustersim/internal/stats"
)

// Degenerate sampling periods must fall back to the documented default
// rather than sampling every cycle (or looping forever on a zero step).
func TestSampleIntervalGuardsDegenerateRequests(t *testing.T) {
	cases := []struct {
		requested, want Clock
	}{
		{0, DefaultInterval},
		{-1, DefaultInterval},
		{-1_000_000, DefaultInterval},
		{1, 1},
		{50_000, 50_000},
		{DefaultInterval + 1, DefaultInterval + 1},
	}
	for _, c := range cases {
		if got := SampleInterval(c.requested); got != c.want {
			t.Errorf("SampleInterval(%d) = %d, want %d", c.requested, got, c.want)
		}
	}
	if DefaultInterval <= 0 {
		t.Fatalf("DefaultInterval %d must be positive", DefaultInterval)
	}
}

// TestOnSampleObservesDeltas pins the SetOnSample contract: the
// callback sees every interval's machine-wide deltas (not cumulative
// counters), in order, at the sample's simulated instant.
func TestOnSampleObservesDeltas(t *testing.T) {
	c := New()
	attach(c, 2, 2)
	type seen struct {
		at   Clock
		refs uint64
	}
	var got []seen
	c.SetOnSample(func(at Clock, total ClusterSample) {
		got = append(got, seen{at, total.Refs.References()})
	})
	cum := func(a, b uint64) []ClusterSample {
		return []ClusterSample{
			{Refs: stats.Counters{Reads: a}},
			{Refs: stats.Counters{Reads: b}},
		}
	}
	c.Sample(100, cum(30, 20))
	c.Sample(200, cum(70, 50))
	want := []seen{{100, 50}, {200, 70}}
	if len(got) != len(want) {
		t.Fatalf("callback fired %d times, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}
