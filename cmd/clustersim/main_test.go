package main

import (
	"testing"

	"clustersim/internal/telemetry"
)

// TestEffectiveSampleInterval pins the one sampling-grid policy every
// sampler consumer shares: an explicit -sample always wins, and any
// feature riding the sampler (-progress, -serve) defaults the grid
// instead of silently sampling nothing.
func TestEffectiveSampleInterval(t *testing.T) {
	cases := []struct {
		name         string
		sample       int64
		wantSampling bool
		want         int64
	}{
		{"off", 0, false, 0},
		{"progress defaults the grid", 0, true, telemetry.DefaultInterval},
		{"explicit interval alone", 5000, false, 5000},
		{"explicit interval wins over default", 5000, true, 5000},
	}
	for _, tc := range cases {
		if got := effectiveSampleInterval(tc.sample, tc.wantSampling); got != tc.want {
			t.Errorf("%s: effectiveSampleInterval(%d, %v) = %d, want %d",
				tc.name, tc.sample, tc.wantSampling, got, tc.want)
		}
	}
}
