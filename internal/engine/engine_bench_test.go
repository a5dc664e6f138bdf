package engine

import "testing"

// BenchmarkYieldHandoff measures raw token-handoff throughput: two
// processors forced to alternate every event — the engine's worst case.
func BenchmarkYieldHandoff(b *testing.B) {
	s := NewScheduler(2, 0)
	n := b.N
	err := s.Run(func(pe *PE) {
		for i := 0; i < n; i++ {
			pe.Advance(1)
			pe.Yield()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(2*n)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkYield64 measures scheduling across a full 64-processor
// machine with skewed advance amounts (amortised handoffs).
func BenchmarkYield64(b *testing.B) {
	s := NewScheduler(64, 0)
	n := b.N
	err := s.Run(func(pe *PE) {
		step := Clock(1 + pe.ID()%7)
		for i := 0; i < n; i++ {
			pe.Advance(step)
			pe.Yield()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(64*n)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkQuantum64 shows the quantum's effect on handoff counts.
func BenchmarkQuantum64(b *testing.B) {
	s := NewScheduler(64, 100)
	n := b.N
	err := s.Run(func(pe *PE) {
		step := Clock(1 + pe.ID()%7)
		for i := 0; i < n; i++ {
			pe.Advance(step)
			pe.Yield()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(64*n)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkAwait64 measures the dispatch path a race-free machine takes
// (fig2-infinite's): 64 processors buffer one-cycle events, 256 at a
// time as core's run-ahead does, and the loop performs them through the
// step function. Every event hands the token to the next processor, so
// one op is one (time, id) dispatch decision with no coroutine switch.
func BenchmarkAwait64(b *testing.B) {
	const pes, buffer = 64, 256
	s := NewScheduler(pes, 0)
	buffered := make([]int, pes)
	s.SetStep(func(pe *PE) bool {
		pe.Advance(1)
		buffered[pe.ID()]--
		return buffered[pe.ID()] > 0
	})
	err := s.Run(func(pe *PE) {
		left := b.N / pes
		if pe.ID() < b.N%pes {
			left++
		}
		for left > 0 {
			buffered[pe.ID()] = min(left, buffer)
			left -= buffered[pe.ID()]
			pe.Await()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
