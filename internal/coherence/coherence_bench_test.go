package coherence

import (
	"math/rand"
	"testing"

	"clustersim/internal/cache"
	"clustersim/internal/memory"
)

func benchSystem(b *testing.B, cacheLines int) (*System, memory.Addr) {
	b.Helper()
	as, err := memory.New(4096, 8)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSystem(as, 8, cacheLines, 64, DefaultLatencies(), cache.LRU)
	if err != nil {
		b.Fatal(err)
	}
	return s, as.Alloc(1<<22, "bench")
}

// BenchmarkProtocolReadHit measures the hot path: read hits spread over
// 4096 resident lines in each of 8 clusters' infinite caches, visited
// at a stride so that consecutive hits land on different lines and
// clusters, as a kernel's sweep over its data does. One op is one Read.
func BenchmarkProtocolReadHit(b *testing.B) {
	const clusters, lines, stride = 8, 4096, 2731 // odd stride: every line
	s, base := benchSystem(b, 0)
	for c := 0; c < clusters; c++ {
		for l := 0; l < lines; l++ {
			s.Read(c, c, base+uint64(l)*64, 0)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := i % clusters
		if a := s.Read(c, c, base+uint64(i*stride%lines)*64, Clock(i)+1000); a.Class != Hit {
			b.Fatalf("read %d: %v, want a hit", i, a.Class)
		}
	}
}

// BenchmarkProtocolColdMisses measures fill+directory work.
func BenchmarkProtocolColdMisses(b *testing.B) {
	s, base := benchSystem(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Read(i%8, i%8, base+uint64(i%65536)*64, Clock(i))
	}
}

// BenchmarkProtocolSharingMix measures a read/write mix with
// invalidations and a finite cache (evictions, hints, writebacks).
func BenchmarkProtocolSharingMix(b *testing.B) {
	s, base := benchSystem(b, 256)
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl := r.Intn(8)
		addr := base + uint64(r.Intn(4096))*64
		if r.Intn(4) == 0 {
			s.Write(cl, cl, addr, Clock(i))
		} else {
			s.Read(cl, cl, addr, Clock(i))
		}
	}
}

// BenchmarkMemClusterSharingMix measures the shared-main-memory variant
// on the same workload shape.
func BenchmarkMemClusterSharingMix(b *testing.B) {
	as, err := memory.New(4096, 4)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewMemClusterSystem(as, 4, 2, 256, 0, 64, DefaultLatencies(),
		DefaultBusCycles, cache.LRU)
	if err != nil {
		b.Fatal(err)
	}
	base := as.Alloc(1<<22, "bench")
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proc := r.Intn(8)
		addr := base + uint64(r.Intn(4096))*64
		if r.Intn(4) == 0 {
			s.Write(proc, proc/2, addr, Clock(i))
		} else {
			s.Read(proc, proc/2, addr, Clock(i))
		}
	}
}
