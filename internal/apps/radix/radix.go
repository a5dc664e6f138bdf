// Package radix implements the paper's Radix application: a parallel
// radix sort of integer keys (SPLASH-2 style). Each pass builds local
// histograms, combines them into global digit offsets on shared
// histogram arrays (the structure the paper credits with "significant
// prefetching effects, particularly on the shared histograms"), and then
// permutes keys into a shared destination array — the all-to-all,
// relatively unstructured scattered-write communication phase.
package radix

import (
	"fmt"
	"math/rand"

	"clustersim/internal/apps"
	"clustersim/internal/core"
)

// Params sizes one Radix run.
type Params struct {
	Keys    int // number of integer keys
	Radix   int // digit base (the paper uses 256)
	KeyBits int // bits per key; passes = ceil(KeyBits / log2(Radix))
}

// ParamsFor maps a size class to parameters. SizePaper is the paper's
// 256K keys with radix 256.
func ParamsFor(size apps.Size) Params {
	switch size {
	case apps.SizeTest:
		return Params{Keys: 4096, Radix: 256, KeyBits: 24}
	case apps.SizePaper:
		return Params{Keys: 256 * 1024, Radix: 256, KeyBits: 24}
	default:
		return Params{Keys: 64 * 1024, Radix: 256, KeyBits: 24}
	}
}

// Workload registers Radix in the application table.
func Workload() apps.Runner {
	return apps.Runner{
		Name:           "radix",
		Representative: "High-performance parallel sorting",
		PaperProblem:   "256K integer keys, radix=256",
		Communication:  "All-to-all, relatively unstructured",
		WorkingSet:     "two: one small, one large O(n/p)",
		Run: func(cfg core.Config, size apps.Size) (*core.Result, error) {
			return Run(cfg, ParamsFor(size))
		},
	}
}

// Run sorts deterministic pseudo-random keys and verifies order and
// content preservation.
func Run(cfg core.Config, pr Params) (*core.Result, error) {
	if pr.Keys <= 0 || pr.Radix < 2 || pr.Radix&(pr.Radix-1) != 0 {
		return nil, fmt.Errorf("radix: bad params %+v (radix must be a power of two)", pr)
	}
	digitBits := 0
	for 1<<digitBits < pr.Radix {
		digitBits++
	}
	passes := (pr.KeyBits + digitBits - 1) / digitBits
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	// Race-free: between two barriers a processor reads only what it wrote
	// itself or what was written before the first of them.
	m.DeclareRaceFree()
	P := cfg.Procs
	R := pr.Radix
	src := apps.NewArray[int64](m, pr.Keys, "keysA")
	dst := apps.NewArray[int64](m, pr.Keys, "keysB")
	// Shared histogram matrix histo[p][d] and rank matrix rank[p][d];
	// each processor's row is placed at its cluster, as SPLASH places
	// per-process data, but rows are read globally in the combine phase.
	histo := apps.NewArray[int64](m, P*R, "histograms")
	rank := apps.NewArray[int64](m, P*R, "ranks")
	for q := 0; q < P; q++ {
		m.Place(histo.Addr(q*R), uint64(R)*8, q)
		m.Place(rank.Addr(q*R), uint64(R)*8, q)
	}
	digitBase := apps.NewArray[int64](m, R, "digitBase")
	colSum := apps.NewArray[int64](m, R, "colSum")

	inSum := make([]int64, P) // per-processor plain-Go input checksums
	inXor := make([]int64, P)
	bar := m.NewBarrierN("radix.main", cfg.Procs)
	res, err := m.Run(func(p *core.Proc) {
		id := p.ID()
		klo, khi := apps.Chunk(pr.Keys, id, P)
		rng := rand.New(rand.NewSource(int64(997 + p.ID())))
		mask := int64(1)<<pr.KeyBits - 1
		for i := klo; i < khi; i++ {
			k := rng.Int63() & mask
			src.Set(p, i, k)
			inSum[id] += k
			inXor[id] ^= k
		}
		apps.Begin(p, bar)

		a, b := src, dst
		for pass := 0; pass < passes; pass++ {
			shift := uint(pass * digitBits)
			// Phase 1: local histogram over my contiguous key block.
			for d := 0; d < R; d++ {
				histo.Set(p, id*R+d, 0)
			}
			for i := klo; i < khi; i++ {
				d := int(a.Get(p, i) >> shift & int64(R-1))
				histo.Set(p, id*R+d, histo.Get(p, id*R+d)+1)
				p.Compute(4)
			}
			bar.Wait(p)
			// Phase 2: for my digit range, scan across processors to
			// produce per-processor ranks and the column totals. This is
			// where every processor reads every other's histogram row.
			dlo, dhi := apps.Chunk(R, id, P)
			for d := dlo; d < dhi; d++ {
				running := int64(0)
				for q := 0; q < P; q++ {
					rank.Set(p, q*R+d, running)
					running += histo.Get(p, q*R+d)
					p.Compute(2)
				}
				colSum.Set(p, d, running)
			}
			bar.Wait(p)
			// Phase 3: exclusive prefix over the digit totals.
			if id == 0 {
				running := int64(0)
				for d := 0; d < R; d++ {
					s := colSum.Get(p, d)
					digitBase.Set(p, d, running)
					running += s
					p.Compute(2)
				}
			}
			bar.Wait(p)
			// Phase 4: permutation — scattered writes into the shared
			// destination array.
			local := make([]int64, R) // register/stack-resident counters
			for i := klo; i < khi; i++ {
				k := a.Get(p, i)
				d := int(k >> shift & int64(R-1))
				pos := digitBase.Get(p, d) + rank.Get(p, id*R+d) + local[d]
				local[d]++
				b.Set(p, int(pos), k)
				p.Compute(6)
			}
			bar.Wait(p)
			a, b = b, a
		}
	})
	if err != nil {
		return nil, err
	}
	// After an even number of ping-pong swaps the result is back in src.
	out := dst.Data
	if passes%2 == 0 {
		out = src.Data
	}
	var wantSum, wantXor int64
	for q := 0; q < P; q++ {
		wantSum += inSum[q]
		wantXor ^= inXor[q]
	}
	if err := verify(out, wantSum, wantXor); err != nil {
		return nil, err
	}
	return res, nil
}

// verify checks the output is sorted and preserves the input multiset's
// sum and xor checksums.
func verify(out []int64, wantSum, wantXor int64) error {
	var sum, xor int64
	for i, v := range out {
		if i > 0 && out[i-1] > v {
			return fmt.Errorf("radix: out of order at %d: %d > %d", i, out[i-1], v)
		}
		sum += v
		xor ^= v
	}
	if sum != wantSum || xor != wantXor {
		return fmt.Errorf("radix: content changed: sum %d/%d xor %d/%d", sum, wantSum, xor, wantXor)
	}
	return nil
}
