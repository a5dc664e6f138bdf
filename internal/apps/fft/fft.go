// Package fft implements the paper's FFT application: a one-dimensional
// n-point complex FFT organised as the radix-√n six-step algorithm
// (SPLASH-2 style). The n points live in a √n × √n matrix whose rows are
// partitioned contiguously across processors; all communication happens
// in the three blocked matrix transposes, where each processor reads a
// different block from every other processor — the all-to-all pattern
// that, as the paper shows, clustering can reduce only by the factor
// (P-C)/(P-1).
package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"clustersim/internal/apps"
	"clustersim/internal/core"
)

// Params sizes one FFT run.
type Params struct {
	M int // log2 of the point count; must be even so √n is integral
}

// ParamsFor maps a size class to parameters. SizePaper is the paper's
// 64K complex points.
func ParamsFor(size apps.Size) Params {
	switch size {
	case apps.SizeTest:
		// 4096 points: the smallest even-M size whose 64 matrix rows
		// admit the default 64-processor machine.
		return Params{M: 12}
	case apps.SizePaper:
		return Params{M: 16} // 65536 points
	default:
		// The paper's own 64K points is the smallest size at which all
		// 64 processors own at least one full cache line of matrix
		// columns (4 rows each), so the blocked transpose self-prefetches
		// within a processor instead of degenerating to lockstep
		// line-sharing; it is also cheap enough to be the default.
		return Params{M: 16}
	}
}

// Workload registers FFT in the application table.
func Workload() apps.Runner {
	return apps.Runner{
		Name:           "fft",
		Representative: "Transform methods, high-radix",
		PaperProblem:   "64K complex points, radix sqrt(n)",
		Communication:  "All-to-all, structured",
		WorkingSet:     "small (4KB), grows as sqrt(n)",
		Run: func(cfg core.Config, size apps.Size) (*core.Result, error) {
			return Run(cfg, ParamsFor(size))
		},
	}
}

const transBlock = 8 // transpose blocking factor (elements)

// Run performs the six-step FFT and verifies sampled output bins against
// a direct DFT plus Parseval's identity.
func Run(cfg core.Config, pr Params) (*core.Result, error) {
	if pr.M%2 != 0 || pr.M < 4 {
		return nil, fmt.Errorf("fft: M=%d must be even and ≥ 4", pr.M)
	}
	n := 1 << pr.M
	r := 1 << (pr.M / 2) // matrix edge = √n
	if cfg.Procs > r {
		return nil, fmt.Errorf("fft: %d processors exceed %d matrix rows", cfg.Procs, r)
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	// Race-free: between two barriers a processor reads only what it wrote
	// itself or what was written before the first of them.
	m.DeclareRaceFree()
	a := apps.NewArray[complex128](m, n, "data-matrix")
	b := apps.NewArray[complex128](m, n, "transpose-matrix")
	roots := apps.NewArray[complex128](m, r, "roots") // shared read-only roots of unity for row FFTs
	input := make([]complex128, n)                    // plain copy for verification

	bar := m.NewBarrierN("fft.main", cfg.Procs)
	res, err := m.Run(func(p *core.Proc) {
		lo, hi := apps.Chunk(r, p.ID(), p.NumProcs())
		// Initialization: each processor fills its rows; P0 the roots.
		rng := rand.New(rand.NewSource(int64(101 + p.ID())))
		for i := lo; i < hi; i++ {
			for j := 0; j < r; j++ {
				v := complex(rng.Float64()-0.5, rng.Float64()-0.5)
				a.Set(p, i*r+j, v)
				input[i*r+j] = v
			}
		}
		if p.ID() == 0 {
			for k := 0; k < r; k++ {
				ang := -2 * math.Pi * float64(k) / float64(r)
				roots.Set(p, k, cmplx.Exp(complex(0, ang)))
			}
		}
		apps.Begin(p, bar)

		// Step 1: transpose A → B.
		transpose(p, b, a, r, lo, hi)
		bar.Wait(p)
		// Step 2: FFT each owned row of B.
		for i := lo; i < hi; i++ {
			rowFFT(p, b, roots, i*r, r)
		}
		bar.Wait(p)
		// Step 3: twiddle B[i][j] *= w^(i·j), w = exp(-2πi/n).
		for i := lo; i < hi; i++ {
			for j := 0; j < r; j++ {
				tw := cmplx.Exp(complex(0, -2*math.Pi*float64(i)*float64(j)/float64(n)))
				p.Compute(20) // sincos
				b.Set(p, i*r+j, b.Get(p, i*r+j)*tw)
			}
		}
		bar.Wait(p)
		// Step 4: transpose B → A.
		transpose(p, a, b, r, lo, hi)
		bar.Wait(p)
		// Step 5: FFT each owned row of A.
		for i := lo; i < hi; i++ {
			rowFFT(p, a, roots, i*r, r)
		}
		bar.Wait(p)
		// Step 6: transpose A → B; B now holds the DFT in natural order.
		transpose(p, b, a, r, lo, hi)
		bar.Wait(p)
	})
	if err != nil {
		return nil, err
	}
	if err := verify(b.Data, input); err != nil {
		return nil, err
	}
	return res, nil
}

// transpose writes dst rows [lo,hi) from the corresponding columns of
// src, blocked so each B×B tile of a remote processor's rows is read
// with spatial locality — the paper's blocked all-to-all.
func transpose(p *core.Proc, dst, src *apps.Array[complex128], r, lo, hi int) {
	for jb := 0; jb < r; jb += transBlock {
		for i := lo; i < hi; i++ {
			for j := jb; j < jb+transBlock && j < r; j++ {
				dst.Set(p, i*r+j, src.Get(p, j*r+i))
				p.Compute(1)
			}
		}
	}
}

// rowFFT performs an in-place iterative radix-2 FFT on row elements
// [base, base+r) of arr, reading twiddles from the shared roots array.
func rowFFT(p *core.Proc, arr, roots *apps.Array[complex128], base, r int) {
	// Bit reversal permutation.
	for i, j := 0, 0; i < r; i++ {
		if i < j {
			vi := arr.Get(p, base+i)
			vj := arr.Get(p, base+j)
			arr.Set(p, base+i, vj)
			arr.Set(p, base+j, vi)
		}
		mask := r >> 1
		for ; j&mask != 0; mask >>= 1 {
			j &^= mask
		}
		j |= mask
	}
	for span := 1; span < r; span <<= 1 {
		step := r / (2 * span) // stride into the r-point roots table
		for k := 0; k < r; k += 2 * span {
			for t := 0; t < span; t++ {
				w := roots.Get(p, t*step)
				u := arr.Get(p, base+k+t)
				v := arr.Get(p, base+k+t+span) * w
				arr.Set(p, base+k+t, u+v)
				arr.Set(p, base+k+t+span, u-v)
				p.Compute(6)
			}
		}
	}
}

// verify checks sampled bins of the result against a direct DFT and the
// whole transform against Parseval's identity.
func verify(out, in []complex128) error {
	n := len(in)
	// Parseval: Σ|x|² = (1/n)Σ|X|².
	var ein, eout float64
	for i := 0; i < n; i++ {
		ein += real(in[i])*real(in[i]) + imag(in[i])*imag(in[i])
		eout += real(out[i])*real(out[i]) + imag(out[i])*imag(out[i])
	}
	eout /= float64(n)
	if math.Abs(ein-eout) > 1e-6*(ein+1) {
		return fmt.Errorf("fft: Parseval violated: in %g vs out/n %g", ein, eout)
	}
	// Direct DFT at sampled bins.
	rng := rand.New(rand.NewSource(7))
	for s := 0; s < 8; s++ {
		k := rng.Intn(n)
		var want complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(j) * float64(k) / float64(n)
			want += in[j] * cmplx.Exp(complex(0, ang))
		}
		if cmplx.Abs(out[k]-want) > 1e-6*(cmplx.Abs(want)+1) {
			return fmt.Errorf("fft: bin %d = %v, want %v", k, out[k], want)
		}
	}
	return nil
}
