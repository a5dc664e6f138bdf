// Package lu implements the paper's LU application: blocked dense LU
// factorization of an N×N matrix without pivoting (SPLASH-2 style,
// contiguous blocks). Blocks are assigned to a 2D processor grid in a
// scatter ("cookie-cutter") decomposition; communication is low and
// flows along rows and columns of the processor grid when perimeter
// blocks read the diagonal block and interior blocks read perimeter
// blocks. The per-processor working set is essentially one 16×16 block —
// 2 KB — and the working sets of different processors are disjoint, so
// the paper finds clustering buys LU almost nothing.
package lu

import (
	"fmt"
	"math"
	"math/rand"

	"clustersim/internal/apps"
	"clustersim/internal/core"
)

// Params sizes one LU run.
type Params struct {
	N     int // matrix dimension
	Block int // block size (the paper uses 16)
}

// ParamsFor maps a size class to problem parameters. SizePaper is the
// paper's 512×512 matrix with 16×16 blocks.
func ParamsFor(size apps.Size) Params {
	switch size {
	case apps.SizeTest:
		return Params{N: 64, Block: 8}
	case apps.SizePaper:
		return Params{N: 512, Block: 16}
	default:
		// 256 gives a 16×16 block grid — four blocks per processor on
		// the 64-processor machine, enough parallel slack that load
		// imbalance does not swamp the communication effects.
		return Params{N: 256, Block: 16}
	}
}

// Workload registers LU in the application table.
func Workload() apps.Runner {
	return apps.Runner{
		Name:           "lu",
		Representative: "Blocked dense linear algebra",
		PaperProblem:   "512-by-512 matrix, 16-by-16 blocks",
		Communication:  "Low communication, along row and column",
		WorkingSet:     "small (2KB), constant in n",
		Run: func(cfg core.Config, size apps.Size) (*core.Result, error) {
			return Run(cfg, ParamsFor(size))
		},
	}
}

// matrix wraps the block-contiguous shared array: block (I,J) occupies
// B*B consecutive elements starting at ((I*nb)+J)*B*B.
type matrix struct {
	a  *apps.Array[float64]
	nb int
	b  int
}

func (m matrix) blockBase(I, J int) int { return (I*m.nb + J) * m.b * m.b }

func (m matrix) idx(I, J, ii, jj int) int { return m.blockBase(I, J) + ii*m.b + jj }

// Run factors a deterministic diagonally dominant matrix and verifies
// L·U against the original on sampled entries.
func Run(cfg core.Config, pr Params) (*core.Result, error) {
	if pr.N%pr.Block != 0 {
		return nil, fmt.Errorf("lu: block %d must divide N %d", pr.Block, pr.N)
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	// Race-free: between two barriers a processor reads only what it wrote
	// itself or what was written before the first of them.
	m.DeclareRaceFree()
	n, b := pr.N, pr.Block
	nb := n / b
	mat := matrix{a: apps.NewArray[float64](m, n*n, "matrix"), nb: nb, b: b}
	orig := make([]float64, n*n) // plain copy for verification
	gr, gc := apps.ProcGrid(cfg.Procs)
	owner := func(I, J int) int { return (I%gr)*gc + (J % gc) }

	bar := m.NewBarrierN("lu.main", cfg.Procs)
	res, err := m.Run(func(p *core.Proc) {
		// Initialization: each processor fills the blocks it owns.
		rng := rand.New(rand.NewSource(int64(17 + p.ID())))
		for I := 0; I < nb; I++ {
			for J := 0; J < nb; J++ {
				if owner(I, J) != p.ID() {
					continue
				}
				for ii := 0; ii < b; ii++ {
					for jj := 0; jj < b; jj++ {
						v := rng.Float64() - 0.5
						gi, gj := I*b+ii, J*b+jj
						if gi == gj {
							v += float64(n) // diagonal dominance: no pivoting needed
						}
						mat.a.Set(p, mat.idx(I, J, ii, jj), v)
						orig[gi*n+gj] = v
					}
				}
			}
		}
		apps.Begin(p, bar)

		for k := 0; k < nb; k++ {
			// Factor the diagonal block.
			if owner(k, k) == p.ID() {
				factorDiag(p, mat, k)
			}
			bar.Wait(p)
			// Perimeter: row k blocks get L(k,k)⁻¹·A, column k blocks
			// get A·U(k,k)⁻¹. Everyone reads the diagonal block.
			for J := k + 1; J < nb; J++ {
				if owner(k, J) == p.ID() {
					solveRow(p, mat, k, J)
				}
			}
			for I := k + 1; I < nb; I++ {
				if owner(I, k) == p.ID() {
					solveCol(p, mat, I, k)
				}
			}
			bar.Wait(p)
			// Interior update: A(I,J) -= A(I,k)·A(k,J).
			for I := k + 1; I < nb; I++ {
				for J := k + 1; J < nb; J++ {
					if owner(I, J) == p.ID() {
						updateBlock(p, mat, I, J, k)
					}
				}
			}
			bar.Wait(p)
		}
	})
	if err != nil {
		return nil, err
	}
	if err := verify(mat, orig, n); err != nil {
		return nil, err
	}
	return res, nil
}

// factorDiag computes the unblocked LU of block (k,k) in place.
func factorDiag(p *core.Proc, m matrix, k int) {
	b := m.b
	for d := 0; d < b; d++ {
		pivot := m.a.Get(p, m.idx(k, k, d, d))
		p.Compute(10) // divide latency
		for i := d + 1; i < b; i++ {
			lid := m.a.Get(p, m.idx(k, k, i, d)) / pivot
			m.a.Set(p, m.idx(k, k, i, d), lid)
			p.Compute(10)
			for j := d + 1; j < b; j++ {
				v := m.a.Get(p, m.idx(k, k, i, j)) - lid*m.a.Get(p, m.idx(k, k, d, j))
				m.a.Set(p, m.idx(k, k, i, j), v)
				p.Compute(2)
			}
		}
	}
}

// solveRow applies the lower-triangular solve to block (k,J).
func solveRow(p *core.Proc, m matrix, k, J int) {
	b := m.b
	for d := 0; d < b; d++ {
		for i := d + 1; i < b; i++ {
			l := m.a.Get(p, m.idx(k, k, i, d)) // reads the shared diagonal block
			for j := 0; j < b; j++ {
				v := m.a.Get(p, m.idx(k, J, i, j)) - l*m.a.Get(p, m.idx(k, J, d, j))
				m.a.Set(p, m.idx(k, J, i, j), v)
				p.Compute(2)
			}
		}
	}
}

// solveCol applies the upper-triangular solve to block (I,k).
func solveCol(p *core.Proc, m matrix, I, k int) {
	b := m.b
	for d := 0; d < b; d++ {
		pivot := m.a.Get(p, m.idx(k, k, d, d))
		p.Compute(10)
		for i := 0; i < b; i++ {
			v := m.a.Get(p, m.idx(I, k, i, d)) / pivot
			m.a.Set(p, m.idx(I, k, i, d), v)
			p.Compute(10)
			for j := d + 1; j < b; j++ {
				u := m.a.Get(p, m.idx(k, k, d, j))
				w := m.a.Get(p, m.idx(I, k, i, j)) - v*u
				m.a.Set(p, m.idx(I, k, i, j), w)
				p.Compute(2)
			}
		}
	}
}

// updateBlock computes A(I,J) -= A(I,k)·A(k,J), reading the two
// perimeter blocks (the communication) and updating the owned block.
func updateBlock(p *core.Proc, m matrix, I, J, k int) {
	b := m.b
	for ii := 0; ii < b; ii++ {
		for jj := 0; jj < b; jj++ {
			acc := m.a.Get(p, m.idx(I, J, ii, jj))
			for kk := 0; kk < b; kk++ {
				acc -= m.a.Get(p, m.idx(I, k, ii, kk)) * m.a.Get(p, m.idx(k, J, kk, jj))
				p.Compute(2)
			}
			m.a.Set(p, m.idx(I, J, ii, jj), acc)
		}
	}
}

// verify reconstructs L·U and compares with the original matrix.
func verify(m matrix, orig []float64, n int) error {
	b, nb := m.b, m.nb
	get := func(gi, gj int) float64 {
		return m.a.Data[m.idx(gi/b, gj/b, gi%b, gj%b)]
	}
	// After the in-place factorization A holds L strictly below the
	// diagonal (unit diagonal implied) and U on and above it, so
	// (L·U)(i,j) = Σ_{k ≤ min(i,j)} L(i,k)·U(k,j). Sample rows to keep
	// verification O(n²·samples).
	step := n/16 + 1
	var maxErr, scale float64
	for gi := 0; gi < n; gi += step {
		for gj := 0; gj < n; gj++ {
			kmax := gi
			if gj < gi {
				kmax = gj
			}
			sum := 0.0
			for k := 0; k <= kmax; k++ {
				l := 1.0
				if k < gi {
					l = get(gi, k)
				}
				sum += l * get(k, gj)
			}
			diff := math.Abs(sum - orig[gi*n+gj])
			if diff > maxErr {
				maxErr = diff
			}
			if s := math.Abs(orig[gi*n+gj]); s > scale {
				scale = s
			}
		}
	}
	if maxErr > 1e-6*scale {
		return fmt.Errorf("lu: verification failed: max |LU-A| = %g (scale %g)", maxErr, scale)
	}
	_ = nb
	return nil
}
