// Package ocean implements the paper's Ocean application: a regular-grid
// nearest-neighbour iterative computation with a multigrid solver. Every
// processor owns a square subgrid of every grid (subgrid-contiguous
// layout, explicitly placed at its cluster, as the SPLASH code places
// its partitions); communication happens at the four borders of each
// subgrid. Processors with adjacent IDs own adjacent subgrids in the
// same row of the processor grid, so doubling the cluster size doubles
// the subgrids local to a cluster and roughly halves the external
// border traffic — the mechanism behind Ocean's Figure 2 improvement.
package ocean

import (
	"fmt"
	"math"

	"clustersim/internal/apps"
	"clustersim/internal/core"
)

// Params sizes one Ocean run.
type Params struct {
	N      int // grid edge including boundary; must be 2^k + 2
	Steps  int // timesteps
	Cycles int // multigrid V-cycles per solve
}

// ParamsFor maps a size class to parameters. SizePaper is the paper's
// 130×130 grid (Figure 2); the 66×66 "small problem" of Figure 3 is
// Params{N: 66, ...}.
func ParamsFor(size apps.Size) Params {
	switch size {
	case apps.SizeTest:
		return Params{N: 34, Steps: 1, Cycles: 1}
	case apps.SizePaper:
		return Params{N: 130, Steps: 2, Cycles: 2}
	default:
		// The default matches the paper's Figure 2 grid; Figure 3's
		// "small problem" halves it to 66×66.
		return Params{N: 130, Steps: 2, Cycles: 2}
	}
}

// Workload registers Ocean in the application table.
func Workload() apps.Runner {
	return apps.Runner{
		Name:           "ocean",
		Representative: "Regular-grid iterative codes",
		PaperProblem:   "130-by-130 grids, 25 grids",
		Communication:  "Nearest-neighbor, multigrid",
		WorkingSet:     "size of local partition of grid, O(n/p)",
		Run: func(cfg core.Config, size apps.Size) (*core.Result, error) {
			return Run(cfg, ParamsFor(size))
		},
	}
}

// layout maps global grid coordinates onto the subgrid-contiguous
// storage of one grid level.
type layout struct {
	n        int // grid edge including boundary
	pr, pc   int
	rowLo    []int // per processor-row: first global row owned
	rowHi    []int
	colLo    []int
	colHi    []int
	base     []int // per processor: element offset of its block
	width    []int // per processor: block width
	rowOwner []int // global row -> processor-row
	colOwner []int
	total    int
}

func newLayout(n, procs int) *layout {
	pr, pc := apps.ProcGrid(procs)
	l := &layout{n: n, pr: pr, pc: pc}
	inner := n - 2
	l.rowLo, l.rowHi = make([]int, pr), make([]int, pr)
	l.colLo, l.colHi = make([]int, pc), make([]int, pc)
	for r := 0; r < pr; r++ {
		lo, hi := apps.Chunk(inner, r, pr)
		l.rowLo[r], l.rowHi[r] = lo+1, hi+1
	}
	for c := 0; c < pc; c++ {
		lo, hi := apps.Chunk(inner, c, pc)
		l.colLo[c], l.colHi[c] = lo+1, hi+1
	}
	// Boundary rows/cols belong to the edge processors' blocks.
	l.rowLo[0], l.rowHi[pr-1] = 0, n
	l.colLo[0], l.colHi[pc-1] = 0, n
	l.rowOwner = make([]int, n)
	for g := 0; g < n; g++ {
		for r := 0; r < pr; r++ {
			if g >= l.rowLo[r] && g < l.rowHi[r] {
				l.rowOwner[g] = r
				break
			}
		}
	}
	l.colOwner = make([]int, n)
	for g := 0; g < n; g++ {
		for c := 0; c < pc; c++ {
			if g >= l.colLo[c] && g < l.colHi[c] {
				l.colOwner[g] = c
				break
			}
		}
	}
	l.base = make([]int, procs)
	l.width = make([]int, procs)
	off := 0
	for r := 0; r < pr; r++ {
		for c := 0; c < pc; c++ {
			pid := r*pc + c
			h := l.rowHi[r] - l.rowLo[r]
			w := l.colHi[c] - l.colLo[c]
			l.base[pid] = off
			l.width[pid] = w
			off += h * w
		}
	}
	l.total = off
	return l
}

// owner returns the processor owning global cell (gi, gj).
func (l *layout) owner(gi, gj int) int {
	return l.rowOwner[gi]*l.pc + l.colOwner[gj]
}

// idx returns the storage offset of global cell (gi, gj).
func (l *layout) idx(gi, gj int) int {
	r, c := l.rowOwner[gi], l.colOwner[gj]
	pid := r*l.pc + c
	return l.base[pid] + (gi-l.rowLo[r])*l.width[pid] + (gj - l.colLo[c])
}

// grid is one distributed 2D array.
type grid struct {
	lay *layout
	f   *apps.Array[float64]
}

func newGrid(m *core.Machine, lay *layout, name string) *grid {
	g := &grid{lay: lay, f: apps.NewArray[float64](m, lay.total, name)}
	// Place each processor's block at its cluster (SPLASH Ocean's 4D
	// arrays); the paper notes some applications place data explicitly.
	for pid := 0; pid < lay.pr*lay.pc; pid++ {
		r := pid / lay.pc
		h := lay.rowHi[r] - lay.rowLo[r]
		count := uint64(h*lay.width[pid]) * 8
		if count > 0 {
			m.Place(g.f.Addr(lay.base[pid]), count, pid)
		}
	}
	return g
}

func (g *grid) get(p *core.Proc, gi, gj int) float64 { return g.f.Get(p, g.lay.idx(gi, gj)) }
func (g *grid) set(p *core.Proc, gi, gj int, v float64) {
	g.f.Set(p, g.lay.idx(gi, gj), v)
}

// raw reads the value without simulated traffic (verification only).
func (g *grid) raw(gi, gj int) float64 { return g.f.Data[g.lay.idx(gi, gj)] }

// span is a processor's owned inner-cell rectangle at one level.
type span struct{ rlo, rhi, clo, chi int }

func ownedInner(l *layout, pid int) span {
	r, c := pid/l.pc, pid%l.pc
	s := span{l.rowLo[r], l.rowHi[r], l.colLo[c], l.colHi[c]}
	if s.rlo < 1 {
		s.rlo = 1
	}
	if s.rhi > l.n-1 {
		s.rhi = l.n - 1
	}
	if s.clo < 1 {
		s.clo = 1
	}
	if s.chi > l.n-1 {
		s.chi = l.n - 1
	}
	return s
}

// Run executes the timestep loop and verifies that the multigrid solver
// reduced the residual of the final solve.
func Run(cfg core.Config, pr Params) (*core.Result, error) {
	inner := pr.N - 2
	if inner < 4 || inner&(inner-1) != 0 {
		return nil, fmt.Errorf("ocean: N=%d must be 2^k+2 with k ≥ 2", pr.N)
	}
	if pr.Steps < 1 || pr.Cycles < 1 {
		return nil, fmt.Errorf("ocean: Steps and Cycles must be ≥ 1")
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	// Race-free: between two barriers a processor reads only what it wrote
	// itself or what was written before the first of them; the error sum
	// is updated under its lock.
	m.DeclareRaceFree()
	// Multigrid hierarchy: level 0 is the full grid; coarser levels
	// halve the inner dimension while every processor still owns cells.
	prRows, pcCols := apps.ProcGrid(cfg.Procs)
	var lays []*layout
	for n := pr.N; n-2 >= 4 && (n-2)/2 >= prRows && (n-2)/2 >= pcCols && len(lays) < 4; n = (n-2)/2 + 2 {
		lays = append(lays, newLayout(n, cfg.Procs))
	}
	if len(lays) == 0 {
		lays = append(lays, newLayout(pr.N, cfg.Procs))
	}
	psi := newGrid(m, lays[0], "psi")
	rhs := newGrid(m, lays[0], "rhs")
	// Work and residual grids per level.
	u := make([]*grid, len(lays))
	f := make([]*grid, len(lays))
	res := make([]*grid, len(lays))
	for lvl, lay := range lays {
		u[lvl] = newGrid(m, lay, fmt.Sprintf("u%d", lvl))
		f[lvl] = newGrid(m, lay, fmt.Sprintf("f%d", lvl))
		res[lvl] = newGrid(m, lay, fmt.Sprintf("res%d", lvl))
	}
	errSum := apps.NewArray[float64](m, 1, "errsum") // reduction variable
	lock := m.NewLock("errsum")
	bar := m.NewBarrierN("ocean.main", cfg.Procs)
	var initialResidual float64 // plain-Go instrumentation, no simulated refs

	runRes, err := m.Run(func(p *core.Proc) {
		id := p.ID()
		s0 := ownedInner(lays[0], id)
		// Initialization: smooth deterministic field in psi.
		for i := s0.rlo; i < s0.rhi; i++ {
			for j := s0.clo; j < s0.chi; j++ {
				x := float64(i) / float64(pr.N)
				y := float64(j) / float64(pr.N)
				psi.set(p, i, j, math.Sin(math.Pi*x)*math.Sin(2*math.Pi*y))
				p.Compute(30)
			}
		}
		apps.Begin(p, bar)

		for step := 0; step < pr.Steps; step++ {
			// Phase 1: rhs = -∇²psi + forcing (border reads are the
			// nearest-neighbour communication).
			for i := s0.rlo; i < s0.rhi; i++ {
				for j := s0.clo; j < s0.chi; j++ {
					lap := psi.get(p, i-1, j) + psi.get(p, i+1, j) +
						psi.get(p, i, j-1) + psi.get(p, i, j+1) - 4*psi.get(p, i, j)
					force := 0.01 * math.Sin(float64(step+1)*math.Pi*float64(i+j)/float64(pr.N))
					rhs.set(p, i, j, -lap+force)
					p.Compute(30) // sin/cos forcing plus the stencil arithmetic
				}
			}
			bar.Wait(p)
			// Phase 2: copy psi into the level-0 work grid and rhs into
			// its right-hand side.
			for i := s0.rlo; i < s0.rhi; i++ {
				for j := s0.clo; j < s0.chi; j++ {
					u[0].set(p, i, j, psi.get(p, i, j))
					f[0].set(p, i, j, rhs.get(p, i, j))
					p.Compute(2)
				}
			}
			bar.Wait(p)
			if p.ID() == 0 && step == pr.Steps-1 {
				initialResidual = residualNorm(u[0], f[0])
			}
			// Phase 3: multigrid V-cycles.
			for c := 0; c < pr.Cycles; c++ {
				vcycle(p, id, bar, lays, u, f, res, 0)
			}
			// Phase 4: psi ← solution; accumulate a global error sum
			// under the reduction lock (Ocean's global reductions).
			local := 0.0
			for i := s0.rlo; i < s0.rhi; i++ {
				for j := s0.clo; j < s0.chi; j++ {
					v := u[0].get(p, i, j)
					d := v - psi.get(p, i, j)
					local += d * d
					psi.set(p, i, j, v)
					p.Compute(4)
				}
			}
			lock.Acquire(p)
			errSum.Set(p, 0, errSum.Get(p, 0)+local)
			lock.Release(p)
			bar.Wait(p)
		}
	})
	if err != nil {
		return nil, err
	}
	if err := verify(u[0], f[0], initialResidual, pr.Cycles); err != nil {
		return nil, err
	}
	return runRes, nil
}

// vcycle runs one multigrid V-cycle from the given level.
func vcycle(p *core.Proc, id int, bar *core.Barrier, lays []*layout, u, f, res []*grid, lvl int) {
	h2 := float64(int(1) << (2 * lvl)) // (2^lvl)² relative mesh spacing
	smooth(p, id, bar, lays[lvl], u[lvl], f[lvl], h2, 2)
	if lvl+1 < len(lays) {
		restrictResidual(p, id, bar, lays, u, f, res, lvl, h2)
		vcycle(p, id, bar, lays, u, f, res, lvl+1)
		prolongCorrect(p, id, bar, lays, u, lvl)
	}
	smooth(p, id, bar, lays[lvl], u[lvl], f[lvl], h2, 2)
}

// smooth runs red-black Gauss-Seidel sweeps.
func smooth(p *core.Proc, id int, bar *core.Barrier, lay *layout, u, f *grid, h2 float64, sweeps int) {
	s := ownedInner(lay, id)
	for sw := 0; sw < sweeps; sw++ {
		for color := 0; color < 2; color++ {
			for i := s.rlo; i < s.rhi; i++ {
				for j := s.clo; j < s.chi; j++ {
					if (i+j)&1 != color {
						continue
					}
					v := 0.25 * (u.get(p, i-1, j) + u.get(p, i+1, j) +
						u.get(p, i, j-1) + u.get(p, i, j+1) - h2*f.get(p, i, j))
					u.set(p, i, j, v)
					p.Compute(16)
				}
			}
			bar.Wait(p)
		}
	}
}

// restrictResidual computes the fine residual and restricts it (2×2
// full weighting) to the coarse right-hand side, zeroing the coarse u.
func restrictResidual(p *core.Proc, id int, bar *core.Barrier, lays []*layout, u, f, res []*grid, lvl int, h2 float64) {
	s := ownedInner(lays[lvl], id)
	for i := s.rlo; i < s.rhi; i++ {
		for j := s.clo; j < s.chi; j++ {
			r := f[lvl].get(p, i, j) - (u[lvl].get(p, i-1, j)+u[lvl].get(p, i+1, j)+
				u[lvl].get(p, i, j-1)+u[lvl].get(p, i, j+1)-4*u[lvl].get(p, i, j))/h2
			res[lvl].set(p, i, j, r)
			p.Compute(16)
		}
	}
	bar.Wait(p)
	sc := ownedInner(lays[lvl+1], id)
	for ci := sc.rlo; ci < sc.rhi; ci++ {
		for cj := sc.clo; cj < sc.chi; cj++ {
			fi, fj := 2*ci-1, 2*cj-1
			r := 0.25 * (res[lvl].get(p, fi, fj) + res[lvl].get(p, fi+1, fj) +
				res[lvl].get(p, fi, fj+1) + res[lvl].get(p, fi+1, fj+1))
			f[lvl+1].set(p, ci, cj, r)
			u[lvl+1].set(p, ci, cj, 0)
			p.Compute(6)
		}
	}
	bar.Wait(p)
}

// prolongCorrect injects the coarse correction into the fine grid.
func prolongCorrect(p *core.Proc, id int, bar *core.Barrier, lays []*layout, u []*grid, lvl int) {
	s := ownedInner(lays[lvl], id)
	for i := s.rlo; i < s.rhi; i++ {
		for j := s.clo; j < s.chi; j++ {
			ci, cj := (i+1)/2, (j+1)/2
			cl := lays[lvl+1]
			if ci >= 1 && ci < cl.n-1 && cj >= 1 && cj < cl.n-1 {
				u[lvl].set(p, i, j, u[lvl].get(p, i, j)+u[lvl+1].get(p, ci, cj))
				p.Compute(3)
			}
		}
	}
	bar.Wait(p)
}

// residualNorm computes Σ(f - ∇²u)² over the inner grid in plain Go.
func residualNorm(u, f *grid) float64 {
	lay := u.lay
	var rnorm float64
	for i := 1; i < lay.n-1; i++ {
		for j := 1; j < lay.n-1; j++ {
			lap := u.raw(i-1, j) + u.raw(i+1, j) + u.raw(i, j-1) + u.raw(i, j+1) - 4*u.raw(i, j)
			r := f.raw(i, j) - lap
			rnorm += r * r
		}
	}
	return rnorm
}

// verify recomputes the final level-0 residual in plain Go and checks the
// multigrid solver reduced the last solve's initial residual.
func verify(u, f *grid, initial float64, cycles int) error {
	lay := u.lay
	for i := 1; i < lay.n-1; i++ {
		for j := 1; j < lay.n-1; j++ {
			if math.IsNaN(u.raw(i, j)) || math.IsInf(u.raw(i, j), 0) {
				return fmt.Errorf("ocean: solution diverged at (%d,%d)", i, j)
			}
		}
	}
	rnorm := residualNorm(u, f)
	// Each V-cycle must contract the residual; 0.8 per cycle is a loose
	// bound (measured contraction is ≈0.3).
	bound := initial
	for c := 0; c < cycles; c++ {
		bound *= 0.8
	}
	if initial > 0 && rnorm > bound {
		return fmt.Errorf("ocean: solver failed to reduce residual: |r|²=%g, initial %g, bound %g",
			rnorm, initial, bound)
	}
	return nil
}
