// Package fmm implements the paper's FMM application: a two-dimensional
// uniform Fast Multipole Method with the complex-logarithm kernel
// (Greengard-Rokhlin). Leaves of a uniform quadtree carry multipole
// expansions that are translated up (M2M), converted across interaction
// lists (M2L), pushed down (L2L) and evaluated at the bodies (L2P), with
// direct evaluation (P2P) among neighbouring leaves. Like Barnes the
// communication is low-volume, unstructured and hierarchical, with an
// even smaller shared working set (the expansion coefficients).
package fmm

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"clustersim/internal/apps"
	"clustersim/internal/core"
)

// Params sizes one FMM run.
type Params struct {
	Bodies int
	Terms  int // expansion order p (coefficients 0..p)
}

// ParamsFor maps a size class to parameters. SizePaper matches the
// paper's 8192 particles.
func ParamsFor(size apps.Size) Params {
	switch size {
	case apps.SizeTest:
		return Params{Bodies: 256, Terms: 8}
	case apps.SizePaper:
		return Params{Bodies: 8192, Terms: 8}
	default:
		return Params{Bodies: 2048, Terms: 8}
	}
}

// Workload registers FMM in the application table.
func Workload() apps.Runner {
	return apps.Runner{
		Name:           "fmm",
		Representative: "Fast Multipole N-body Method",
		PaperProblem:   "8192 particles",
		Communication:  "Low volume, unstructured, but hierarchical",
		WorkingSet:     "small (4KB), constant in n",
		Run: func(cfg core.Config, size apps.Size) (*core.Result, error) {
			return Run(cfg, ParamsFor(size))
		},
	}
}

// Body record layout, stride 64: position (re 0, im 8), charge 16,
// field (re 24, im 32).
const (
	bPos    = 0
	bCharge = 16
	bField  = 24
	bStride = 64
)

// quad holds the quadtree geometry and Go-side data.
type quad struct {
	depth  int   // leaf level
	lvlOff []int // box-id offset per level
	side   []int // boxes per edge per level
	nBoxes int

	terms int
	binom [][]float64

	mpole *apps.Array[complex128] // [box][term]
	local *apps.Array[complex128]
	brec  apps.Recs

	pos    []complex128
	charge []float64
	field  []complex128

	leafBodies [][]int32 // bodies per leaf box (leaf-local index)
}

func (q *quad) boxID(level, ix, iy int) int { return q.lvlOff[level] + iy*q.side[level] + ix }

func (q *quad) center(level, ix, iy int) complex128 {
	w := 1.0 / float64(q.side[level])
	return complex((float64(ix)+0.5)*w, (float64(iy)+0.5)*w)
}

func (q *quad) coefIdx(box, k int) int { return box*(q.terms+1) + k }

// readMpole loads a box's full multipole expansion through the simulator.
func (q *quad) readMpole(p *core.Proc, box int) []complex128 {
	out := make([]complex128, q.terms+1)
	for k := 0; k <= q.terms; k++ {
		out[k] = q.mpole.Get(p, q.coefIdx(box, k))
	}
	return out
}

// Run executes the FMM and verifies the field against a direct sum.
func Run(cfg core.Config, pr Params) (*core.Result, error) {
	res, q, err := run(cfg, pr)
	if err != nil {
		return nil, err
	}
	if err := q.verify(); err != nil {
		return nil, err
	}
	return res, nil
}

// SampledError runs the FMM and returns the worst sampled relative field
// error against the direct sum — used to test spectral convergence in
// the expansion order.
func SampledError(cfg core.Config, pr Params) (float64, error) {
	_, q, err := run(cfg, pr)
	if err != nil {
		return 0, err
	}
	return q.worstSampledError(), nil
}

func run(cfg core.Config, pr Params) (*core.Result, *quad, error) {
	if pr.Bodies < 2 || pr.Terms < 2 || pr.Terms > 20 {
		return nil, nil, fmt.Errorf("fmm: bad params %+v", pr)
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, nil, err
	}
	// Race-free: between two barriers a processor reads only what it wrote
	// itself or what was written before the first of them.
	m.DeclareRaceFree()
	n := pr.Bodies
	depth := 2
	for (1<<(2*depth+2))*10 <= n { // aim for ≈10+ bodies per leaf
		depth++
	}
	q := &quad{depth: depth, terms: pr.Terms}
	q.lvlOff = make([]int, depth+1)
	q.side = make([]int, depth+1)
	off := 0
	for l := 0; l <= depth; l++ {
		q.lvlOff[l] = off
		q.side[l] = 1 << l
		off += q.side[l] * q.side[l]
	}
	q.nBoxes = off
	q.binom = pascal(2*pr.Terms + 2)
	q.mpole = apps.NewArray[complex128](m, q.nBoxes*(pr.Terms+1), "multipoles")
	q.local = apps.NewArray[complex128](m, q.nBoxes*(pr.Terms+1), "locals")
	q.brec = apps.NewRecs(m, n, bStride, "bodies")
	q.pos = make([]complex128, n)
	q.charge = make([]float64, n)
	q.field = make([]complex128, n)

	// Deterministic body distribution, binned to leaves Go-side.
	rng := rand.New(rand.NewSource(777))
	leafSide := q.side[depth]
	q.leafBodies = make([][]int32, leafSide*leafSide)
	for i := 0; i < n; i++ {
		q.pos[i] = complex(rng.Float64(), rng.Float64())
		q.charge[i] = 1.0 / float64(n)
		ix := int(real(q.pos[i]) * float64(leafSide))
		iy := int(imag(q.pos[i]) * float64(leafSide))
		q.leafBodies[iy*leafSide+ix] = append(q.leafBodies[iy*leafSide+ix], int32(i))
	}

	bar := m.NewBarrierN("fmm.main", cfg.Procs)
	res, err := m.Run(func(p *core.Proc) {
		id := p.ID()
		P := p.NumProcs()
		// Initialization: write owned body records.
		blo, bhi := apps.Chunk(n, id, P)
		for b := blo; b < bhi; b++ {
			q.brec.Write(p, b, bPos)
			q.brec.Write(p, b, bPos+8)
			q.brec.Write(p, b, bCharge)
		}
		apps.Begin(p, bar)

		// Phase 1: P2M on owned leaves.
		nl := leafSide * leafSide
		llo, lhi := apps.Chunk(nl, id, P)
		for leaf := llo; leaf < lhi; leaf++ {
			q.p2m(p, leaf)
		}
		bar.Wait(p)
		// Phase 2: M2M up the tree, one level at a time.
		for l := depth - 1; l >= 0; l-- {
			nb := q.side[l] * q.side[l]
			lo, hi := apps.Chunk(nb, id, P)
			for bi := lo; bi < hi; bi++ {
				q.m2m(p, l, bi%q.side[l], bi/q.side[l])
			}
			bar.Wait(p)
		}
		// Phase 3: downward pass — L2L from parent plus M2L over the
		// interaction list, from level 2 to the leaves.
		for l := 2; l <= depth; l++ {
			nb := q.side[l] * q.side[l]
			lo, hi := apps.Chunk(nb, id, P)
			for bi := lo; bi < hi; bi++ {
				q.downward(p, l, bi%q.side[l], bi/q.side[l])
			}
			bar.Wait(p)
		}
		// Phase 4: L2P + P2P on owned leaves.
		for leaf := llo; leaf < lhi; leaf++ {
			q.evaluate(p, leaf)
		}
		bar.Wait(p)
	})
	if err != nil {
		return nil, nil, err
	}
	return res, q, nil
}

// p2m builds the multipole expansion of one leaf from its bodies.
func (q *quad) p2m(p *core.Proc, leaf int) {
	side := q.side[q.depth]
	ix, iy := leaf%side, leaf/side
	z0 := q.center(q.depth, ix, iy)
	box := q.boxID(q.depth, ix, iy)
	coef := make([]complex128, q.terms+1)
	for _, b := range q.leafBodies[leaf] {
		q.brec.Read(p, int(b), bPos)
		q.brec.Read(p, int(b), bPos+8)
		q.brec.Read(p, int(b), bCharge)
		d := q.pos[b] - z0
		qi := complex(q.charge[b], 0)
		coef[0] += qi
		pw := complex(1, 0)
		for k := 1; k <= q.terms; k++ {
			pw *= d
			coef[k] -= qi * pw / complex(float64(k), 0)
			p.Compute(6)
		}
	}
	for k := 0; k <= q.terms; k++ {
		q.mpole.Set(p, q.coefIdx(box, k), coef[k])
	}
}

// m2m merges the four children's multipoles into box (ix,iy) at level l.
func (q *quad) m2m(p *core.Proc, l, ix, iy int) {
	z0 := q.center(l, ix, iy)
	out := make([]complex128, q.terms+1)
	for cy := 0; cy < 2; cy++ {
		for cx := 0; cx < 2; cx++ {
			cix, ciy := 2*ix+cx, 2*iy+cy
			cbox := q.boxID(l+1, cix, ciy)
			a := q.readMpole(p, cbox)
			d := q.center(l+1, cix, ciy) - z0
			out[0] += a[0]
			for k := 1; k <= q.terms; k++ {
				// -Q d^k / k term.
				s := -a[0] * cpow(d, k) / complex(float64(k), 0)
				for j := 1; j <= k; j++ {
					s += a[j] * cpow(d, k-j) * complex(q.binom[k-1][j-1], 0)
				}
				out[k] += s
				p.Compute(8)
			}
		}
	}
	box := q.boxID(l, ix, iy)
	for k := 0; k <= q.terms; k++ {
		q.mpole.Set(p, q.coefIdx(box, k), out[k])
	}
}

// downward computes box (ix,iy)'s local expansion: the parent's local
// shifted (L2L) plus M2L from the interaction list — children of the
// parent's neighbours that are not adjacent to this box.
func (q *quad) downward(p *core.Proc, l, ix, iy int) {
	box := q.boxID(l, ix, iy)
	zt := q.center(l, ix, iy)
	out := make([]complex128, q.terms+1)
	if l > 2 {
		// L2L from the parent.
		pix, piy := ix/2, iy/2
		pbox := q.boxID(l-1, pix, piy)
		zp := q.center(l-1, pix, piy)
		bl := make([]complex128, q.terms+1)
		for k := 0; k <= q.terms; k++ {
			bl[k] = q.local.Get(p, q.coefIdx(pbox, k))
		}
		d := zt - zp
		for kk := 0; kk <= q.terms; kk++ {
			var s complex128
			for j := kk; j <= q.terms; j++ {
				s += bl[j] * complex(q.binom[j][kk], 0) * cpow(d, j-kk)
			}
			out[kk] = s
			p.Compute(8)
		}
	}
	// M2L over the interaction list.
	side := q.side[l]
	pix, piy := ix/2, iy/2
	for ny := piy - 1; ny <= piy+1; ny++ {
		for nx := pix - 1; nx <= pix+1; nx++ {
			if nx < 0 || ny < 0 || nx >= q.side[l-1] || ny >= q.side[l-1] {
				continue
			}
			for cy := 0; cy < 2; cy++ {
				for cx := 0; cx < 2; cx++ {
					six, siy := 2*nx+cx, 2*ny+cy
					if six < 0 || siy < 0 || six >= side || siy >= side {
						continue
					}
					if abs(six-ix) <= 1 && abs(siy-iy) <= 1 {
						continue // adjacent: handled by P2P or deeper levels
					}
					sbox := q.boxID(l, six, siy)
					a := q.readMpole(p, sbox)
					z0 := q.center(l, six, siy) - zt // source center in target frame
					// Greengard 2D M2L.
					b0 := a[0] * cmplx.Log(-z0)
					sign := -1.0
					for k := 1; k <= q.terms; k++ {
						b0 += a[k] / cpow(z0, k) * complex(sign, 0)
						sign = -sign
					}
					out[0] += b0
					for kk := 1; kk <= q.terms; kk++ {
						s := -a[0] / (complex(float64(kk), 0) * cpow(z0, kk))
						sign := -1.0
						for k := 1; k <= q.terms; k++ {
							s += a[k] / cpow(z0, k+kk) * complex(sign*q.binom[kk+k-1][k-1], 0)
							sign = -sign
						}
						out[kk] += s
						p.Compute(10)
					}
				}
			}
		}
	}
	for k := 0; k <= q.terms; k++ {
		q.local.Set(p, q.coefIdx(box, k), out[k])
	}
}

// evaluate computes the field at each body of a leaf: the local
// expansion's derivative plus direct interactions with neighbour leaves.
func (q *quad) evaluate(p *core.Proc, leaf int) {
	side := q.side[q.depth]
	ix, iy := leaf%side, leaf/side
	box := q.boxID(q.depth, ix, iy)
	zc := q.center(q.depth, ix, iy)
	bl := make([]complex128, q.terms+1)
	for k := 0; k <= q.terms; k++ {
		bl[k] = q.local.Get(p, q.coefIdx(box, k))
	}
	for _, b := range q.leafBodies[leaf] {
		q.brec.Read(p, int(b), bPos)
		q.brec.Read(p, int(b), bPos+8)
		d := q.pos[b] - zc
		// E = φ'(z) = Σ k·b_k d^(k-1).
		var e complex128
		for k := 1; k <= q.terms; k++ {
			e += complex(float64(k), 0) * bl[k] * cpow(d, k-1)
			p.Compute(6)
		}
		// P2P with neighbour leaves (including own).
		for ny := iy - 1; ny <= iy+1; ny++ {
			for nx := ix - 1; nx <= ix+1; nx++ {
				if nx < 0 || ny < 0 || nx >= side || ny >= side {
					continue
				}
				for _, ob := range q.leafBodies[ny*side+nx] {
					if ob == b {
						continue
					}
					q.brec.Read(p, int(ob), bPos)
					q.brec.Read(p, int(ob), bPos+8)
					q.brec.Read(p, int(ob), bCharge)
					e += complex(q.charge[ob], 0) / (q.pos[b] - q.pos[ob])
					p.Compute(12)
				}
			}
		}
		q.field[b] = e
		q.brec.Write(p, int(b), bField)
		q.brec.Write(p, int(b), bField+8)
	}
}

// verify compares sampled fields with the direct O(n²) sum. The error
// bound follows the classic estimate (1/(c-1))^p with separation ratio
// c ≈ 2.83 for a uniform interaction list, with generous slack.
func (q *quad) verify() error {
	worst := q.worstSampledError()
	tol := 40 * math.Pow(0.55, float64(q.terms))
	if worst > tol {
		return fmt.Errorf("fmm: worst sampled relative field error %.2e exceeds %.2e (p=%d)",
			worst, tol, q.terms)
	}
	return nil
}

// worstSampledError returns the worst relative field error over sampled
// bodies against the direct O(n²) sum.
func (q *quad) worstSampledError() float64 {
	n := len(q.pos)
	samples := 24
	if n < samples {
		samples = n
	}
	var worst float64
	for s := 0; s < samples; s++ {
		b := s * n / samples
		var want complex128
		for o := 0; o < n; o++ {
			if o == b {
				continue
			}
			want += complex(q.charge[o], 0) / (q.pos[b] - q.pos[o])
		}
		rel := cmplx.Abs(q.field[b]-want) / (cmplx.Abs(want) + 1e-12)
		if rel > worst {
			worst = rel
		}
	}
	return worst
}

func cpow(z complex128, k int) complex128 {
	out := complex(1, 0)
	for i := 0; i < k; i++ {
		out *= z
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func pascal(n int) [][]float64 {
	b := make([][]float64, n)
	for i := range b {
		b[i] = make([]float64, n)
		b[i][0] = 1
		for j := 1; j <= i; j++ {
			b[i][j] = b[i-1][j-1]
			if j <= i-1 {
				b[i][j] += b[i-1][j]
			}
		}
	}
	return b
}
