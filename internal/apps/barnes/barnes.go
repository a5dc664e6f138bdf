// Package barnes implements the paper's Barnes application: the
// Barnes-Hut hierarchical N-body method. Space is represented as an
// octree; processors build it in parallel under per-cell locks, then
// traverse it once per owned body applying the θ opening criterion.
// Communication is low-volume and unstructured, and processors'
// traversals overlap heavily in the upper tree — the shared read-mostly
// working set whose overlap gives clustering its finite-cache benefits
// in Figure 6. Bodies are assigned in Morton order so adjacent
// processors own spatially adjacent bodies.
package barnes

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"clustersim/internal/apps"
	"clustersim/internal/core"
)

// Params sizes one Barnes run.
type Params struct {
	Bodies int
	Steps  int
	Theta  float64 // opening criterion (the paper uses 1.0)
}

// ParamsFor maps a size class to parameters. SizePaper is the paper's
// 8192 particles with θ = 1.0.
func ParamsFor(size apps.Size) Params {
	switch size {
	case apps.SizeTest:
		return Params{Bodies: 256, Steps: 1, Theta: 1.0}
	case apps.SizePaper:
		return Params{Bodies: 8192, Steps: 2, Theta: 1.0}
	default:
		return Params{Bodies: 2048, Steps: 2, Theta: 1.0}
	}
}

// Workload registers Barnes in the application table.
func Workload() apps.Runner {
	return apps.Runner{
		Name:           "barnes",
		Representative: "Hierarchical N-body codes",
		PaperProblem:   "8192 particles, theta = 1.0",
		Communication:  "Low volume, unstructured, but hierarchical",
		WorkingSet:     "relatively small (12KB), O(log n)",
		Run: func(cfg core.Config, size apps.Size) (*core.Result, error) {
			return Run(cfg, ParamsFor(size))
		},
	}
}

const (
	bucketCap = 8    // bodies per leaf before splitting
	maxDepth  = 40   // guards against pathological coincident bodies
	softening = 0.05 // Plummer softening length
	dt        = 0.02
	lockPool  = 64 // per-cell lock hashing

	// Body record layout, stride 128: pos (0,8,16), mass 24, acc
	// (32,40,48) — all in the first line, which the force phase touches —
	// and vel (64,72,80) in the second, touched by the update phase.
	bStride = 128
	bPos    = 0
	bMass   = 24
	bAcc    = 32
	bVel    = 64

	// Cell record layout, stride 192: line 0 holds the geometry the
	// descent reads (center 0..23, half 24, leaf flag 32, count 40);
	// line 1 the eight child/bucket slots; line 2 the centre of mass
	// (128..151) and total mass (152).
	cStride = 192
	cCenter = 0
	cHalf   = 24
	cFlag   = 32
	cCount  = 40
	cChild  = 64
	cCom    = 128
	cMass   = 152
)

// tree is the Go-side octree mirrored by the simulated cell records.
type tree struct {
	cells  apps.Recs
	bodies apps.Recs

	// Per-cell state.
	isLeaf []bool
	count  []int32
	child  [][8]int32 // cell index, or body index in leaves; -1 empty
	center [][3]float64
	half   []float64
	com    [][3]float64
	mass   []float64

	next int // next free cell (Go-side metadata, modified between yields)

	pos  [][3]float64
	vel  [][3]float64
	acc  [][3]float64
	bm   []float64
	root int
}

func (t *tree) allocCell(center [3]float64, half float64) int {
	if t.next >= len(t.isLeaf) {
		panic("barnes: cell arena exhausted")
	}
	c := t.next
	t.next++
	t.isLeaf[c] = true
	t.count[c] = 0
	for i := range t.child[c] {
		t.child[c][i] = -1
	}
	t.center[c] = center
	t.half[c] = half
	return c
}

// writeCellMeta issues the simulated stores for a fresh cell's geometry.
func (t *tree) writeCellMeta(p *core.Proc, c int) {
	for d := 0; d < 3; d++ {
		t.cells.Write(p, c, uint64(cCenter+8*d))
	}
	t.cells.Write(p, c, cHalf)
	t.cells.Write(p, c, cFlag)
	t.cells.Write(p, c, cCount)
}

func (t *tree) octant(c int, b int) int {
	o := 0
	for d := 0; d < 3; d++ {
		if t.pos[b][d] >= t.center[c][d] {
			o |= 1 << d
		}
	}
	return o
}

func (t *tree) childCenter(c, oct int) [3]float64 {
	h := t.half[c] / 2
	ctr := t.center[c]
	for d := 0; d < 3; d++ {
		if oct&(1<<d) != 0 {
			ctr[d] += h
		} else {
			ctr[d] -= h
		}
	}
	return ctr
}

// insert adds body b to the tree with simulated references, taking the
// per-cell lock only around modifications (SPLASH-style).
func (t *tree) insert(p *core.Proc, locks []*core.Lock, b int) {
	node := t.root
	for depth := 0; ; depth++ {
		if depth > maxDepth {
			panic("barnes: tree too deep; coincident bodies?")
		}
		t.cells.Read(p, node, cFlag)
		if t.isLeaf[node] {
			lk := locks[node%lockPool]
			lk.Acquire(p)
			t.cells.Read(p, node, cFlag)
			if !t.isLeaf[node] {
				lk.Release(p) // split under us; descend as internal
				continue
			}
			if int(t.count[node]) < bucketCap {
				slot := t.count[node]
				t.child[node][slot] = int32(b)
				t.count[node]++
				t.cells.Write(p, node, uint64(cChild+8*int(slot)))
				t.cells.Write(p, node, cCount)
				lk.Release(p)
				return
			}
			t.split(p, node, depth)
			lk.Release(p)
			continue // node is now internal; descend
		}
		for d := 0; d < 3; d++ {
			t.cells.Read(p, node, uint64(cCenter+8*d))
		}
		oct := t.octant(node, b)
		t.cells.Read(p, node, uint64(cChild+8*oct))
		ch := t.child[node][oct]
		if ch == -1 {
			lk := locks[node%lockPool]
			lk.Acquire(p)
			t.cells.Read(p, node, uint64(cChild+8*oct))
			if t.child[node][oct] == -1 {
				leaf := t.allocCell(t.childCenter(node, oct), t.half[node]/2)
				t.child[leaf][0] = int32(b)
				t.count[leaf] = 1
				t.writeCellMeta(p, leaf)
				t.cells.Write(p, leaf, cChild)
				t.child[node][oct] = int32(leaf)
				t.cells.Write(p, node, uint64(cChild+8*oct))
				lk.Release(p)
				return
			}
			lk.Release(p) // someone else created it; descend
			continue
		}
		node = int(ch)
		p.Compute(4)
	}
}

// split converts a full leaf into an internal node. The bucket is read
// with simulated references first (safe: the caller holds the node's
// lock, so no one can modify it), then the whole restructure runs in
// plain Go with no simulated references — and therefore no yields — so
// other processors can never observe a partially split subtree. The
// simulated stores for every touched cell are issued afterwards.
func (t *tree) split(p *core.Proc, node, depth int) {
	bucket := make([]int32, t.count[node])
	copy(bucket, t.child[node][:t.count[node]])
	for i := range bucket {
		t.cells.Read(p, node, uint64(cChild+8*i))
		for d := 0; d < 3; d++ {
			t.bodies.Read(p, int(bucket[i]), uint64(bPos+8*d))
		}
	}
	touched := []int{node}
	t.isLeaf[node] = false
	t.count[node] = 0
	for i := range t.child[node] {
		t.child[node][i] = -1
	}
	for _, b := range bucket {
		t.goInsert(node, int(b), depth, &touched)
	}
	// Charge the stores for every cell the restructure touched.
	for _, c := range touched {
		t.writeCellMeta(p, c)
		for i := 0; i < 8; i++ {
			t.cells.Write(p, c, uint64(cChild+8*i))
		}
	}
}

// goInsert inserts b under node in plain Go (no simulated references),
// recording every touched cell. Only called on subtrees protected by the
// caller's lock.
func (t *tree) goInsert(node, b, depth int, touched *[]int) {
	for {
		if depth > maxDepth {
			panic("barnes: tree too deep; coincident bodies?")
		}
		if t.isLeaf[node] {
			if int(t.count[node]) < bucketCap {
				t.child[node][t.count[node]] = int32(b)
				t.count[node]++
				*touched = append(*touched, node)
				return
			}
			// Overflow: convert in place and redistribute.
			bucket := make([]int32, t.count[node])
			copy(bucket, t.child[node][:t.count[node]])
			t.isLeaf[node] = false
			t.count[node] = 0
			for i := range t.child[node] {
				t.child[node][i] = -1
			}
			*touched = append(*touched, node)
			for _, ob := range bucket {
				t.goInsert(node, int(ob), depth, touched)
			}
			continue
		}
		oct := t.octant(node, b)
		if t.child[node][oct] == -1 {
			leaf := t.allocCell(t.childCenter(node, oct), t.half[node]/2)
			t.child[leaf][0] = int32(b)
			t.count[leaf] = 1
			t.child[node][oct] = int32(leaf)
			*touched = append(*touched, node, leaf)
			return
		}
		node = int(t.child[node][oct])
		depth++
	}
}

// subtreeRootsAtDepth enumerates, deterministically and without
// simulated references, the cells at the given depth (or shallower
// leaves) — the units of the parallel centre-of-mass pass.
func (t *tree) subtreeRootsAtDepth(target int) []int {
	var out []int
	var walk func(c, d int)
	walk = func(c, d int) {
		if d == target || t.isLeaf[c] {
			out = append(out, c)
			return
		}
		for i := 0; i < 8; i++ {
			if ch := t.child[c][i]; ch != -1 {
				walk(int(ch), d+1)
			}
		}
	}
	walk(t.root, 0)
	return out
}

// combineUpper fills in the centres of mass of the cells above the
// parallel subtree roots, reading the already-computed subtree results.
func (t *tree) combineUpper(p *core.Proc, node, depth, target int) (com [3]float64, mass float64) {
	if depth == target || t.isLeaf[node] {
		for d := 0; d < 3; d++ {
			t.cells.Read(p, node, uint64(cCom+8*d))
		}
		t.cells.Read(p, node, cMass)
		return t.com[node], t.mass[node]
	}
	for i := 0; i < 8; i++ {
		ch := t.child[node][i]
		t.cells.Read(p, node, uint64(cChild+8*i))
		if ch == -1 {
			continue
		}
		ccom, cm := t.combineUpper(p, int(ch), depth+1, target)
		for d := 0; d < 3; d++ {
			com[d] += ccom[d] * cm
		}
		mass += cm
		p.Compute(10)
	}
	if mass > 0 {
		for d := 0; d < 3; d++ {
			com[d] /= mass
		}
	}
	t.com[node] = com
	t.mass[node] = mass
	for d := 0; d < 3; d++ {
		t.cells.Write(p, node, uint64(cCom+8*d))
	}
	t.cells.Write(p, node, cMass)
	return com, mass
}

// computeCOM fills in centres of mass bottom-up for one subtree.
func (t *tree) computeCOM(p *core.Proc, node int) (com [3]float64, mass float64) {
	if t.isLeaf[node] {
		for i := 0; i < int(t.count[node]); i++ {
			b := int(t.child[node][i])
			t.cells.Read(p, node, uint64(cChild+8*i))
			for d := 0; d < 3; d++ {
				t.bodies.Read(p, b, uint64(bPos+8*d))
				com[d] += t.pos[b][d] * t.bm[b]
			}
			t.bodies.Read(p, b, bMass)
			mass += t.bm[b]
			p.Compute(8)
		}
	} else {
		for i := 0; i < 8; i++ {
			ch := t.child[node][i]
			t.cells.Read(p, node, uint64(cChild+8*i))
			if ch == -1 {
				continue
			}
			ccom, cm := t.computeCOM(p, int(ch))
			for d := 0; d < 3; d++ {
				com[d] += ccom[d] * cm
			}
			mass += cm
			p.Compute(10)
		}
	}
	if mass > 0 {
		for d := 0; d < 3; d++ {
			com[d] /= mass
		}
	}
	t.com[node] = com
	t.mass[node] = mass
	for d := 0; d < 3; d++ {
		t.cells.Write(p, node, uint64(cCom+8*d))
	}
	t.cells.Write(p, node, cMass)
	return com, mass
}

// force accumulates the acceleration on body b by walking the tree.
func (t *tree) force(p *core.Proc, b int, theta float64) [3]float64 {
	var acc [3]float64
	theta2 := theta * theta
	var walk func(node int)
	walk = func(node int) {
		t.cells.Read(p, node, cFlag)
		if t.isLeaf[node] {
			for i := 0; i < int(t.count[node]); i++ {
				t.cells.Read(p, node, uint64(cChild+8*i))
				ob := int(t.child[node][i])
				if ob == b {
					continue
				}
				for d := 0; d < 3; d++ {
					t.bodies.Read(p, ob, uint64(bPos+8*d))
				}
				t.bodies.Read(p, ob, bMass)
				addGravity(&acc, t.pos[b], t.pos[ob], t.bm[ob])
				p.Compute(30)
			}
			return
		}
		// Opening criterion against the centre of mass.
		for d := 0; d < 3; d++ {
			t.cells.Read(p, node, uint64(cCom+8*d))
		}
		t.cells.Read(p, node, cMass)
		t.cells.Read(p, node, cHalf)
		dx := t.com[node][0] - t.pos[b][0]
		dy := t.com[node][1] - t.pos[b][1]
		dz := t.com[node][2] - t.pos[b][2]
		d2 := dx*dx + dy*dy + dz*dz + 1e-20
		s := 2 * t.half[node]
		p.Compute(12)
		if s*s < theta2*d2 {
			addGravity(&acc, t.pos[b], t.com[node], t.mass[node])
			p.Compute(30)
			return
		}
		for i := 0; i < 8; i++ {
			t.cells.Read(p, node, uint64(cChild+8*i))
			if ch := t.child[node][i]; ch != -1 {
				walk(int(ch))
			}
		}
	}
	walk(t.root)
	return acc
}

func addGravity(acc *[3]float64, from, to [3]float64, mass float64) {
	dx := to[0] - from[0]
	dy := to[1] - from[1]
	dz := to[2] - from[2]
	d2 := dx*dx + dy*dy + dz*dz + softening*softening
	inv := mass / (d2 * math.Sqrt(d2))
	acc[0] += dx * inv
	acc[1] += dy * inv
	acc[2] += dz * inv
}

// Run simulates the system and verifies tree forces against a direct
// O(n²) sum on sampled bodies.
func Run(cfg core.Config, pr Params) (*core.Result, error) {
	if pr.Bodies < 2 || pr.Steps < 1 || pr.Theta <= 0 {
		return nil, fmt.Errorf("barnes: bad params %+v", pr)
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	// Race-free outside the tree build: every other phase reads only
	// what the processor wrote itself or what was written before the
	// last barrier. The build's descent reads cells that other
	// processors are filling and splitting, so it runs inside Racy.
	m.DeclareRaceFree()
	n := pr.Bodies
	maxCells := 4*n + 64
	t := &tree{
		cells:  apps.NewRecs(m, maxCells, cStride, "cells"),
		bodies: apps.NewRecs(m, n, bStride, "bodies"),
		isLeaf: make([]bool, maxCells),
		count:  make([]int32, maxCells),
		child:  make([][8]int32, maxCells),
		center: make([][3]float64, maxCells),
		half:   make([]float64, maxCells),
		com:    make([][3]float64, maxCells),
		mass:   make([]float64, maxCells),
		pos:    make([][3]float64, n),
		vel:    make([][3]float64, n),
		acc:    make([][3]float64, n),
		bm:     make([]float64, n),
	}
	// Plummer-model initial conditions, Morton-sorted so contiguous body
	// ranges are spatially local.
	initPlummer(t, n)

	locks := make([]*core.Lock, lockPool)
	for i := range locks {
		locks[i] = m.NewLock(fmt.Sprintf("cell%d", i))
	}
	bar := m.NewBarrierN("barnes.main", cfg.Procs)
	res, err := m.Run(func(p *core.Proc) {
		id := p.ID()
		lo, hi := apps.Chunk(n, id, p.NumProcs())
		// Initialization: write the owned bodies' records.
		for b := lo; b < hi; b++ {
			for d := 0; d < 3; d++ {
				t.bodies.Write(p, b, uint64(bPos+8*d))
				t.bodies.Write(p, b, uint64(bVel+8*d))
			}
			t.bodies.Write(p, b, bMass)
		}
		apps.Begin(p, bar)

		for step := 0; step < pr.Steps; step++ {
			// Phase 1: processor 0 resets the tree root spanning space.
			if id == 0 {
				t.next = 0
				root := t.allocCell([3]float64{0, 0, 0}, boundingHalf(t))
				t.root = root
				t.writeCellMeta(p, root)
			}
			bar.Wait(p)
			// Phase 2: parallel tree build under per-cell locks.
			p.Racy(func() {
				for b := lo; b < hi; b++ {
					for d := 0; d < 3; d++ {
						t.bodies.Read(p, b, uint64(bPos+8*d))
					}
					t.insert(p, locks, b)
				}
			})
			bar.Wait(p)
			// Phase 3: centre-of-mass pass, parallel over depth-2
			// subtrees, then a cheap upper-level combine by processor 0.
			const comDepth = 2
			subroots := t.subtreeRootsAtDepth(comDepth)
			for i, c := range subroots {
				if i%p.NumProcs() == id {
					t.computeCOM(p, c)
				}
			}
			bar.Wait(p)
			if id == 0 {
				t.combineUpper(p, t.root, 0, comDepth)
			}
			bar.Wait(p)
			// Phase 4: force computation — the dominant phase, reading
			// the shared octree.
			for b := lo; b < hi; b++ {
				for d := 0; d < 3; d++ {
					t.bodies.Read(p, b, uint64(bPos+8*d))
				}
				acc := t.force(p, b, pr.Theta)
				t.acc[b] = acc
				for d := 0; d < 3; d++ {
					t.bodies.Write(p, b, uint64(bAcc+8*d))
				}
			}
			bar.Wait(p)
			// Phase 5: leapfrog update of owned bodies.
			for b := lo; b < hi; b++ {
				for d := 0; d < 3; d++ {
					t.bodies.Read(p, b, uint64(bVel+8*d))
					t.vel[b][d] += t.acc[b][d] * dt
					t.pos[b][d] += t.vel[b][d] * dt
					t.bodies.Write(p, b, uint64(bVel+8*d))
					t.bodies.Write(p, b, uint64(bPos+8*d))
					p.Compute(4)
				}
			}
			bar.Wait(p)
		}
	})
	if err != nil {
		return nil, err
	}
	if err := verify(t, pr.Theta); err != nil {
		return nil, err
	}
	return res, nil
}

// boundingHalf returns a half-width covering all bodies around origin.
func boundingHalf(t *tree) float64 {
	maxAbs := 0.0
	for _, p := range t.pos {
		for d := 0; d < 3; d++ {
			if a := math.Abs(p[d]); a > maxAbs {
				maxAbs = a
			}
		}
	}
	return maxAbs*1.01 + 1e-9
}

// initPlummer draws a Plummer-model distribution and Morton-sorts it.
func initPlummer(t *tree, n int) {
	rng := rand.New(rand.NewSource(4242))
	type bodyInit struct {
		pos [3]float64
		vel [3]float64
		key uint32
	}
	bs := make([]bodyInit, n)
	for i := range bs {
		// Plummer radius; clamp the heavy tail for a bounded box.
		r := 1.0 / math.Sqrt(math.Pow(rng.Float64()*0.999+1e-9, -2.0/3.0)-1)
		if r > 8 {
			r = 8
		}
		u, v := rng.Float64(), rng.Float64()
		thetaA := math.Acos(2*u - 1)
		phi := 2 * math.Pi * v
		bs[i].pos = [3]float64{
			r * math.Sin(thetaA) * math.Cos(phi),
			r * math.Sin(thetaA) * math.Sin(phi),
			r * math.Cos(thetaA),
		}
		for d := 0; d < 3; d++ {
			bs[i].vel[d] = (rng.Float64() - 0.5) * 0.1
		}
	}
	for i := range bs {
		q := func(x float64) uint32 {
			v := (x + 8) / 16 * 1023
			if v < 0 {
				v = 0
			}
			if v > 1023 {
				v = 1023
			}
			return uint32(v)
		}
		bs[i].key = apps.Morton3(q(bs[i].pos[0]), q(bs[i].pos[1]), q(bs[i].pos[2]))
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].key < bs[j].key })
	for i := range bs {
		t.pos[i] = bs[i].pos
		t.vel[i] = bs[i].vel
		t.bm[i] = 1.0 / float64(n)
	}
}

// verify compares tree accelerations with a direct sum on sampled bodies.
// Tolerances are set for θ = 1.0, which is a deliberately coarse opening
// criterion.
func verify(t *tree, theta float64) error {
	n := len(t.pos)
	samples := 16
	if n < samples {
		samples = n
	}
	var sumRel float64
	for s := 0; s < samples; s++ {
		b := s * n / samples
		// t.acc holds the last step's tree forces computed BEFORE the
		// final position update, so compute the direct sum at the
		// pre-update positions: undo one leapfrog step.
		var pre [3]float64
		for d := 0; d < 3; d++ {
			pre[d] = t.pos[b][d] - t.vel[b][d]*dt
		}
		var want [3]float64
		for o := 0; o < n; o++ {
			if o == b {
				continue
			}
			var opre [3]float64
			for d := 0; d < 3; d++ {
				opre[d] = t.pos[o][d] - t.vel[o][d]*dt
			}
			addGravity(&want, pre, opre, t.bm[o])
		}
		got := t.acc[b]
		wn := math.Sqrt(want[0]*want[0] + want[1]*want[1] + want[2]*want[2])
		dx := got[0] - want[0]
		dy := got[1] - want[1]
		dz := got[2] - want[2]
		en := math.Sqrt(dx*dx + dy*dy + dz*dz)
		if wn > 1e-12 {
			sumRel += en / wn
		}
	}
	if avg := sumRel / float64(samples); avg > 0.25 {
		return fmt.Errorf("barnes: mean relative force error %.3f exceeds 0.25 (θ=%.2f)", avg, theta)
	}
	return nil
}
