// Package raytrace implements the paper's Raytrace application: a
// recursive ray tracer over a procedurally generated sphere-flake scene
// (our stand-in for the SPLASH "Balls4" input — same structure: a large
// read-only sphere database under a shared spatial acceleration
// structure). The pixel plane is divided into square tiles, one per
// processor, exactly as the grid in Ocean; rays reflect off spheres, so
// a processor's reads wander unpredictably through the shared scene —
// the large, unstructured read-only working set of Figure 4.
//
// Every run is verified pixel-exactly against a serial re-render that
// uses the same tracing code without simulated references.
package raytrace

import (
	"fmt"
	"math"

	"clustersim/internal/apps"
	"clustersim/internal/core"
)

// Params sizes one Raytrace run.
type Params struct {
	Width, Height int
	FlakeLevel    int // sphere-flake recursion depth: spheres = Σ 9^i
	MaxDepth      int // reflection bounces
}

// ParamsFor maps a size class to parameters. SizePaper substitutes a
// level-4 flake (7381 spheres) for the Balls4 scene.
func ParamsFor(size apps.Size) Params {
	switch size {
	case apps.SizeTest:
		return Params{Width: 32, Height: 32, FlakeLevel: 2, MaxDepth: 2}
	case apps.SizePaper:
		return Params{Width: 128, Height: 128, FlakeLevel: 4, MaxDepth: 3}
	default:
		return Params{Width: 64, Height: 64, FlakeLevel: 3, MaxDepth: 3}
	}
}

// Workload registers Raytrace in the application table.
func Workload() apps.Runner {
	return apps.Runner{
		Name:           "raytrace",
		Representative: "Ray tracing in computer graphics",
		PaperProblem:   "Balls4 (sphere-flake scene)",
		Communication:  "Read only, unstructured",
		WorkingSet:     "large, unclear scaling",
		Run: func(cfg core.Config, size apps.Size) (*core.Result, error) {
			return Run(cfg, ParamsFor(size))
		},
	}
}

// Sphere record layout, stride 64: center (0,8,16), radius 24,
// reflectivity 32, shade 40.
const (
	sCenter  = 0
	sRadius  = 24
	sReflect = 32
	sShade   = 40
	sStride  = 64
)

type vec [3]float64

func (a vec) add(b vec) vec       { return vec{a[0] + b[0], a[1] + b[1], a[2] + b[2]} }
func (a vec) sub(b vec) vec       { return vec{a[0] - b[0], a[1] - b[1], a[2] - b[2]} }
func (a vec) scale(s float64) vec { return vec{a[0] * s, a[1] * s, a[2] * s} }
func (a vec) dot(b vec) float64   { return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] }
func (a vec) norm() vec           { return a.scale(1 / math.Sqrt(a.dot(a)+1e-30)) }

type sphere struct {
	center  vec
	radius  float64
	reflect float64
	shade   float64
}

const gridRes = 16 // acceleration-grid cells per edge

// scene is the shared read-only database plus the optional simulated
// handles: when p is nil the same code renders without references.
type scene struct {
	spheres []sphere
	bounds  [2]vec
	// Uniform grid: cellStart[c]..cellStart[c+1] index into cellList.
	cellStart []int32
	cellList  []int32

	srec   apps.Recs
	starts *apps.Array[int64]
	list   *apps.Array[int64]
	light  vec
}

// readSphere issues the simulated loads for sphere i's record.
func (sc *scene) readSphere(p *core.Proc, i int) {
	if p == nil {
		return
	}
	for d := 0; d < 3; d++ {
		sc.srec.Read(p, i, uint64(sCenter+8*d))
	}
	sc.srec.Read(p, i, sRadius)
	p.Compute(8)
}

func (sc *scene) readShade(p *core.Proc, i int) {
	if p == nil {
		return
	}
	sc.srec.Read(p, i, sReflect)
	sc.srec.Read(p, i, sShade)
}

func (sc *scene) readCell(p *core.Proc, c int) {
	if p == nil {
		return
	}
	sc.starts.Get(p, c)
	sc.starts.Get(p, c+1)
	p.Compute(4)
}

func (sc *scene) readCellEntry(p *core.Proc, idx int) {
	if p == nil {
		return
	}
	sc.list.Get(p, idx)
}

// buildFlake generates the sphere-flake: each parent spawns nine
// children of one-third radius on its surface.
func buildFlake(level int) []sphere {
	var out []sphere
	var recurse func(c vec, r float64, lvl int)
	dirs := flakeDirections()
	recurse = func(c vec, r float64, lvl int) {
		out = append(out, sphere{center: c, radius: r, reflect: 0.3, shade: 0.2 + 0.6*float64(lvl%3)/2})
		if lvl == 0 {
			return
		}
		for _, d := range dirs {
			child := c.add(d.scale(r * (1 + 1.0/3)))
			recurse(child, r/3, lvl-1)
		}
	}
	recurse(vec{0, 0, 0}, 1.0, level)
	return out
}

func flakeDirections() []vec {
	var dirs []vec
	for i := 0; i < 6; i++ {
		ang := 2 * math.Pi * float64(i) / 6
		dirs = append(dirs, vec{math.Cos(ang), math.Sin(ang), 0.15}.norm())
	}
	for i := 0; i < 3; i++ {
		ang := 2*math.Pi*float64(i)/3 + 0.3
		dirs = append(dirs, vec{0.45 * math.Cos(ang), 0.45 * math.Sin(ang), 1}.norm())
	}
	return dirs
}

// buildGrid bins spheres into the uniform acceleration grid.
func buildGrid(spheres []sphere) (bounds [2]vec, starts, list []int32) {
	bounds[0] = vec{math.Inf(1), math.Inf(1), math.Inf(1)}
	bounds[1] = vec{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for _, s := range spheres {
		for d := 0; d < 3; d++ {
			bounds[0][d] = math.Min(bounds[0][d], s.center[d]-s.radius)
			bounds[1][d] = math.Max(bounds[1][d], s.center[d]+s.radius)
		}
	}
	// Pad slightly so boundary spheres bin cleanly.
	for d := 0; d < 3; d++ {
		pad := (bounds[1][d] - bounds[0][d]) * 0.01
		bounds[0][d] -= pad
		bounds[1][d] += pad
	}
	nc := gridRes * gridRes * gridRes
	lists := make([][]int32, nc)
	cellOf := func(x float64, d int) int {
		c := int((x - bounds[0][d]) / (bounds[1][d] - bounds[0][d]) * gridRes)
		if c < 0 {
			c = 0
		}
		if c >= gridRes {
			c = gridRes - 1
		}
		return c
	}
	for i, s := range spheres {
		var lo, hi [3]int
		for d := 0; d < 3; d++ {
			lo[d] = cellOf(s.center[d]-s.radius, d)
			hi[d] = cellOf(s.center[d]+s.radius, d)
		}
		for x := lo[0]; x <= hi[0]; x++ {
			for y := lo[1]; y <= hi[1]; y++ {
				for z := lo[2]; z <= hi[2]; z++ {
					c := (z*gridRes+y)*gridRes + x
					lists[c] = append(lists[c], int32(i))
				}
			}
		}
	}
	starts = make([]int32, nc+1)
	for c := 0; c < nc; c++ {
		starts[c+1] = starts[c] + int32(len(lists[c]))
		list = append(list, lists[c]...)
	}
	return bounds, starts, list
}

// intersect returns the nearest hit among the spheres in one grid cell.
func (sc *scene) intersectCell(p *core.Proc, cell int, org, dir vec, tMax float64) (int, float64) {
	sc.readCell(p, cell)
	best, bestT := -1, tMax
	for idx := sc.cellStart[cell]; idx < sc.cellStart[cell+1]; idx++ {
		sc.readCellEntry(p, int(idx))
		i := int(sc.cellList[idx])
		sc.readSphere(p, i)
		s := &sc.spheres[i]
		oc := org.sub(s.center)
		b := oc.dot(dir)
		c := oc.dot(oc) - s.radius*s.radius
		disc := b*b - c
		if disc <= 0 {
			continue
		}
		t := -b - math.Sqrt(disc)
		if t > 1e-9 && t < bestT {
			best, bestT = i, t
		}
	}
	return best, bestT
}

// trace walks the grid with a 3D DDA and shades the nearest hit,
// recursing for reflections.
func (sc *scene) trace(p *core.Proc, org, dir vec, depth int) float64 {
	cellW := [3]float64{}
	for d := 0; d < 3; d++ {
		cellW[d] = (sc.bounds[1][d] - sc.bounds[0][d]) / gridRes
	}
	// Clip the ray to the grid bounds.
	t0, t1 := 0.0, math.Inf(1)
	for d := 0; d < 3; d++ {
		if math.Abs(dir[d]) < 1e-12 {
			if org[d] < sc.bounds[0][d] || org[d] > sc.bounds[1][d] {
				return 0
			}
			continue
		}
		ta := (sc.bounds[0][d] - org[d]) / dir[d]
		tb := (sc.bounds[1][d] - org[d]) / dir[d]
		if ta > tb {
			ta, tb = tb, ta
		}
		t0 = math.Max(t0, ta)
		t1 = math.Min(t1, tb)
	}
	if t0 >= t1 {
		return 0
	}
	pos := org.add(dir.scale(t0 + 1e-9))
	var cell [3]int
	var step [3]int
	var tNext, tDelta [3]float64
	for d := 0; d < 3; d++ {
		c := int((pos[d] - sc.bounds[0][d]) / cellW[d])
		if c < 0 {
			c = 0
		}
		if c >= gridRes {
			c = gridRes - 1
		}
		cell[d] = c
		if dir[d] > 0 {
			step[d] = 1
			tNext[d] = t0 + (sc.bounds[0][d]+float64(c+1)*cellW[d]-pos[d])/dir[d]
			tDelta[d] = cellW[d] / dir[d]
		} else if dir[d] < 0 {
			step[d] = -1
			tNext[d] = t0 + (sc.bounds[0][d]+float64(c)*cellW[d]-pos[d])/dir[d]
			tDelta[d] = -cellW[d] / dir[d]
		} else {
			step[d] = 0
			tNext[d] = math.Inf(1)
			tDelta[d] = math.Inf(1)
		}
	}
	for {
		cIdx := (cell[2]*gridRes+cell[1])*gridRes + cell[0]
		// Only accept hits inside this cell's t-range to keep DDA exact.
		exitT := math.Min(tNext[0], math.Min(tNext[1], tNext[2]))
		hit, tHit := sc.intersectCell(p, cIdx, org, dir, exitT+1e-9)
		if hit >= 0 && tHit <= exitT+1e-9 {
			return sc.shade(p, hit, org.add(dir.scale(tHit)), dir, depth)
		}
		// Advance to the next cell.
		d := 0
		if tNext[1] < tNext[d] {
			d = 1
		}
		if tNext[2] < tNext[d] {
			d = 2
		}
		cell[d] += step[d]
		if cell[d] < 0 || cell[d] >= gridRes || tNext[d] > t1 {
			return 0
		}
		tNext[d] += tDelta[d]
		if p != nil {
			p.Compute(6)
		}
	}
}

// shade computes Lambertian lighting plus a reflection bounce.
func (sc *scene) shade(p *core.Proc, i int, point, dir vec, depth int) float64 {
	sc.readShade(p, i)
	s := &sc.spheres[i]
	n := point.sub(s.center).norm()
	l := sc.light.sub(point).norm()
	diff := n.dot(l)
	if diff < 0 {
		diff = 0
	}
	col := s.shade * (0.2 + 0.8*diff)
	if p != nil {
		p.Compute(25)
	}
	if depth > 0 && s.reflect > 0 {
		r := dir.sub(n.scale(2 * dir.dot(n)))
		col += s.reflect * sc.trace(p, point.add(n.scale(1e-6)), r.norm(), depth-1)
	}
	if col > 1 {
		col = 1
	}
	return col
}

// Run renders the scene in parallel and verifies pixel-exactly against a
// serial render with the same code.
func Run(cfg core.Config, pr Params) (*core.Result, error) {
	if pr.Width < 4 || pr.Height < 4 || pr.FlakeLevel < 0 || pr.FlakeLevel > 5 || pr.MaxDepth < 0 {
		return nil, fmt.Errorf("raytrace: bad params %+v", pr)
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	// Race-free outside the task queues: the scene is published before
	// the measured phase and every pixel block is rendered and written
	// by the one processor that took it. TaskQueues.Next runs inside
	// Racy.
	m.DeclareRaceFree()
	spheres := buildFlake(pr.FlakeLevel)
	bounds, starts, list := buildGrid(spheres)
	sc := &scene{
		spheres:   spheres,
		bounds:    bounds,
		cellStart: starts,
		cellList:  list,
		light:     vec{5, 5, 8},
		srec:      apps.NewRecs(m, len(spheres), sStride, "spheres"),
		starts:    apps.NewArray[int64](m, len(starts), "cellStarts"),
		list:      apps.NewArray[int64](m, len(list)+1, "cellList"),
	}
	// Each processor starts on its own Ocean-style tile of the image;
	// uneven ray costs are then balanced by stealing.
	img := apps.NewImage(m, pr.Width, pr.Height, "rt")
	// render traces pixel (px, py) with an orthographic camera looking
	// down -z; with p nil it is the serial verification render.
	render := func(p *core.Proc, px, py int) int64 {
		x := bounds[0][0] + (float64(px)+0.5)/float64(pr.Width)*(bounds[1][0]-bounds[0][0])
		y := bounds[0][1] + (float64(py)+0.5)/float64(pr.Height)*(bounds[1][1]-bounds[0][1])
		org, dir := vec{x, y, bounds[1][2] + 1}, vec{0.12, 0.07, -1}.norm()
		return int64(sc.trace(p, org, dir, pr.MaxDepth) * 255)
	}
	bar := m.NewBarrierN("raytrace.main", cfg.Procs)
	res, err := m.Run(func(p *core.Proc) {
		// Initialization: processor 0 publishes the scene database.
		if p.ID() == 0 {
			for i := range spheres {
				for d := 0; d < 3; d++ {
					sc.srec.Write(p, i, uint64(sCenter+8*d))
				}
				sc.srec.Write(p, i, sRadius)
				sc.srec.Write(p, i, sReflect)
				sc.srec.Write(p, i, sShade)
			}
			for i := range starts {
				sc.starts.Set(p, i, int64(starts[i]))
			}
			for i := range list {
				sc.list.Set(p, i, int64(list[i]))
			}
		}
		img.Init(p)
		apps.Begin(p, bar)
		img.Render(p, render)
		bar.Wait(p)
	})
	if err != nil {
		return nil, err
	}
	if err := img.Check("raytrace", render); err != nil {
		return nil, err
	}
	return res, nil
}
