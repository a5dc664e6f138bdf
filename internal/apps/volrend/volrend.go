// Package volrend implements the paper's Volrend application: ray-cast
// volume rendering of a 3D density data set with a shared min-max octree
// imposed on the volume for empty-space skipping — the paper notes both
// graphics codes "impose an octree data structure on the volume for
// efficiency which is shared". The pixel plane is tiled across
// processors like Ocean's grid; rays do not reflect (the paper's stated
// difference from Raytrace), so working sets are smaller. The
// head-from-CT input is substituted by a procedural density volume of
// nested shells with the same character: mostly empty space around a
// dense, structured object.
//
// Every run is verified pixel-exactly against a serial re-render using
// the same code without simulated references.
package volrend

import (
	"fmt"
	"math"

	"clustersim/internal/apps"
	"clustersim/internal/core"
)

// Params sizes one Volrend run.
type Params struct {
	VolumeEdge    int // voxels per edge (power of two ≥ 8)
	Width, Height int // image size
}

// ParamsFor maps a size class to parameters. SizePaper substitutes a
// 128³ procedural volume for the paper's 256×256×128 CT head.
func ParamsFor(size apps.Size) Params {
	switch size {
	case apps.SizeTest:
		return Params{VolumeEdge: 16, Width: 16, Height: 16}
	case apps.SizePaper:
		return Params{VolumeEdge: 128, Width: 128, Height: 128}
	default:
		return Params{VolumeEdge: 64, Width: 64, Height: 64}
	}
}

// Workload registers Volrend in the application table.
func Workload() apps.Runner {
	return apps.Runner{
		Name:           "volrend",
		Representative: "Volume rendering in computer graphics",
		PaperProblem:   "Human head from CT scan (procedural substitute)",
		Communication:  "Read only, quite unstructured",
		WorkingSet:     "quite small, O(cbrt n)",
		Run: func(cfg core.Config, size apps.Size) (*core.Result, error) {
			return Run(cfg, ParamsFor(size))
		},
	}
}

const (
	leafBlock = 4 // octree leaves cover 4³ voxel blocks
	threshold = 60
	// Octree node record layout, stride 16: min at 0, max at 8.
	oMin    = 0
	oMax    = 8
	oStride = 16
)

// volume is the shared data set plus octree; when p is nil the accessors
// skip simulated references so the same code verifies serially.
type volume struct {
	edge int
	data []uint8

	// Complete octree: level 0 is the root; level L has (edge/leafBlock)
	// nodes per axis. minv/maxv indexed by lvlOff[l] + (z*s+y)*s + x.
	levels int
	lvlOff []int
	minv   []uint8
	maxv   []uint8

	vox  *apps.Array[uint8]
	tree apps.Recs
}

func (v *volume) at(x, y, z int) uint8 {
	return v.data[(z*v.edge+y)*v.edge+x]
}

func (v *volume) readVoxel(p *core.Proc, x, y, z int) uint8 {
	if p != nil {
		v.vox.Get(p, (z*v.edge+y)*v.edge+x)
	}
	return v.at(x, y, z)
}

func (v *volume) nodeIdx(level, x, y, z int) int {
	s := 1 << level
	return v.lvlOff[level] + (z*s+y)*s + x
}

func (v *volume) readNodeMax(p *core.Proc, idx int) uint8 {
	if p != nil {
		v.tree.Read(p, idx, oMax)
	}
	return v.maxv[idx]
}

// buildVolume fills the procedural density field: nested spherical
// shells with angular wobble, empty outside — CT-head-like structure.
func buildVolume(edge int) []uint8 {
	data := make([]uint8, edge*edge*edge)
	c := float64(edge) / 2
	for z := 0; z < edge; z++ {
		for y := 0; y < edge; y++ {
			for x := 0; x < edge; x++ {
				dx, dy, dz := float64(x)-c, float64(y)-c, float64(z)-c
				r := math.Sqrt(dx*dx+dy*dy+dz*dz) / c
				var d float64
				if r < 0.85 {
					shell := math.Sin(r*14+math.Atan2(dy, dx)*2) * 0.5
					d = (1 - r) * 180 * (0.8 + shell*0.4)
					if d < 0 {
						d = 0
					}
					if d > 255 {
						d = 255
					}
				}
				data[(z*edge+y)*edge+x] = uint8(d)
			}
		}
	}
	return data
}

// buildOctree constructs the min-max pyramid bottom-up.
func (v *volume) buildOctree() {
	leafSide := v.edge / leafBlock
	v.levels = 1
	for 1<<(v.levels-1) < leafSide {
		v.levels++
	}
	v.lvlOff = make([]int, v.levels)
	off := 0
	for l := 0; l < v.levels; l++ {
		v.lvlOff[l] = off
		s := 1 << l
		off += s * s * s
	}
	v.minv = make([]uint8, off)
	v.maxv = make([]uint8, off)
	// Leaves.
	l := v.levels - 1
	for z := 0; z < leafSide; z++ {
		for y := 0; y < leafSide; y++ {
			for x := 0; x < leafSide; x++ {
				mn, mx := uint8(255), uint8(0)
				for dz := 0; dz < leafBlock; dz++ {
					for dy := 0; dy < leafBlock; dy++ {
						for dx := 0; dx < leafBlock; dx++ {
							d := v.at(x*leafBlock+dx, y*leafBlock+dy, z*leafBlock+dz)
							if d < mn {
								mn = d
							}
							if d > mx {
								mx = d
							}
						}
					}
				}
				idx := v.nodeIdx(l, x, y, z)
				v.minv[idx], v.maxv[idx] = mn, mx
			}
		}
	}
	// Internal levels.
	for l := v.levels - 2; l >= 0; l-- {
		s := 1 << l
		for z := 0; z < s; z++ {
			for y := 0; y < s; y++ {
				for x := 0; x < s; x++ {
					mn, mx := uint8(255), uint8(0)
					for c := 0; c < 8; c++ {
						ci := v.nodeIdx(l+1, 2*x+c&1, 2*y+(c>>1)&1, 2*z+(c>>2)&1)
						if v.minv[ci] < mn {
							mn = v.minv[ci]
						}
						if v.maxv[ci] > mx {
							mx = v.maxv[ci]
						}
					}
					idx := v.nodeIdx(l, x, y, z)
					v.minv[idx], v.maxv[idx] = mn, mx
				}
			}
		}
	}
}

// skipDistance returns how many voxels along -z the ray may skip from
// (x,y,z) because the enclosing octree region is entirely transparent,
// issuing the node reads it inspects. Returns 0 if the voxel must be
// sampled.
func (v *volume) skipDistance(p *core.Proc, x, y, z int) int {
	best := 0
	for l := v.levels - 1; l >= 0; l-- {
		scale := v.edge / (1 << l)
		idx := v.nodeIdx(l, x/scale, y/scale, z/scale)
		if v.readNodeMax(p, idx) >= threshold {
			break
		}
		// Whole node transparent: skip to just below its z floor.
		best = z - (z/scale)*scale + 1
	}
	return best
}

// render casts one orthographic ray down -z, compositing front to back.
func (v *volume) render(p *core.Proc, px, py, w, h int) int64 {
	x := (float64(px) + 0.5) / float64(w) * float64(v.edge)
	y := (float64(py) + 0.5) / float64(h) * float64(v.edge)
	xi, yi := int(x), int(y)
	if xi >= v.edge {
		xi = v.edge - 1
	}
	if yi >= v.edge {
		yi = v.edge - 1
	}
	var color, alpha float64
	z := v.edge - 1
	for z >= 0 && alpha < 0.95 {
		if skip := v.skipDistance(p, xi, yi, z); skip > 0 {
			z -= skip
			if p != nil {
				p.Compute(6)
			}
			continue
		}
		d := float64(v.trilinear(p, x, y, float64(z)+0.5))
		if d >= threshold {
			a := (d - threshold) / 255 * 0.22
			shade := d / 255 * (0.4 + 0.6*float64(z)/float64(v.edge))
			color += (1 - alpha) * a * shade
			alpha += (1 - alpha) * a
		}
		if p != nil {
			p.Compute(20)
		}
		z--
	}
	return int64(color * 255)
}

// trilinear samples the volume with 8 voxel reads.
func (v *volume) trilinear(p *core.Proc, x, y, z float64) float64 {
	x -= 0.5
	y -= 0.5
	z -= 0.5
	x0, y0, z0 := clampI(int(math.Floor(x)), v.edge-1), clampI(int(math.Floor(y)), v.edge-1), clampI(int(math.Floor(z)), v.edge-1)
	x1, y1, z1 := clampI(x0+1, v.edge-1), clampI(y0+1, v.edge-1), clampI(z0+1, v.edge-1)
	fx, fy, fz := x-float64(x0), y-float64(y0), z-float64(z0)
	fx, fy, fz = clampF(fx), clampF(fy), clampF(fz)
	c000 := float64(v.readVoxel(p, x0, y0, z0))
	c100 := float64(v.readVoxel(p, x1, y0, z0))
	c010 := float64(v.readVoxel(p, x0, y1, z0))
	c110 := float64(v.readVoxel(p, x1, y1, z0))
	c001 := float64(v.readVoxel(p, x0, y0, z1))
	c101 := float64(v.readVoxel(p, x1, y0, z1))
	c011 := float64(v.readVoxel(p, x0, y1, z1))
	c111 := float64(v.readVoxel(p, x1, y1, z1))
	c00 := c000*(1-fx) + c100*fx
	c10 := c010*(1-fx) + c110*fx
	c01 := c001*(1-fx) + c101*fx
	c11 := c011*(1-fx) + c111*fx
	c0 := c00*(1-fy) + c10*fy
	c1 := c01*(1-fy) + c11*fy
	return c0*(1-fz) + c1*fz
}

func clampI(v, hi int) int {
	if v < 0 {
		return 0
	}
	if v > hi {
		return hi
	}
	return v
}

func clampF(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Run renders the volume in parallel and verifies pixel-exactly against
// a serial render.
func Run(cfg core.Config, pr Params) (*core.Result, error) {
	e := pr.VolumeEdge
	if e < 8 || e&(e-1) != 0 || pr.Width < 4 || pr.Height < 4 {
		return nil, fmt.Errorf("volrend: bad params %+v", pr)
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	// Race-free outside the task queues: the volume and its octree are
	// published before the measured phase and every pixel block is
	// rendered and written by the one processor that took it.
	// TaskQueues.Next runs inside Racy.
	m.DeclareRaceFree()
	v := &volume{edge: e, data: buildVolume(e)}
	v.buildOctree()
	v.vox = apps.NewArray[uint8](m, e*e*e, "volume")
	v.tree = apps.NewRecs(m, len(v.minv), oStride, "octree")
	// Stealable pixel blocks, as in Raytrace: the SPLASH Volrend
	// balances its very uneven per-ray costs the same way.
	img := apps.NewImage(m, pr.Width, pr.Height, "vr")
	render := func(p *core.Proc, px, py int) int64 { return v.render(p, px, py, pr.Width, pr.Height) }
	bar := m.NewBarrierN("volrend.main", cfg.Procs)
	res, err := m.Run(func(p *core.Proc) {
		id := p.ID()
		// Initialization: spread the read-only volume publication across
		// processors so first-touch homes it round-robin.
		vlo, vhi := apps.Chunk(e*e*e, id, p.NumProcs())
		for i := vlo; i < vhi; i += 8 {
			v.vox.Set(p, i, v.data[i])
		}
		if id == 0 {
			for i := range v.minv {
				v.tree.Write(p, i, oMin)
				v.tree.Write(p, i, oMax)
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
	if err := img.Check("volrend", render); err != nil {
		return nil, err
	}
	return res, nil
}
