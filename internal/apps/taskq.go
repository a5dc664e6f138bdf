package apps

import (
	"fmt"

	"clustersim/internal/core"
)

// TaskQueues is the distributed work queue with stealing that the SPLASH
// graphics codes (Raytrace, Volrend) use to balance uneven per-pixel
// work: each processor owns a contiguous range of task IDs and serves
// them from its own lock-protected queue; when a queue runs dry the
// processor steals from the tail of other processors' queues. The queue
// state (next/limit counters) lives in simulated shared memory, so the
// locking and counter traffic appear in the reference stream exactly as
// they would on the real machine.
type TaskQueues struct {
	nprocs int
	locks  []*core.Lock
	state  *Array[int64] // [p*2] = next, [p*2+1] = limit
}

// NewTaskQueues creates one queue per processor, with each queue's
// counters placed at that processor's cluster.
func NewTaskQueues(m *core.Machine, name string) *TaskQueues {
	n := m.Config().Procs
	q := &TaskQueues{
		nprocs: n,
		locks:  make([]*core.Lock, n),
		state:  NewArray[int64](m, 2*n, name+".queues"),
	}
	for p := 0; p < n; p++ {
		q.locks[p] = m.NewLock(fmt.Sprintf("%s.q%d", name, p))
		m.Place(q.state.Addr(2*p), 16, p)
	}
	return q
}

// Init sets processor p's task range [lo, hi); every processor calls it
// for itself before the first Next, followed by a barrier.
func (q *TaskQueues) Init(p *core.Proc, lo, hi int) {
	id := p.ID()
	q.locks[id].Acquire(p)
	q.state.Set(p, 2*id, int64(lo))
	q.state.Set(p, 2*id+1, int64(hi))
	q.locks[id].Release(p)
}

// Next returns the next task for processor p: from its own queue head,
// or stolen from the tail of the first non-empty victim. ok is false
// when every queue is empty.
//
// Next is a racy interval (core.Proc.Racy), so the code between two
// calls can run ahead on a machine declared race-free: its unlocked
// peek reads queue words that other processors write under their
// locks, and even the locked accesses must run inline, because a
// locked write issued ahead would reach the Go-side queue state before
// its simulated time, where another processor's peek could see it.
func (q *TaskQueues) Next(p *core.Proc) (task int, ok bool) {
	p.Racy(func() { task, ok = q.next(p) })
	return task, ok
}

func (q *TaskQueues) next(p *core.Proc) (task int, ok bool) {
	id := p.ID()
	// Own queue: take from the head.
	q.locks[id].Acquire(p)
	next := q.state.Get(p, 2*id)
	limit := q.state.Get(p, 2*id+1)
	if next < limit {
		q.state.Set(p, 2*id, next+1)
		q.locks[id].Release(p)
		return int(next), true
	}
	q.locks[id].Release(p)
	// Steal: scan the other queues, taking from the tail to minimise
	// interference with the owner's head.
	for d := 1; d < q.nprocs; d++ {
		v := (id + d) % q.nprocs
		// Cheap unlocked peek first (a real algorithm's optimisation;
		// the authoritative check happens under the lock).
		if q.state.Get(p, 2*v) >= q.state.Get(p, 2*v+1) {
			continue
		}
		q.locks[v].Acquire(p)
		next = q.state.Get(p, 2*v)
		limit = q.state.Get(p, 2*v+1)
		if next < limit {
			q.state.Set(p, 2*v+1, limit-1)
			q.locks[v].Release(p)
			return int(limit - 1), true
		}
		q.locks[v].Release(p)
	}
	return 0, false
}

// Image is the shared image the graphics codes (Raytrace, Volrend)
// render, one word per pixel, row-major, in stealable blocks of at most
// taskBlock×taskBlock pixels. The blocks are enumerated tile by tile
// over the processor grid (ProcGrid, as in Ocean), so each processor's
// initial queue range is its own tile; uneven per-pixel costs are then
// balanced by stealing, as in the SPLASH codes.
type Image struct {
	width, height int
	pixels        *Array[int64]
	blocks        []pixelBlock
	lo, hi        []int // processor p's initial queue range is [lo[p], hi[p])
	queues        *TaskQueues
}

// pixelBlock is one stealable unit of rendering work: the pixels
// [x0,x1)×[y0,y1).
type pixelBlock struct{ x0, y0, x1, y1 int }

const taskBlock = 4 // pixels per block edge

// NewImage allocates a width×height image named "image", then the task
// queues that hand out its blocks, named name (see NewTaskQueues).
func NewImage(m *core.Machine, width, height int, name string) *Image {
	im := &Image{width: width, height: height, pixels: NewArray[int64](m, width*height, "image")}
	im.blocks, im.lo, im.hi = tileBlocks(m.Config().Procs, width, height)
	im.queues = NewTaskQueues(m, name)
	return im
}

// tileBlocks splits a width×height image into blocks, tile by tile, and
// returns each processor's range of them.
func tileBlocks(procs, width, height int) (blocks []pixelBlock, lo, hi []int) {
	gr, gc := ProcGrid(procs)
	lo = make([]int, procs)
	hi = make([]int, procs)
	for id := 0; id < procs; id++ {
		ylo, yhi := Chunk(height, id/gc, gr)
		xlo, xhi := Chunk(width, id%gc, gc)
		lo[id] = len(blocks)
		for by := ylo; by < yhi; by += taskBlock {
			for bx := xlo; bx < xhi; bx += taskBlock {
				blocks = append(blocks, pixelBlock{x0: bx, y0: by,
					x1: min(bx+taskBlock, xhi), y1: min(by+taskBlock, yhi)})
			}
		}
		hi[id] = len(blocks)
	}
	return blocks, lo, hi
}

// Init gives processor p the blocks of its own tile; every processor
// calls it for itself before the measured phase, as TaskQueues.Init.
func (im *Image) Init(p *core.Proc) {
	im.queues.Init(p, im.lo[p.ID()], im.hi[p.ID()])
}

// Render takes blocks, its own and then stolen ones, until none is
// left, and stores pixel(p, x, y) at each pixel of each block.
func (im *Image) Render(p *core.Proc, pixel func(p *core.Proc, x, y int) int64) {
	for {
		task, ok := im.queues.Next(p)
		if !ok {
			return
		}
		b := im.blocks[task]
		for y := b.y0; y < b.y1; y++ {
			for x := b.x0; x < b.x1; x++ {
				im.pixels.Set(p, y*im.width+x, pixel(p, x, y))
			}
		}
	}
}

// Check compares every rendered pixel, row by row, with pixel(nil, x,
// y), the serial render, which issues no references; the first
// mismatch is an error prefixed with app.
func (im *Image) Check(app string, pixel func(p *core.Proc, x, y int) int64) error {
	for y := 0; y < im.height; y++ {
		for x := 0; x < im.width; x++ {
			want := pixel(nil, x, y)
			if got := im.pixels.Data[y*im.width+x]; got != want {
				return fmt.Errorf("%s: pixel (%d,%d) = %d, serial render says %d", app, x, y, got, want)
			}
		}
	}
	return nil
}
