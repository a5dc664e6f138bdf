package apps

import (
	"sort"
	"testing"

	"clustersim/internal/core"
)

func taskMachine(t *testing.T, procs int) *core.Machine {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Procs = procs
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestTaskQueuesCoverEveryTaskOnce: under stealing, each task is served
// exactly once regardless of how unevenly the work is distributed.
func TestTaskQueuesCoverEveryTaskOnce(t *testing.T) {
	const procs = 4
	const tasks = 97
	m := taskMachine(t, procs)
	q := NewTaskQueues(m, "tq")
	bar := m.NewBarrier()
	served := make([]int, tasks)
	_, err := m.Run(func(p *core.Proc) {
		lo, hi := Chunk(tasks, p.ID(), procs)
		q.Init(p, lo, hi)
		bar.Wait(p)
		for {
			task, ok := q.Next(p)
			if !ok {
				break
			}
			served[task]++
			// Pathological imbalance: processor 0's tasks are 100×
			// heavier, forcing the others to steal.
			if p.ID() == 0 {
				p.Compute(500)
			} else {
				p.Compute(5)
			}
		}
		bar.Wait(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	for task, n := range served {
		if n != 1 {
			t.Fatalf("task %d served %d times", task, n)
		}
	}
}

// TestTaskStealingBalances: with wildly uneven task costs, stealing must
// beat the static assignment's critical path.
func TestTaskStealingBalances(t *testing.T) {
	const procs = 4
	const tasks = 64
	cost := func(task int) core.Clock {
		if task < tasks/procs {
			return 400 // all the heavy work sits in processor 0's range
		}
		return 10
	}
	run := func(steal bool) core.Clock {
		m := taskMachine(t, procs)
		q := NewTaskQueues(m, "tq")
		bar := m.NewBarrier()
		res, err := m.Run(func(p *core.Proc) {
			lo, hi := Chunk(tasks, p.ID(), procs)
			q.Init(p, lo, hi)
			bar.Wait(p)
			if steal {
				for {
					task, ok := q.Next(p)
					if !ok {
						break
					}
					p.Compute(cost(task))
				}
			} else {
				for task := lo; task < hi; task++ {
					p.Compute(cost(task))
				}
			}
			bar.Wait(p)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.ExecTime
	}
	static := run(false)
	stolen := run(true)
	if stolen >= static {
		t.Fatalf("stealing (%d) not faster than static (%d)", stolen, static)
	}
}

// TestTaskQueuesDeterministic: queue order is reproducible.
func TestTaskQueuesDeterministic(t *testing.T) {
	run := func() []int {
		m := taskMachine(t, 3)
		q := NewTaskQueues(m, "tq")
		bar := m.NewBarrier()
		var order []int
		_, err := m.Run(func(p *core.Proc) {
			lo, hi := Chunk(30, p.ID(), 3)
			q.Init(p, lo, hi)
			bar.Wait(p)
			for {
				task, ok := q.Next(p)
				if !ok {
					break
				}
				order = append(order, task)
				p.Compute(core.Clock(task%7) * 3)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order diverges at %d", i)
		}
	}
	// And it is a permutation of all tasks.
	sorted := append([]int(nil), a...)
	sort.Ints(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("missing task %d", i)
		}
	}
}

// TestImageBlocksTileTheProcGrid: the image's blocks cover every pixel
// exactly once, none is wider or taller than taskBlock, and processor
// p's initial queue range holds exactly the blocks of its ProcGrid tile
// (none when the tile is empty), the ranges following one another in
// processor order. Widths and heights include values that are not
// multiples of the block edge, and images narrower than the grid.
func TestImageBlocksTileTheProcGrid(t *testing.T) {
	sizes := [][2]int{{16, 16}, {13, 7}, {30, 33}, {5, 66}, {64, 64}, {3, 9}}
	for _, procs := range []int{1, 2, 4, 16, 64} {
		gr, gc := ProcGrid(procs)
		for _, wh := range sizes {
			w, h := wh[0], wh[1]
			im := NewImage(taskMachine(t, procs), w, h, "img")
			covered := make([]int, w*h)
			next := 0
			for id := 0; id < procs; id++ {
				lo, hi := im.lo[id], im.hi[id]
				if lo != next || hi < lo {
					t.Fatalf("%d procs, %d×%d: processor %d's range [%d,%d) does not start at %d",
						procs, w, h, id, lo, hi, next)
				}
				next = hi
				ylo, yhi := Chunk(h, id/gc, gr)
				xlo, xhi := Chunk(w, id%gc, gc)
				area := 0
				for _, b := range im.blocks[lo:hi] {
					if b.x0 < xlo || b.x1 > xhi || b.y0 < ylo || b.y1 > yhi {
						t.Fatalf("%d procs, %d×%d: block %+v of processor %d lies outside its tile [%d,%d)×[%d,%d)",
							procs, w, h, b, id, xlo, xhi, ylo, yhi)
					}
					if b.x1 <= b.x0 || b.y1 <= b.y0 || b.x1-b.x0 > taskBlock || b.y1-b.y0 > taskBlock {
						t.Fatalf("%d procs, %d×%d: block %+v is empty or larger than %d×%d",
							procs, w, h, b, taskBlock, taskBlock)
					}
					for y := b.y0; y < b.y1; y++ {
						for x := b.x0; x < b.x1; x++ {
							covered[y*w+x]++
						}
					}
					area += (b.x1 - b.x0) * (b.y1 - b.y0)
				}
				if tile := (xhi - xlo) * (yhi - ylo); area != tile {
					t.Fatalf("%d procs, %d×%d: processor %d's blocks cover %d pixels of its %d-pixel tile",
						procs, w, h, id, area, tile)
				}
			}
			if next != len(im.blocks) {
				t.Fatalf("%d procs, %d×%d: ranges end at %d of %d blocks", procs, w, h, next, len(im.blocks))
			}
			for i, n := range covered {
				if n != 1 {
					t.Fatalf("%d procs, %d×%d: pixel (%d,%d) lies in %d blocks", procs, w, h, i%w, i/w, n)
				}
			}
		}
	}
}

// TestImageRendersAndChecks: every pixel rendered through the queues
// holds its value, Check accepts the same render and names the first
// differing pixel of another.
func TestImageRendersAndChecks(t *testing.T) {
	m := taskMachine(t, 4)
	im := NewImage(m, 13, 7, "img")
	bar := m.NewBarrier()
	pixel := func(p *core.Proc, x, y int) int64 {
		if p != nil {
			p.Compute(core.Clock(1 + x*y%5))
		}
		return int64(100*y + x)
	}
	_, err := m.Run(func(p *core.Proc) {
		im.Init(p)
		bar.Wait(p)
		im.Render(p, pixel)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := im.Check("test", pixel); err != nil {
		t.Fatal(err)
	}
	off := func(p *core.Proc, x, y int) int64 {
		if x == 5 && y == 2 {
			return -1
		}
		return pixel(p, x, y)
	}
	want := "test: pixel (5,2) = 205, serial render says -1"
	if err := im.Check("test", off); err == nil || err.Error() != want {
		t.Errorf("Check of a differing render = %v, want %q", err, want)
	}
}
