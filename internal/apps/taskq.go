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
	state  *I64 // [p*2] = next, [p*2+1] = limit
}

// NewTaskQueues creates one queue per processor, with each queue's
// counters placed at that processor's cluster.
func NewTaskQueues(m *core.Machine, name string) *TaskQueues {
	n := m.Config().Procs
	q := &TaskQueues{
		nprocs: n,
		locks:  make([]*core.Lock, n),
		state:  NewI64(m, 2*n, name+".queues"),
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
