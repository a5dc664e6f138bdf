package experiments

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"clustersim/internal/apps"
	"clustersim/internal/core"
	"clustersim/internal/obs"
)

// A point is a deterministic, single-threaded simulation that shares no
// state with any other, so the experiments run their independent points
// on every host core. A data method plans its render pass's points, runs
// the fresh ones on runtime.GOMAXPROCS(0) workers and commits them in
// render order (prefetch); an experiment that bypasses Suite.Run builds
// its list of configurations and runs it the same way (runJobs).

// fanOut calls job(i, true) for i = 0, 1, ..., n-1 on up to
// runtime.GOMAXPROCS(0) worker goroutines, which take the indices in
// order. Before each take a worker polls stop (nil never stops) under
// the loop's lock, so the polls follow the take order; stop must
// therefore be quick and must not wait on the loop. Once stop reports
// true, or cancel is called, no index is taken again and job(i, false)
// is called for each index left. wait returns when every worker has.
func fanOut(n int, stop func() bool, job func(i int, taken bool)) (cancel, wait func()) {
	var (
		mu     sync.Mutex
		next   int
		closed bool
		wg     sync.WaitGroup
	)
	// take returns the next index, or -1 once the loop is closed; the
	// call that closes it hands each index left to job(i, false).
	take := func(halt bool) int {
		mu.Lock()
		if !closed && next < n && !halt && (stop == nil || !stop()) {
			i := next
			next++
			mu.Unlock()
			return i
		}
		left := n
		if !closed {
			closed, left = true, next
		}
		mu.Unlock()
		for i := left; i < n; i++ {
			job(i, false)
		}
		return -1
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	wg.Add(workers)
	for range workers {
		// Harness workers, not simulation code: each runs whole points,
		// and every point runs single-threaded on its own machine.
		go func() { //simlint:allow goroutine
			defer wg.Done()
			for i := take(false); i >= 0; i = take(false) {
				job(i, true)
			}
		}()
	}
	return func() { take(true) }, wg.Wait
}

// prefetch starts the points a data method's render pass will ask s
// for, and returns the function that ends the batch; a data method
// defers it first thing. data is the data method itself: it dry-runs
// against a planning suite, as PlanPoints does, so the plan is the
// render pass's own demand in its own order. Memoized points are
// dropped. Every other point is looked up in the journal once, and the
// lookup travels with it to Run. The fresh ones are queued on the
// worker loop in plan order, no further than a journalled failure or a
// lookup error, where the render pass will stop. end cancels what no
// worker has taken and waits for the points in flight, so no goroutine
// outlives the data method.
func prefetch[T any](s *Suite, data func(*Suite) (T, error)) (end func()) {
	if s.dry || s.ahead != nil {
		return func() {}
	}
	plan := newPlanner(s.Opt)
	if _, err := data(plan); err != nil {
		return func() {}
	}
	s.ahead = make(map[obs.Point]*point)
	var queue []*point
	for _, key := range plan.planned {
		if _, ok := s.runs[key]; ok {
			continue
		}
		pt, err := s.lookup(key)
		if err != nil {
			break
		}
		s.ahead[key] = pt
		if pt.failed != nil {
			break
		}
		if pt.replay != nil {
			continue
		}
		pt.done = make(chan struct{})
		queue = append(queue, pt)
	}
	cancel, wait := fanOut(len(queue), s.Opt.Stop, func(i int, taken bool) {
		pt := queue[i]
		if taken {
			pt.run, pt.err = s.compute(pt)
		}
		pt.ran = taken
		close(pt.done)
	})
	return func() {
		cancel()
		wait()
		s.ahead = nil
	}
}

// newPlanner returns a planning suite: its Run records each new point
// and returns an empty Result instead of simulating.
func newPlanner(opt Options) *Suite {
	opt.Out = io.Discard
	plan := NewSuite(opt)
	plan.dry = true
	return plan
}

// job is one simulation of an experiment that runs outside Suite.Run;
// label names it in an error.
type job struct {
	w     apps.Runner
	cfg   core.Config
	label string
}

// runJobs simulates every job on the worker loop, each under runPoint's
// panic isolation, and returns the results in list order, or the first
// error in list order. The loop polls opt.Stop before each job, as a
// data method's does: once it reports true no job starts, the jobs in
// flight finish, and a job left untaken is ErrInterrupted.
func runJobs(jobs []job, opt Options) ([]*core.Result, error) {
	res := make([]*core.Result, len(jobs))
	errs := make([]error, len(jobs))
	_, wait := fanOut(len(jobs), opt.Stop, func(i int, taken bool) {
		if !taken {
			errs[i] = ErrInterrupted
			return
		}
		res[i], errs[i] = runPoint(jobs[i].w, jobs[i].cfg, opt.Size)
	})
	wait()
	for i, err := range errs {
		if errors.Is(err, ErrInterrupted) {
			return nil, err
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", jobs[i].label, err)
		}
	}
	return res, nil
}
