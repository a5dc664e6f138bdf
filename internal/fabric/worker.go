package fabric

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// ErrStopped is RunConn's return when the worker's Stop hook asked it
// to leave: the point in flight (if any) was reported, no more work was
// requested, and the connection is closed. The coordinator requeues
// anything still leased to the worker when it sees the stream die.
var ErrStopped = errors.New("fabric: worker stopped on request")

// WorkerConfig configures one fleet member.
type WorkerConfig struct {
	// ID is the worker's stable identity. A restarted worker that
	// reuses its ID supersedes its previous connection and — with a
	// journal-backed Runner — resumes instead of recomputing.
	ID string

	// Heartbeat is the liveness beacon period. Default 500ms. It must
	// be comfortably under the coordinator's DeadAfter.
	Heartbeat time.Duration

	// Run executes one assigned point: the experiments glue wraps
	// journal replay, panic isolation and the watchdog here.
	Run Runner

	// Progress receives operator-facing lines (nil = silent).
	Progress io.Writer

	// Stop, when non-nil, is polled after each point and on every
	// heartbeat tick; once it reports true the worker finishes the
	// point in flight, reports it, and leaves with ErrStopped (the
	// CLI wires SIGINT/SIGTERM here).
	Stop func() bool
}

func (c WorkerConfig) heartbeat() time.Duration {
	if c.Heartbeat <= 0 {
		return 500 * time.Millisecond
	}
	return c.Heartbeat
}

// Worker is one fleet member: it says hello, asks for work (Steal),
// computes assignments one at a time, heartbeats throughout, and
// leaves on Drain or when its Stop hook fires.
type Worker struct {
	cfg WorkerConfig
	// computing is set while a point runs; the heartbeat loop piggybacks
	// a Steal re-request whenever the worker is idle, so a lost Steal or
	// Assign frame cannot strand an idle worker (the request is
	// idempotent on the coordinator side).
	computing atomic.Bool
}

// NewWorker builds a worker; RunConn makes it live.
func NewWorker(cfg WorkerConfig) *Worker {
	return &Worker{cfg: cfg}
}

func (w *Worker) progressf(format string, args ...interface{}) {
	if w.cfg.Progress != nil {
		fmt.Fprintf(w.cfg.Progress, "worker %s: "+format+"\n", append([]interface{}{w.cfg.ID}, args...)...)
	}
}

// stopping reports whether the Stop hook asked the worker to leave.
func (w *Worker) stopping() bool {
	return w.cfg.Stop != nil && w.cfg.Stop()
}

// RunConn serves one connection to the coordinator until Drain (nil),
// a stop request (ErrStopped) or a transport error (the caller decides
// whether to redial). Points
// run on a separate goroutine so heartbeats and a mid-point Drain are
// handled while the simulation computes; assignments are still
// sequential — the worker never runs two points at once.
func (w *Worker) RunConn(conn Conn) error {
	if w.cfg.ID == "" {
		return fmt.Errorf("fabric: worker needs a non-empty ID")
	}
	if w.cfg.Run == nil {
		return fmt.Errorf("fabric: worker %s has no Runner", w.cfg.ID)
	}
	if err := conn.Send(Msg{Type: MsgHello, Worker: w.cfg.ID}); err != nil {
		return fmt.Errorf("fabric: hello: %w", err)
	}
	if err := conn.Send(Msg{Type: MsgSteal, Worker: w.cfg.ID}); err != nil {
		return fmt.Errorf("fabric: initial work request: %w", err)
	}
	w.progressf("connected to %s", conn.RemoteName())

	// Heartbeat beacon. Harness-level liveness timing only.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { //simlint:allow goroutine
		defer wg.Done()
		t := time.NewTicker(w.cfg.heartbeat()) //simlint:allow wallclock
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if !w.computing.Load() && w.stopping() {
					// Idle when the stop arrived: leave now. Closing the
					// conn ends the read loop below.
					conn.Close()
					return
				}
				conn.Send(Msg{Type: MsgHeartbeat, Worker: w.cfg.ID})
				if !w.computing.Load() {
					// Idle re-request: recovers from a dropped Steal or
					// Assign frame.
					conn.Send(Msg{Type: MsgSteal, Worker: w.cfg.ID})
				}
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
		conn.Close()
	}()

	// busy serialises point execution: one outstanding assignment at a
	// time, results posted back from the compute goroutine.
	var busy sync.WaitGroup
	defer busy.Wait()
	for {
		m, err := conn.Recv()
		if err != nil {
			if w.stopping() {
				return ErrStopped
			}
			if err == io.EOF {
				return fmt.Errorf("fabric: coordinator closed the connection")
			}
			return err
		}
		switch m.Type {
		case MsgAssign:
			if m.Point == nil {
				continue
			}
			if w.stopping() {
				// Work that arrived after the stop: leave without it;
				// the coordinator requeues the lease when the conn dies.
				return ErrStopped
			}
			busy.Wait() // previous point (if any) finished and reported
			busy.Add(1)
			w.computing.Store(true)
			lease, spec := m.Lease, *m.Point
			// Compute off the read loop so Drain and heartbeats stay
			// responsive during a long point.
			go func() { //simlint:allow goroutine
				defer busy.Done()
				w.runPoint(conn, lease, spec)
			}()
		case MsgDrain:
			w.progressf("drained: %s", m.Detail)
			return nil
		default:
			// Tolerate unknown types (forward compatibility).
		}
	}
}

// runPoint executes one assignment and reports the outcome, then asks
// for more work — or, when a stop was requested meanwhile, closes the
// connection instead.
func (w *Worker) runPoint(conn Conn, lease uint64, spec PointSpec) {
	w.progressf("running %s (lease %d)", spec.Name(), lease)
	// Harness wall clock: point cost measurement for the fleet ETA.
	started := time.Now() //simlint:allow wallclock
	res, resumed, err := w.cfg.Run(spec)
	out := Msg{Type: MsgResult, Worker: w.cfg.ID, Lease: lease, Resumed: resumed}
	if err != nil {
		out.Error = err.Error()
		w.progressf("point %s failed: %v", spec.Name(), err)
	} else {
		out.Result = res
		if resumed {
			w.progressf("point %s resumed from journal", spec.Name())
		} else {
			out.WallNS = int64(time.Since(started)) //simlint:allow wallclock
			w.progressf("point %s done", spec.Name())
		}
	}
	conn.Send(out)
	if w.stopping() {
		w.progressf("stopping after %s; asking for no more work", spec.Name())
		conn.Close()
		return
	}
	w.computing.Store(false)
	conn.Send(Msg{Type: MsgSteal, Worker: w.cfg.ID})
}
