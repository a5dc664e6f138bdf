package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"clustersim/internal/core"
	"clustersim/internal/obs"
)

// Coordinator tuning knobs. All timing is wall-clock harness time —
// the fabric schedules real hosts, not simulated ones.
type CoordinatorConfig struct {
	// DeadAfter is how long a worker may stay silent (no heartbeat, no
	// result, no steal) before it is declared dead and its leases are
	// requeued. Default 3s.
	DeadAfter time.Duration

	// LeaseTimeout is the per-lease backstop deadline: a lease older
	// than this is requeued even if its worker still heartbeats (a
	// wedged point without a worker-side watchdog). The worker keeps
	// computing; if its result eventually arrives it is either the
	// first completion (accepted) or a byte-identical duplicate
	// (dropped). Default 10m; 0 keeps the default, negative disables.
	LeaseTimeout time.Duration

	// BackoffBase/BackoffCap shape the capped exponential delay before
	// a requeued point becomes eligible for re-assignment: base×2^n
	// capped. Defaults 250ms / 10s.
	BackoffBase time.Duration
	BackoffCap  time.Duration

	// Steal lets an idle worker duplicate the oldest in-flight lease
	// when the pending queue is empty, absorbing uneven point costs
	// (MP3D vs Barnes). Safe because results are deterministic.
	Steal bool

	// DisableLocal turns off the degraded mode in which the
	// coordinator runs pending points itself when no live workers
	// exist. With local execution on (the default), a sweep always
	// completes, even if no worker ever connects.
	DisableLocal bool

	// LocalGrace is how long the coordinator waits for (re)connecting
	// workers before running points locally. Default 2s.
	LocalGrace time.Duration

	// Run executes one point locally (degraded mode). Required unless
	// DisableLocal.
	Run Runner

	// OnResult receives each point's first completion (the sink the
	// CLI wires to the journal). An error aborts the sweep — losing a
	// result silently would fork the experiment.
	OnResult func(PointSpec, *core.Result, bool) error

	// OnFailure receives each point's permanent failure record.
	OnFailure func(PointSpec, string)

	// Obs reports the points and the fleet's events to the
	// coordinator's sweep (nil disables).
	Obs *Obs

	// Progress receives operator-facing lines (nil = silent).
	Progress io.Writer
}

func (c CoordinatorConfig) deadAfter() time.Duration {
	if c.DeadAfter <= 0 {
		return 3 * time.Second
	}
	return c.DeadAfter
}

func (c CoordinatorConfig) leaseTimeout() time.Duration {
	if c.LeaseTimeout < 0 {
		return 0 // disabled
	}
	if c.LeaseTimeout == 0 {
		return 10 * time.Minute
	}
	return c.LeaseTimeout
}

func (c CoordinatorConfig) backoffBase() time.Duration {
	if c.BackoffBase <= 0 {
		return 250 * time.Millisecond
	}
	return c.BackoffBase
}

func (c CoordinatorConfig) backoffCap() time.Duration {
	if c.BackoffCap <= 0 {
		return 10 * time.Second
	}
	return c.BackoffCap
}

func (c CoordinatorConfig) localGrace() time.Duration {
	if c.LocalGrace <= 0 {
		return 2 * time.Second
	}
	return c.LocalGrace
}

// backoff is the capped exponential re-assignment delay for attempt n
// (1-based: the first requeue waits one base).
func (c CoordinatorConfig) backoff(attempt int) time.Duration {
	d := c.backoffBase()
	cap := c.backoffCap()
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= cap {
			return cap
		}
	}
	if d > cap {
		return cap
	}
	return d
}

// Point lifecycle inside the coordinator.
type pointState int

const (
	statePending pointState = iota
	stateLeased
	stateDone
	stateFailed
)

// point is one sweep point's authoritative record.
type point struct {
	spec       PointSpec
	state      pointState
	attempts   int       // requeue count, drives the backoff
	eligible   time.Time // earliest next assignment after a requeue
	leases     []uint64  // active lease IDs (≥2 only while stolen)
	localLease uint64    // lease ID of an in-flight degraded-mode local run
	result     *core.Result
	resJSON    []byte // canonical encoding, the duplicate-completion oracle
	errMsg     string
}

// lease is one assignment of a point to a worker. Leases are retained
// retired so a late Result is always attributable to its point.
type lease struct {
	id      uint64
	key     string
	worker  string
	started time.Time
	retired bool
}

// workerState tracks one connected worker.
type workerState struct {
	id       string
	conn     Conn
	lastSeen time.Time
	idle     bool // sent Steal, awaiting an assignment
	gone     bool
	leases   map[uint64]bool
	// tally counts the worker's settled and dropped completions for
	// FleetWorkers; a reconnect carries it over.
	tally obs.WorkerStatus
}

// Coordinator owns the sweep: it leases points to workers, detects
// death by silence, requeues with capped exponential backoff,
// de-duplicates double completions by asserting byte-identical
// results, lets idle workers steal in-flight leases, and degrades to
// local execution when the fleet is gone.
type Coordinator struct {
	cfg CoordinatorConfig

	mu          sync.Mutex
	points      map[string]*point
	order       []string // registration order, for deterministic reports
	queue       []string // pending keys, FIFO
	remaining   int      // points not yet done/failed
	workers     map[string]*workerState
	workerOrder []string
	leases      map[uint64]*lease
	nextLease   uint64
	localAt     time.Time // earliest moment local fallback may trigger
	listener    Listener
	fatal       error // determinism violation or sink failure: abort
	closed      bool
}

// NewCoordinator builds a coordinator; Serve and Run make it live.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	return &Coordinator{
		cfg:     cfg,
		points:  make(map[string]*point),
		workers: make(map[string]*workerState),
		leases:  make(map[uint64]*lease),
	}
}

func (c *Coordinator) progressf(format string, args ...interface{}) {
	if c.cfg.Progress != nil {
		fmt.Fprintf(c.cfg.Progress, "fabric: "+format+"\n", args...)
	}
}

// Serve accepts worker connections on l until the listener closes
// (blocking; run it on its own goroutine).
func (c *Coordinator) Serve(l Listener) {
	c.mu.Lock()
	c.listener = l
	c.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		// Harness-level connection handler, strictly outside the
		// simulation's token discipline.
		go c.handleConn(conn) //simlint:allow goroutine
	}
}

// handleConn speaks the v1 protocol with one worker: Hello first, then
// steal/heartbeat/result until the stream dies.
func (c *Coordinator) handleConn(conn Conn) {
	m, err := conn.Recv()
	if err != nil || m.Type != MsgHello || m.Worker == "" {
		conn.Close()
		return
	}
	id := m.Worker
	c.register(id, conn)
	for {
		m, err := conn.Recv()
		if err != nil {
			c.workerGone(id, conn, "connection lost")
			return
		}
		switch m.Type {
		case MsgHeartbeat:
			c.touch(id, conn)
		case MsgSteal:
			c.touch(id, conn)
			c.markIdle(id, conn)
			c.schedule()
		case MsgResult:
			c.touch(id, conn)
			c.deliverResult(id, m)
			c.schedule()
		default:
			// Unknown types are ignored so minor protocol extensions
			// don't kill the fleet.
		}
	}
}

// register installs (or, for a restarted worker, replaces) a worker.
func (c *Coordinator) register(id string, conn Conn) {
	c.mu.Lock()
	if old := c.workers[id]; old != nil && !old.gone {
		// A reconnect supersedes the old stream: requeue whatever the
		// previous incarnation held and adopt the new connection.
		c.declareDeadLocked(old, "superseded by reconnect")
	}
	w := &workerState{id: id, conn: conn, lastSeen: c.now(), leases: make(map[uint64]bool)}
	if old := c.workers[id]; old != nil {
		w.tally = old.tally
	} else {
		w.tally.Worker = id
		c.workerOrder = append(c.workerOrder, id)
	}
	c.workers[id] = w
	c.mu.Unlock()
	c.cfg.Obs.WorkerJoined(id)
	c.progressf("worker %s connected (%s)", id, conn.RemoteName())
}

// now is the harness clock (the fabric schedules real machines).
func (c *Coordinator) now() time.Time {
	return time.Now() //simlint:allow wallclock
}

func (c *Coordinator) touch(id string, conn Conn) {
	c.mu.Lock()
	if w := c.workers[id]; w != nil && w.conn == conn {
		w.lastSeen = c.now()
	}
	c.mu.Unlock()
}

func (c *Coordinator) markIdle(id string, conn Conn) {
	c.mu.Lock()
	if w := c.workers[id]; w != nil && w.conn == conn && !w.gone {
		w.idle = true
	}
	c.mu.Unlock()
}

// workerGone handles a dead connection; a stale handler whose worker
// already reconnected must not kill the new incarnation.
func (c *Coordinator) workerGone(id string, conn Conn, reason string) {
	c.mu.Lock()
	w := c.workers[id]
	if w == nil || w.conn != conn || w.gone {
		c.mu.Unlock()
		return
	}
	c.declareDeadLocked(w, reason)
	c.mu.Unlock()
}

// declareDeadLocked retires a worker and requeues its leases.
func (c *Coordinator) declareDeadLocked(w *workerState, reason string) {
	if w.gone {
		return
	}
	w.gone = true
	w.idle = false
	w.conn.Close()
	ids := make([]uint64, 0, len(w.leases))
	for id := range w.leases {
		ids = append(ids, id) //simlint:allow maprange — sorted below
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		c.retireLeaseLocked(c.leases[id], "worker "+w.id+" died", true)
	}
	// Give the fleet a reconnect window before degrading to local runs.
	c.localAt = c.now().Add(c.cfg.localGrace())
	c.cfg.Obs.WorkerDead(w.id, reason, len(ids))
	c.progressf("worker %s dead (%s); %d leases requeued", w.id, reason, len(ids))
}

// retireLeaseLocked removes one lease; when it was the point's last
// active lease and the point is unfinished, the point returns to the
// queue behind a capped exponential backoff.
func (c *Coordinator) retireLeaseLocked(l *lease, reason string, requeue bool) {
	if l == nil || l.retired {
		return
	}
	l.retired = true
	if w := c.workers[l.worker]; w != nil {
		delete(w.leases, l.id)
	}
	p := c.points[l.key]
	if p == nil {
		return
	}
	active := p.leases[:0]
	for _, id := range p.leases {
		if id != l.id {
			active = append(active, id)
		}
	}
	p.leases = active
	if !requeue || p.state != stateLeased || len(p.leases) > 0 {
		return
	}
	p.state = statePending
	p.attempts++
	p.eligible = c.now().Add(c.cfg.backoff(p.attempts))
	c.queue = append(c.queue, l.key)
	c.cfg.Obs.Requeued(p.spec, reason, p.attempts)
}

// newLeaseLocked assigns key to worker w.
func (c *Coordinator) newLeaseLocked(key string, w *workerState) *lease {
	c.nextLease++
	l := &lease{id: c.nextLease, key: key, worker: w.id, started: c.now()}
	c.leases[l.id] = l
	w.leases[l.id] = true
	p := c.points[key]
	p.state = stateLeased
	p.leases = append(p.leases, l.id)
	return l
}

// schedule hands eligible work to idle workers. Sends happen outside
// the lock; a failed send surfaces as the connection dying.
func (c *Coordinator) schedule() {
	type sendItem struct {
		conn Conn
		msg  Msg
	}
	var sends []sendItem
	c.mu.Lock()
	now := c.now()
	for _, id := range c.workerOrder {
		w := c.workers[id]
		if w == nil || w.gone || !w.idle {
			continue
		}
		key, kind := c.nextAssignmentLocked(w, now)
		if key == "" {
			continue
		}
		l := c.newLeaseLocked(key, w)
		w.idle = false
		p := c.points[key]
		spec := p.spec
		sends = append(sends, sendItem{w.conn, Msg{Type: MsgAssign, Lease: l.id, Point: &spec}})
		if kind == "reassign" {
			kind = fmt.Sprintf("reassign attempt=%d", p.attempts)
		}
		c.cfg.Obs.Leased(id, spec, kind)
		c.progressf("assign %s to %s (%s, lease %d)", spec.Name(), id, kind, l.id)
	}
	c.mu.Unlock()
	for _, s := range sends {
		s.conn.Send(s.msg)
	}
}

// nextAssignmentLocked picks work for one idle worker: the first
// eligible pending point (FIFO), or — with stealing on and the queue
// empty — a speculative duplicate of the oldest single-leased
// in-flight point held by someone else.
func (c *Coordinator) nextAssignmentLocked(w *workerState, now time.Time) (key, kind string) {
	for i, k := range c.queue {
		p := c.points[k]
		if p.state != statePending || now.Before(p.eligible) {
			continue
		}
		c.queue = append(c.queue[:i], c.queue[i+1:]...)
		if p.attempts > 0 {
			return k, "reassign"
		}
		return k, "fresh"
	}
	if !c.cfg.Steal {
		return "", ""
	}
	var best *lease
	for id := uint64(1); id <= c.nextLease; id++ {
		l := c.leases[id]
		if l == nil || l.retired || l.worker == w.id {
			continue
		}
		p := c.points[l.key]
		if p.state != stateLeased || len(p.leases) != 1 {
			continue
		}
		if best == nil || l.started.Before(best.started) {
			best = l
		}
	}
	if best == nil {
		return "", ""
	}
	return best.key, "steal"
}

// deliverResult folds one Result message into the authoritative state.
// The first completion wins; later byte-identical completions (late
// re-sends, stolen duplicates, resurrected partitions) are dropped; a
// non-identical duplicate is a determinism violation and aborts the
// sweep — silently forking an experiment is the one unrecoverable sin.
func (c *Coordinator) deliverResult(workerID string, m Msg) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.leases[m.Lease]
	if l == nil {
		return // unattributable: corrupt or cross-run message
	}
	c.retireLeaseLocked(l, "completed", false)
	p := c.points[l.key]
	if p == nil {
		return
	}
	name := p.spec.Name()
	tally := &obs.WorkerStatus{} // the degraded-mode "(local)" runner keeps none
	if w := c.workers[workerID]; w != nil {
		tally = &w.tally
	}
	if m.Error != "" {
		if p.state == stateDone || p.state == stateFailed {
			// A late failure after a healthy completion (e.g. a stolen
			// copy hit a worker-side watchdog), or a repeated one: the
			// recorded outcome stands.
			tally.Duplicates++
			c.cfg.Obs.Dropped(workerID, p.spec, "late failure dropped: "+m.Error)
			return
		}
		p.state = stateFailed
		p.errMsg = m.Error
		c.remaining--
		c.retirePointLeasesLocked(p)
		if c.cfg.OnFailure != nil {
			c.cfg.OnFailure(p.spec, m.Error)
		}
		tally.Failed++
		c.cfg.Obs.Failed(workerID, p.spec, m.Error)
		c.progressf("point %s failed on %s: %s", name, workerID, m.Error)
		return
	}
	if m.Result == nil {
		return
	}
	js, err := json.Marshal(m.Result)
	if err != nil {
		c.setFatalLocked(fmt.Errorf("fabric: encode result of %s: %w", name, err))
		return
	}
	switch p.state {
	case stateDone:
		if !bytes.Equal(js, p.resJSON) {
			c.setFatalLocked(fmt.Errorf(
				"fabric: determinism violation: %s completed twice with different results (worker %s disagrees with the stored completion); refusing to pick one",
				name, workerID))
			return
		}
		tally.Duplicates++
		c.cfg.Obs.Dropped(workerID, p.spec, "byte-identical duplicate dropped (last write wins)")
		c.progressf("duplicate completion of %s from %s verified byte-identical, dropped", name, workerID)
	case stateFailed:
		// A success after a recorded failure: only wall-clock-dependent
		// failure modes (worker watchdogs) can disagree with a healthy
		// run, and the healthy result is strictly better evidence.
		p.state = stateDone
		p.errMsg = ""
		p.result = m.Result
		p.resJSON = js
		c.storeLocked(p, m.Resumed, tally, workerID, m.WallNS)
	default:
		p.state = stateDone
		p.result = m.Result
		p.resJSON = js
		c.remaining--
		c.retirePointLeasesLocked(p)
		c.storeLocked(p, m.Resumed, tally, workerID, m.WallNS)
	}
}

// retirePointLeasesLocked drops any remaining active leases of a
// finished point (stolen copies keep computing; their late results are
// handled as duplicates).
func (c *Coordinator) retirePointLeasesLocked(p *point) {
	for _, id := range append([]uint64(nil), p.leases...) {
		c.retireLeaseLocked(c.leases[id], "point finished", false)
	}
}

func (c *Coordinator) storeLocked(p *point, resumed bool, tally *obs.WorkerStatus, workerID string, wallNS int64) {
	name := p.spec.Name()
	if c.cfg.OnResult != nil {
		if err := c.cfg.OnResult(p.spec, p.result, resumed); err != nil {
			c.setFatalLocked(fmt.Errorf("fabric: persist result of %s: %w", name, err))
			return
		}
	}
	if resumed {
		tally.Replayed++
	} else {
		tally.Done++
	}
	c.cfg.Obs.Completed(workerID, p.spec, p.result, resumed, time.Duration(wallNS))
	c.progressf("point %s completed by %s (resumed=%v)", name, workerID, resumed)
}

func (c *Coordinator) setFatalLocked(err error) {
	if c.fatal == nil {
		c.fatal = err
	}
}

// checkLivenessLocked declares silent workers dead and requeues
// overripe leases (the lease-deadline backstop).
func (c *Coordinator) checkLivenessLocked(now time.Time) {
	dead := c.cfg.deadAfter()
	for _, id := range c.workerOrder {
		w := c.workers[id]
		if w != nil && !w.gone && now.Sub(w.lastSeen) > dead {
			c.declareDeadLocked(w, fmt.Sprintf("no heartbeat for %v", now.Sub(w.lastSeen).Round(time.Millisecond)))
		}
	}
	if lt := c.cfg.leaseTimeout(); lt > 0 {
		for id := uint64(1); id <= c.nextLease; id++ {
			l := c.leases[id]
			if l != nil && !l.retired && now.Sub(l.started) > lt {
				c.retireLeaseLocked(l, fmt.Sprintf("lease %d exceeded the %v deadline", l.id, lt), true)
			}
		}
	}
}

// pollInterval paces the run loop's liveness/assignment sweep.
const pollInterval = 10 * time.Millisecond

// Run distributes specs and blocks until every point is done or
// permanently failed, returning results keyed by PointSpec.Key. It is
// the sweep's main loop: liveness checking, scheduling, backoff and
// the local-execution degraded mode all pulse from here.
func (c *Coordinator) Run(specs []PointSpec) (map[string]*core.Result, error) {
	c.mu.Lock()
	for _, s := range specs {
		key := s.Key()
		if _, ok := c.points[key]; ok {
			continue
		}
		c.points[key] = &point{spec: s}
		c.order = append(c.order, key)
		c.queue = append(c.queue, key)
		c.remaining++
	}
	if c.cfg.DisableLocal {
		c.localAt = time.Time{}
	} else {
		c.localAt = c.now().Add(c.cfg.localGrace())
	}
	total := len(c.points)
	c.mu.Unlock()
	c.progressf("distributing %d points", total)

	for {
		c.mu.Lock()
		now := c.now()
		c.checkLivenessLocked(now)
		fatal := c.fatal
		remaining := c.remaining
		var local *point
		if fatal == nil && remaining > 0 && !c.cfg.DisableLocal && c.cfg.Run != nil &&
			c.liveWorkersLocked() == 0 && !c.localAt.IsZero() && !now.Before(c.localAt) {
			local = c.popEligibleLocalLocked(now)
		}
		c.mu.Unlock()
		if fatal != nil || remaining == 0 {
			break
		}
		if local != nil {
			c.runLocal(local)
			continue
		}
		c.schedule()
		// Harness pacing between liveness/assignment sweeps.
		time.Sleep(pollInterval) //simlint:allow wallclock
	}
	c.drain()

	c.mu.Lock()
	defer c.mu.Unlock()
	results := make(map[string]*core.Result, len(c.order))
	var failed []string
	for _, key := range c.order {
		p := c.points[key]
		if p.state == stateDone {
			results[key] = p.result
		} else {
			failed = append(failed, fmt.Sprintf("%s: %s", p.spec.Name(), p.errMsg))
		}
	}
	if c.fatal != nil {
		return results, c.fatal
	}
	if len(failed) > 0 {
		return results, fmt.Errorf("fabric: %d of %d points failed permanently:\n  %s",
			len(failed), len(c.order), joinLines(failed))
	}
	return results, nil
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}

// FleetWorkers snapshots every worker this coordinator has seen, in
// registration order, for the workers block of the sweep's /status:
// liveness, lease load, heartbeat freshness and the worker's tallies.
// It takes the coordinator's lock, under which the coordinator reports
// to the sweep, so the sweep calls it outside its own lock.
func (c *Coordinator) FleetWorkers() []obs.WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	out := make([]obs.WorkerStatus, 0, len(c.workerOrder))
	for _, id := range c.workerOrder {
		w := c.workers[id]
		row := w.tally
		row.Alive = !w.gone
		row.LeasesHeld = len(w.leases)
		if !w.gone {
			row.HeartbeatAgeMS = now.Sub(w.lastSeen).Milliseconds()
		}
		out = append(out, row)
	}
	return out
}

func (c *Coordinator) liveWorkersLocked() int {
	n := 0
	for _, id := range c.workerOrder {
		if w := c.workers[id]; w != nil && !w.gone {
			n++
		}
	}
	return n
}

// popEligibleLocalLocked takes the first eligible pending point for a
// local (degraded-mode) run, leasing it to the pseudo-worker "(local)"
// so late remote results for the same point dedup normally.
func (c *Coordinator) popEligibleLocalLocked(now time.Time) *point {
	for i, k := range c.queue {
		p := c.points[k]
		if p.state != statePending || now.Before(p.eligible) {
			continue
		}
		c.queue = append(c.queue[:i], c.queue[i+1:]...)
		c.nextLease++
		l := &lease{id: c.nextLease, key: k, worker: "(local)", started: now}
		c.leases[l.id] = l
		p.state = stateLeased
		p.leases = append(p.leases, l.id)
		p.localLease = l.id
		return p
	}
	return nil
}

// runLocal executes one point in the coordinator process (no workers
// left) and feeds it through the normal completion path.
func (c *Coordinator) runLocal(p *point) {
	c.cfg.Obs.Leased("(local)", p.spec, "local")
	c.progressf("no live workers: running %s locally", p.spec.Name())
	started := c.now()
	res, resumed, err := c.cfg.Run(p.spec)
	m := Msg{Type: MsgResult, Lease: p.localLease, Resumed: resumed}
	if err != nil {
		m.Error = err.Error()
	} else {
		m.Result = res
		if !resumed {
			m.WallNS = int64(c.now().Sub(started))
		}
	}
	c.deliverResult("(local)", m)
}

// drain says goodbye to the fleet and stops accepting.
func (c *Coordinator) drain() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	var conns []Conn
	live := 0
	for _, id := range c.workerOrder {
		if w := c.workers[id]; w != nil && !w.gone {
			conns = append(conns, w.conn)
			live++
		}
	}
	l := c.listener
	c.mu.Unlock()
	for _, conn := range conns {
		conn.Send(Msg{Type: MsgDrain, Detail: "sweep complete"})
		conn.Close()
	}
	if l != nil {
		l.Close()
	}
	c.cfg.Obs.Drained(live)
	c.progressf("sweep complete; drained %d workers", live)
}
