package core

import (
	"fmt"

	"clustersim/internal/stats"
)

// waiter records a parked processor and its arrival time, for
// synchronisation wait accounting.
type waiter struct {
	p       *Proc
	arrival Clock
}

// defineSync hands out the identity of a new barrier, lock or flag and
// announces the object to the observers.
func (m *Machine) defineSync(kind stats.SyncKind, participants int, name string) int {
	id := m.syncIDs
	if prev, dup := m.syncNames[name]; dup {
		panic(fmt.Sprintf("core: sync object %q registered twice (sync IDs %d and %d); "+
			"give every barrier, lock and flag a distinct name", name, prev, id))
	}
	m.syncIDs++
	if m.syncNames == nil {
		m.syncNames = make(map[string]int)
	}
	m.syncNames[name] = id
	if m.obs != nil {
		m.obs.DefineSync(id, kind, name, participants)
	}
	return id
}

// Barrier synchronises a fixed set of processors. Every participant's
// wait between its arrival and the last arrival is charged to its
// synchronisation time, as in the paper's breakdowns.
type Barrier struct {
	name    string
	id      int
	m       *Machine
	need    int
	waiting []waiter
}

// NewBarrier creates a barrier over all processors of the machine.
func (m *Machine) NewBarrier() *Barrier { return m.NewBarrierN("barrier", m.cfg.Procs) }

// NewBarrierN creates a named barrier over n participants.
func (m *Machine) NewBarrierN(name string, n int) *Barrier {
	if n <= 0 || n > m.cfg.Procs {
		panic(fmt.Sprintf("core: barrier over %d of %d processors", n, m.cfg.Procs))
	}
	return &Barrier{name: name, id: m.defineSync(stats.SyncBarrier, n, name), m: m, need: n}
}

// String describes the barrier for deadlock reports.
func (b *Barrier) String() string {
	return fmt.Sprintf("%s (%d/%d arrived)", b.name, len(b.waiting), b.need)
}

// Wait blocks p until all participants have arrived. All participants
// resume at the virtual time of the last arrival.
func (b *Barrier) Wait(p *Proc) {
	p.syncPoint()
	arrival := p.pe.Now()
	obs := b.m.obs
	if obs != nil {
		obs.Sync(p.ID(), b.id, false, arrival)
	}
	if len(b.waiting) < b.need-1 {
		b.waiting = append(b.waiting, waiter{p, arrival})
		p.pe.Block(b)
		return
	}
	// Last arrival: release everyone at the max arrival time.
	release := arrival
	for _, w := range b.waiting {
		release = max(release, w.arrival)
	}
	for _, w := range b.waiting {
		w.p.stats.SyncWait += release - w.arrival
		p.pe.Unblock(w.p.pe, release)
	}
	p.stats.SyncWait += release - arrival
	// Every wait is charged before any is reported, so while observers
	// hear of them each participant's statistics total release -
	// origin: the tiling the critical-path analyzer's phases rest on.
	if obs != nil {
		for _, w := range b.waiting {
			obs.SyncWait(w.p.ID(), b.id, w.arrival, release)
		}
		obs.SyncWait(p.ID(), b.id, arrival, release)
	}
	b.waiting = b.waiting[:0]
	p.pe.SetTime(release)
}

// Lock is a FIFO queueing mutex. Waiting time is charged to
// synchronisation time.
type Lock struct {
	name   string
	id     int
	m      *Machine
	holder *Proc
	queue  []waiter
}

// NewLock creates a named lock.
func (m *Machine) NewLock(name string) *Lock {
	return &Lock{name: name, id: m.defineSync(stats.SyncLock, 0, name), m: m}
}

// String describes the lock for deadlock reports.
func (l *Lock) String() string {
	return fmt.Sprintf("lock %s (held by P%v)", l.name, holderID(l.holder))
}

// Acquire takes the lock, blocking while another processor holds it.
func (l *Lock) Acquire(p *Proc) {
	p.syncPoint()
	if l.m.obs != nil {
		l.m.obs.Sync(p.ID(), l.id, false, p.pe.Now())
	}
	if l.holder == nil {
		l.holder = p
		return
	}
	l.queue = append(l.queue, waiter{p, p.pe.Now()})
	p.pe.Block(l)
}

// Release hands the lock to the longest-waiting processor, if any.
func (l *Lock) Release(p *Proc) {
	if l.holder != p {
		panic(fmt.Sprintf("core: P%d released lock %s held by %v", p.ID(), l.name, holderID(l.holder)))
	}
	p.syncPoint()
	now := p.pe.Now()
	obs := l.m.obs
	if obs != nil {
		obs.Sync(p.ID(), l.id, true, now)
	}
	if len(l.queue) == 0 {
		l.holder = nil
		return
	}
	w := l.queue[0]
	l.queue = l.queue[1:]
	release := max(now, w.arrival)
	w.p.stats.SyncWait += release - w.arrival
	if obs != nil {
		obs.SyncWait(w.p.ID(), l.id, w.arrival, release)
	}
	l.holder = w.p
	p.pe.Unblock(w.p.pe, release)
}

func holderID(p *Proc) interface{} {
	if p == nil {
		return "nobody"
	}
	return p.ID()
}

// Flag is a one-shot condition: waiters block until some processor sets
// it; waits after Set return immediately.
type Flag struct {
	name    string
	id      int
	m       *Machine
	set     bool
	waiting []waiter
}

// NewFlag creates a named, initially clear flag.
func (m *Machine) NewFlag(name string) *Flag {
	return &Flag{name: name, id: m.defineSync(stats.SyncFlag, 0, name), m: m}
}

// String describes the flag for deadlock reports.
func (f *Flag) String() string { return "flag " + f.name }

// Set raises the flag, releasing all current waiters at the setter's time.
func (f *Flag) Set(p *Proc) {
	p.syncPoint()
	now := p.pe.Now()
	obs := f.m.obs
	if obs != nil {
		obs.Sync(p.ID(), f.id, true, now)
	}
	f.set = true
	for _, w := range f.waiting {
		release := max(now, w.arrival)
		w.p.stats.SyncWait += release - w.arrival
		if obs != nil {
			obs.SyncWait(w.p.ID(), f.id, w.arrival, release)
		}
		p.pe.Unblock(w.p.pe, release)
	}
	f.waiting = nil
}

// Wait blocks p until the flag is set.
func (f *Flag) Wait(p *Proc) {
	p.syncPoint()
	if f.m.obs != nil {
		f.m.obs.Sync(p.ID(), f.id, false, p.pe.Now())
	}
	if f.set {
		return
	}
	f.waiting = append(f.waiting, waiter{p, p.pe.Now()})
	p.pe.Block(f)
}
