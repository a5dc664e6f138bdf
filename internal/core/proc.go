package core

import (
	"clustersim/internal/coherence"
	"clustersim/internal/engine"
	"clustersim/internal/stats"
)

// Proc is one simulated processor, passed to the application kernel,
// which runs as the processor's engine coroutine. All methods must be
// called from that kernel.
//
// Each of Read, Write and Compute has an issue half (the method) and a
// perform half (read, write, compute): the memory-system call, the
// statistics, the stall accounting and the observer event. On an
// undeclared machine the issue half waits its turn in virtual-time
// order (engine.PE.Yield) and performs inline. On a machine declared
// race-free (Machine.DeclareRaceFree: outside the intervals a kernel
// runs inside Racy, no processor's addresses or control flow depend on
// data that another processor writes between two synchronisation
// operations) it only appends the event to a buffer of runAheadOps
// entries, so the kernel runs ahead of simulated time until the buffer
// fills or it reaches a synchronisation operation; the engine's
// dispatch loop then performs the buffered events (Machine.step) in the
// order and at the virtual times an undeclared machine would. A Compute
// issued into an empty buffer performs inline: nothing is pending ahead
// of it. Synchronisation operations, BeginMeasurement, Now, Stats, Racy
// and the kernel's return first wait for the buffer to drain.
type Proc struct {
	pe      *engine.PE
	m       *Machine
	cluster int
	stats   *stats.Proc // the machine's record for this processor

	// buf holds the events issued but not yet performed, from index
	// next on; it is nil on an undeclared machine and inside Racy.
	buf  []op
	next int
}

// runAheadOps is the capacity of a race-free processor's buffer. Run
// ahead buys one coroutine resume per buffer instead of one per
// reference, so any capacity well above one gives most of the gain;
// 256 entries cost 4 KB per processor.
const runAheadOps = 256

// op is one buffered event: a load or store of the address arg, or arg
// cycles of local work.
type op struct {
	kind opKind
	arg  uint64
}

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opCompute
)

// ID returns the processor number in [0, NumProcs).
func (p *Proc) ID() int { return p.pe.ID() }

// NumProcs returns the machine's processor count.
func (p *Proc) NumProcs() int { return p.m.cfg.Procs }

// Cluster returns the processor's cluster number.
func (p *Proc) Cluster() int { return p.cluster }

// Now returns the processor's virtual clock, after every event it
// issued has been performed.
func (p *Proc) Now() Clock {
	p.drain()
	return p.pe.Now()
}

// Machine returns the owning machine.
func (p *Proc) Machine() *Machine { return p.m }

// Compute models cycles of processor-local work (register arithmetic,
// private-stack traffic) between shared-memory references.
func (p *Proc) Compute(cycles Clock) {
	if len(p.buf) > 0 {
		p.issue(opCompute, uint64(cycles))
		return
	}
	p.compute(cycles)
}

// Read issues a load of the word at addr. The issue costs one cycle of
// CPU time; a miss stalls the processor for the Table 1 latency, and a
// read that merges into an outstanding fill stalls until the data
// arrives, accounted separately as in the paper.
func (p *Proc) Read(addr Addr) {
	if p.buf != nil {
		p.issue(opRead, addr)
		return
	}
	p.pe.Yield()
	p.read(addr)
}

// Write issues a store to addr. Stores never stall: the paper assumes
// write and upgrade latency is completely hidden by store buffers and a
// relaxed consistency model.
func (p *Proc) Write(addr Addr) {
	if p.buf != nil {
		p.issue(opWrite, addr)
		return
	}
	p.pe.Yield()
	p.write(addr)
}

// Racy runs fn as a racy interval: one whose addresses or control flow
// depend on data other processors write, such as a descent through a
// tree they are building or a scan of their work queues. On a machine
// declared race-free, p's buffered events are performed first; fn then
// runs with every reference, compute and synchronisation operation
// performed inline, each reference after Yield, exactly as on an
// undeclared machine; afterwards p runs ahead again. On an undeclared
// machine, and inside another Racy, it just calls fn.
func (p *Proc) Racy(fn func()) {
	buf := p.buf
	if buf == nil {
		fn()
		return
	}
	p.drain()
	p.buf = nil
	fn()
	p.buf = buf[:0]
}

// issue buffers one event and, once the buffer is full, waits for the
// dispatch loop to perform all of it. Every append passes this check,
// so a buffer never holds more than runAheadOps events.
func (p *Proc) issue(kind opKind, arg uint64) {
	p.buf = append(p.buf, op{kind, arg})
	if len(p.buf) == runAheadOps {
		p.pe.Await()
	}
}

// drain waits until the dispatch loop has performed every event p
// issued, so its clock and statistics are current.
func (p *Proc) drain() {
	if len(p.buf) > 0 {
		p.pe.Await()
	}
}

// syncPoint readies p for a synchronisation operation: its buffered
// events are performed, then it waits its turn in virtual-time order
// like every shared event.
func (p *Proc) syncPoint() {
	p.drain()
	p.pe.Yield()
}

// step performs the next buffered reference of the processor the
// dispatch loop hands it, and the computes issued right after that
// reference, and reports whether more remain (engine.Scheduler.SetStep).
// A buffer never starts with a compute: one issued into an empty buffer
// performs inline.
func (m *Machine) step(pe *engine.PE) bool {
	p := m.procs[pe.ID()]
	if o := p.buf[p.next]; o.kind == opRead {
		p.read(o.arg)
	} else {
		p.write(o.arg)
	}
	for p.next++; p.next < len(p.buf) && p.buf[p.next].kind == opCompute; p.next++ {
		p.compute(Clock(p.buf[p.next].arg))
	}
	if p.next < len(p.buf) {
		return true
	}
	p.buf, p.next = p.buf[:0], 0
	return false
}

// compute performs cycles of local work.
func (p *Proc) compute(cycles Clock) {
	start := p.pe.Now()
	p.pe.Advance(cycles)
	p.stats.CPU += cycles
	if p.m.obs != nil {
		p.m.obs.Compute(p.ID(), start, cycles)
	}
}

// read performs a load at the processor's current virtual time.
func (p *Proc) read(addr Addr) {
	issue := p.pe.Now()
	acc := p.m.sys.Read(p.ID(), p.cluster, addr, issue)
	p.stats.CountRead(acc)
	p.pe.Advance(1 + acc.Stall)
	p.stats.CPU++
	if acc.Class == coherence.MergeMiss {
		p.stats.MergeStall += acc.Stall
	} else {
		p.stats.LoadStall += acc.Stall
	}
	if p.m.obs != nil {
		p.m.obs.Ref(p.ID(), p.cluster, false, addr, issue, acc, acc.Stall)
	}
}

// write performs a store at the processor's current virtual time.
func (p *Proc) write(addr Addr) {
	issue := p.pe.Now()
	acc := p.m.sys.Write(p.ID(), p.cluster, addr, issue)
	p.stats.CountWrite(acc)
	var stall Clock
	if p.m.cfg.BlockingWrites {
		stall = acc.Stall
	}
	p.pe.Advance(1 + stall)
	p.stats.CPU++
	p.stats.LoadStall += stall
	if p.m.obs != nil {
		p.m.obs.Ref(p.ID(), p.cluster, true, addr, issue, acc, stall)
	}
}

// ReadRange issues sequential loads covering [addr, addr+bytes), one per
// cache line — convenient for block copies and scans.
func (p *Proc) ReadRange(addr Addr, bytes uint64) {
	line := p.m.cfg.LineBytes
	for a := addr; a < addr+bytes; a += line {
		p.Read(a)
	}
}

// WriteRange issues sequential stores covering [addr, addr+bytes), one
// per cache line.
func (p *Proc) WriteRange(addr Addr, bytes uint64) {
	line := p.m.cfg.LineBytes
	for a := addr; a < addr+bytes; a += line {
		p.Write(a)
	}
}

// Stats returns a copy of the processor's accumulated statistics, after
// every event it issued has been performed.
func (p *Proc) Stats() stats.Proc {
	p.drain()
	return *p.stats
}
