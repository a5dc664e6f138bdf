package core

import (
	"clustersim/internal/coherence"
	"clustersim/internal/engine"
	"clustersim/internal/stats"
)

// Proc is one simulated processor, passed to the application kernel. All
// methods must be called from the kernel goroutine.
type Proc struct {
	pe      *engine.PE
	m       *Machine
	cluster int
	stats   *stats.Proc // the machine's record for this processor
}

// ID returns the processor number in [0, NumProcs).
func (p *Proc) ID() int { return p.pe.ID() }

// NumProcs returns the machine's processor count.
func (p *Proc) NumProcs() int { return p.m.cfg.Procs }

// Cluster returns the processor's cluster number.
func (p *Proc) Cluster() int { return p.cluster }

// Now returns the processor's virtual clock.
func (p *Proc) Now() Clock { return p.pe.Now() }

// Machine returns the owning machine.
func (p *Proc) Machine() *Machine { return p.m }

// Compute models cycles of processor-local work (register arithmetic,
// private-stack traffic) between shared-memory references.
func (p *Proc) Compute(cycles Clock) {
	start := p.pe.Now()
	p.pe.Advance(cycles)
	p.stats.CPU += cycles
	if p.m.obs != nil {
		p.m.obs.Compute(p.ID(), start, cycles)
	}
}

// Read issues a load of the word at addr. The issue costs one cycle of
// CPU time; a miss stalls the processor for the Table 1 latency, and a
// read that merges into an outstanding fill stalls until the data
// arrives, accounted separately as in the paper.
func (p *Proc) Read(addr Addr) {
	p.pe.Yield()
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

// Write issues a store to addr. Stores never stall: the paper assumes
// write and upgrade latency is completely hidden by store buffers and a
// relaxed consistency model.
func (p *Proc) Write(addr Addr) {
	p.pe.Yield()
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

// Stats returns a copy of the processor's accumulated statistics.
func (p *Proc) Stats() stats.Proc { return *p.stats }
