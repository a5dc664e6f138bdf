// Package apps provides the common scaffolding for the paper's nine
// applications: typed arrays that couple real Go data with simulated
// shared-memory references, a workload registry, and problem-size
// classes. Each application package implements the real algorithm —
// the simulator consumes the resulting reference stream, so correctness
// of the computation is testable and the access patterns are authentic.
package apps

import (
	"fmt"

	"clustersim/internal/core"
)

// Size selects a problem-size class.
type Size int

const (
	// SizeTest is a tiny problem for unit tests.
	SizeTest Size = iota
	// SizeDefault is the scaled-down default used by the benchmark
	// harness; it preserves the paper's partitioning topology.
	SizeDefault
	// SizePaper is the paper's Table 2 problem size.
	SizePaper
)

// String names the size class.
func (s Size) String() string {
	switch s {
	case SizeTest:
		return "test"
	case SizeDefault:
		return "default"
	case SizePaper:
		return "paper"
	}
	return fmt.Sprintf("Size(%d)", int(s))
}

// ParseSize is the inverse of String: it maps a size name (test,
// default, paper) back to its class, for flags and wire specs.
func ParseSize(name string) (Size, error) {
	for _, s := range []Size{SizeTest, SizeDefault, SizePaper} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown problem size %q (want test, default or paper)", name)
}

// Runner describes one registered application.
type Runner struct {
	// Name is the paper's application name, lower case.
	Name string
	// Representative is the Table 2 "Representative Of" entry.
	Representative string
	// PaperProblem is the Table 2 problem-size description.
	PaperProblem string
	// Communication is the Table 3 major-communication-pattern entry.
	Communication string
	// WorkingSet is the Table 3 working-set description.
	WorkingSet string
	// Run builds a machine from cfg, runs the application at the given
	// size, verifies the computation, and returns the result.
	Run func(cfg core.Config, size Size) (*core.Result, error)
}

// --- typed simulated arrays -------------------------------------------

// F64 is a shared array of float64 backed by both real Go storage and a
// simulated address range.
type F64 struct {
	Base core.Addr
	Data []float64
}

// NewF64 allocates a shared float64 array.
func NewF64(m *core.Machine, n int, name string) *F64 {
	return &F64{Base: m.Alloc(uint64(n)*8, name), Data: make([]float64, n)}
}

// Addr returns the simulated address of element i.
func (a *F64) Addr(i int) core.Addr { return a.Base + uint64(i)*8 }

// Get loads element i through the simulator.
func (a *F64) Get(p *core.Proc, i int) float64 {
	p.Read(a.Addr(i))
	return a.Data[i]
}

// Set stores element i through the simulator.
func (a *F64) Set(p *core.Proc, i int, v float64) {
	p.Write(a.Addr(i))
	a.Data[i] = v
}

// Len returns the element count.
func (a *F64) Len() int { return len(a.Data) }

// I64 is a shared array of int64.
type I64 struct {
	Base core.Addr
	Data []int64
}

// NewI64 allocates a shared int64 array.
func NewI64(m *core.Machine, n int, name string) *I64 {
	return &I64{Base: m.Alloc(uint64(n)*8, name), Data: make([]int64, n)}
}

// Addr returns the simulated address of element i.
func (a *I64) Addr(i int) core.Addr { return a.Base + uint64(i)*8 }

// Get loads element i through the simulator.
func (a *I64) Get(p *core.Proc, i int) int64 {
	p.Read(a.Addr(i))
	return a.Data[i]
}

// Set stores element i through the simulator.
func (a *I64) Set(p *core.Proc, i int, v int64) {
	p.Write(a.Addr(i))
	a.Data[i] = v
}

// Len returns the element count.
func (a *I64) Len() int { return len(a.Data) }

// C128 is a shared array of complex128 (16 bytes per element).
type C128 struct {
	Base core.Addr
	Data []complex128
}

// NewC128 allocates a shared complex array.
func NewC128(m *core.Machine, n int, name string) *C128 {
	return &C128{Base: m.Alloc(uint64(n)*16, name), Data: make([]complex128, n)}
}

// Addr returns the simulated address of element i.
func (a *C128) Addr(i int) core.Addr { return a.Base + uint64(i)*16 }

// Get loads element i through the simulator.
func (a *C128) Get(p *core.Proc, i int) complex128 {
	p.Read(a.Addr(i))
	return a.Data[i]
}

// Set stores element i through the simulator.
func (a *C128) Set(p *core.Proc, i int, v complex128) {
	p.Write(a.Addr(i))
	a.Data[i] = v
}

// Len returns the element count.
func (a *C128) Len() int { return len(a.Data) }

// U8 is a shared array of bytes (volume data, images).
type U8 struct {
	Base core.Addr
	Data []uint8
}

// NewU8 allocates a shared byte array.
func NewU8(m *core.Machine, n int, name string) *U8 {
	return &U8{Base: m.Alloc(uint64(n), name), Data: make([]uint8, n)}
}

// Addr returns the simulated address of element i.
func (a *U8) Addr(i int) core.Addr { return a.Base + uint64(i) }

// Get loads element i through the simulator.
func (a *U8) Get(p *core.Proc, i int) uint8 {
	p.Read(a.Addr(i))
	return a.Data[i]
}

// Set stores element i through the simulator.
func (a *U8) Set(p *core.Proc, i int, v uint8) {
	p.Write(a.Addr(i))
	a.Data[i] = v
}

// Len returns the element count.
func (a *U8) Len() int { return len(a.Data) }

// Recs is a shared array of fixed-stride records (array-of-structs
// layout, as the SPLASH codes use for bodies, cells and particles).
type Recs struct {
	Base   core.Addr
	Stride uint64
	N      int
}

// NewRecs allocates n records of recBytes each.
func NewRecs(m *core.Machine, n int, recBytes uint64, name string) Recs {
	return Recs{Base: m.Alloc(uint64(n)*recBytes, name), Stride: recBytes, N: n}
}

// Addr returns the address of byte off within record i.
func (r Recs) Addr(i int, off uint64) core.Addr {
	return r.Base + uint64(i)*r.Stride + off
}

// Read loads the word at byte off of record i.
func (r Recs) Read(p *core.Proc, i int, off uint64) { p.Read(r.Addr(i, off)) }

// Write stores the word at byte off of record i.
func (r Recs) Write(p *core.Proc, i int, off uint64) { p.Write(r.Addr(i, off)) }

// Begin marks the start of the measured phase: all processors
// synchronise, processor 0 resets the machine's statistics and time
// origin, and all synchronise again before proceeding. Every application
// calls this between initialization and its parallel computation, in the
// SPLASH measurement style the paper follows.
func Begin(p *core.Proc, bar *core.Barrier) {
	bar.Wait(p)
	if p.ID() == 0 {
		p.Machine().BeginMeasurement(p)
	}
	bar.Wait(p)
}

// --- work partitioning helpers ----------------------------------------

// Chunk returns the half-open range [lo,hi) of n items owned by
// processor id out of procs, balanced to within one item.
func Chunk(n, id, procs int) (lo, hi int) {
	base := n / procs
	rem := n % procs
	lo = id*base + min(id, rem)
	hi = lo + base
	if id < rem {
		hi++
	}
	return lo, hi
}

// ProcGrid factors procs into pr×pc with pr ≤ pc and both as close to
// √procs as possible — the processor-grid shape used by LU and Ocean.
func ProcGrid(procs int) (pr, pc int) {
	pr = 1
	for d := 1; d*d <= procs; d++ {
		if procs%d == 0 {
			pr = d
		}
	}
	return pr, procs / pr
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Morton3 interleaves the low 10 bits of x, y, z into a 30-bit Morton
// (Z-order) key, used to give spatial locality to static body
// assignments in the N-body codes.
func Morton3(x, y, z uint32) uint32 {
	return spread3(x) | spread3(y)<<1 | spread3(z)<<2
}

func spread3(v uint32) uint32 {
	v &= 0x3ff
	v = (v | v<<16) & 0x30000ff
	v = (v | v<<8) & 0x300f00f
	v = (v | v<<4) & 0x30c30c3
	v = (v | v<<2) & 0x9249249
	return v
}
