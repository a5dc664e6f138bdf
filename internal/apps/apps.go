// Package apps provides the common scaffolding for the paper's nine
// applications: a generic shared array that couples real Go data with
// simulated shared-memory references, the task queues and tiled image
// the graphics codes render through, a workload registry, and
// problem-size classes. Each application package implements the real
// algorithm — the simulator consumes the resulting reference stream, so
// correctness of the computation is testable and the access patterns
// are authentic.
package apps

import (
	"fmt"
	"unsafe"

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

// --- shared arrays ----------------------------------------------------

// Array is a shared array of T backed by both real Go storage and a
// simulated address range, one element every unsafe.Sizeof(T) bytes.
// The size is computed, not stored: it is a constant in each
// instantiation, so an index is scaled by a shift, where a size field
// would cost a multiply on every reference.
type Array[T any] struct {
	Base core.Addr
	Data []T
}

// NewArray allocates a shared array of n elements.
func NewArray[T any](m *core.Machine, n int, name string) *Array[T] {
	a := &Array[T]{Data: make([]T, n)}
	a.Base = m.Alloc(uint64(n)*uint64(unsafe.Sizeof(a.Data[0])), name)
	return a
}

// Addr returns the simulated address of element i.
func (a *Array[T]) Addr(i int) core.Addr {
	return a.Base + uint64(i)*uint64(unsafe.Sizeof(a.Data[0]))
}

// Get loads element i through the simulator. Get and Set spell out
// Addr's expression: calling Addr would put them at the inliner's
// budget.
func (a *Array[T]) Get(p *core.Proc, i int) T {
	p.Read(a.Base + uint64(i)*uint64(unsafe.Sizeof(a.Data[0])))
	return a.Data[i]
}

// Set stores element i through the simulator.
func (a *Array[T]) Set(p *core.Proc, i int, v T) {
	p.Write(a.Base + uint64(i)*uint64(unsafe.Sizeof(a.Data[0])))
	a.Data[i] = v
}

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
