// Package trace captures and replays simulated reference streams —
// the trace-driven counterpart to the library's execution-driven mode,
// mirroring Tango-lite's two operating modes. A Collector attached to a
// Machine records every reference, compute interval, synchronisation
// operation, explicit placement and the start of the measured phase;
// the trace can be serialised to a compact binary stream and replayed
// through a machine with a *different* configuration (cluster size,
// cache size, organisation). Replayed at the configuration it was
// recorded on, a trace reproduces the run exactly.
//
// The standard caveat of trace-driven simulation applies and is worth
// stating, because it is exactly why the paper's authors built an
// execution-driven simulator: a trace fixes the interleaving decisions
// (lock grant order, data-dependent control flow) that a real machine
// with different timing would change. Replay at another configuration
// is therefore a fast approximation, best used for cache-capacity
// questions rather than synchronisation studies.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"clustersim/internal/coherence"
	"clustersim/internal/core"
	"clustersim/internal/memory"
	"clustersim/internal/stats"
)

// EventKind classifies one traced event.
type EventKind uint8

const (
	// EvRead is a load; Arg is the address.
	EvRead EventKind = iota
	// EvWrite is a store; Arg is the address.
	EvWrite
	// EvCompute is local work; Arg is the cycle count.
	EvCompute
	// EvBarrier is a barrier arrival; Arg is the barrier's sync ID.
	EvBarrier
	// EvAcquire is a lock acquire; Arg is the lock's sync ID.
	EvAcquire
	// EvRelease is a lock release; Arg is the lock's sync ID.
	EvRelease
	// EvFlagSet raises a flag; Arg is the flag's sync ID.
	EvFlagSet
	// EvFlagWait waits on a flag; Arg is the flag's sync ID.
	EvFlagWait
	// EvBegin starts the measured phase (core.Machine.BeginMeasurement).
	EvBegin
)

// Event is one traced processor action.
type Event struct {
	Proc int32
	Kind EventKind
	Arg  uint64
}

// Region describes one allocation in the traced machine, so replay can
// rebuild an identical address layout (the allocator is a deterministic
// bump allocator: same sizes in the same order give the same bases).
type Region struct {
	Name string
	Size uint64
}

// Placement pins [Base, Base+Size) to the cluster of processor Proc,
// as core.Machine.Place does; replay applies placements in order after
// rebuilding the regions.
type Placement struct {
	Base uint64
	Size uint64
	Proc int32
}

// SyncDef describes one synchronisation object of the traced run.
type SyncDef struct {
	Kind         stats.SyncKind
	ID           int32
	Participants int32 // barrier width; 0 for locks and flags
}

// Trace is a complete recorded run.
type Trace struct {
	Procs      int
	Regions    []Region
	Placements []Placement
	Syncs      []SyncDef
	Events     []Event
}

// Collector implements core.Observer, accumulating a Trace in memory.
// Attach it as Config.Tracer.
type Collector struct {
	t  Trace
	as *memory.AddressSpace
}

// NewCollector creates a collector for a machine with procs processors.
func NewCollector(procs int) *Collector {
	return &Collector{t: Trace{Procs: procs}}
}

var _ core.Observer = (*Collector)(nil)

func (c *Collector) event(pe int, kind EventKind, arg uint64) {
	c.t.Events = append(c.t.Events, Event{Proc: int32(pe), Kind: kind, Arg: arg})
}

// Attach implements core.Observer; the address space's regions are
// recorded when the run ends.
func (c *Collector) Attach(as *memory.AddressSpace, _ coherence.MemoryModel, _ []stats.Proc) {
	c.as = as
}

// Place implements core.Observer.
func (c *Collector) Place(base memory.Addr, size uint64, pe int) {
	c.t.Placements = append(c.t.Placements, Placement{Base: base, Size: size, Proc: int32(pe)})
}

// Ref implements core.Observer.
func (c *Collector) Ref(pe, _ int, write bool, addr memory.Addr, _ core.Clock, _ coherence.Access, _ core.Clock) {
	kind := EvRead
	if write {
		kind = EvWrite
	}
	c.event(pe, kind, addr)
}

// Compute implements core.Observer.
func (c *Collector) Compute(pe int, _, cycles core.Clock) { c.event(pe, EvCompute, uint64(cycles)) }

// DefineSync implements core.Observer.
func (c *Collector) DefineSync(id int, kind stats.SyncKind, _ string, participants int) {
	c.t.Syncs = append(c.t.Syncs, SyncDef{Kind: kind, ID: int32(id), Participants: int32(participants)})
}

// syncEvents records a synchronisation operation by its object's kind
// and direction (entry, release) as the call replay repeats.
var syncEvents = [...][2]EventKind{
	stats.SyncBarrier: {EvBarrier, EvBarrier},
	stats.SyncLock:    {EvAcquire, EvRelease},
	stats.SyncFlag:    {EvFlagWait, EvFlagSet},
}

// Sync implements core.Observer.
func (c *Collector) Sync(pe, id int, release bool, _ core.Clock) {
	dir := 0
	if release {
		dir = 1
	}
	c.event(pe, syncEvents[c.t.Syncs[id].Kind][dir], uint64(id))
}

// Reset implements core.Observer: replay begins the measured phase at
// the same point of pe's stream.
func (c *Collector) Reset(pe int, _ core.Clock) { c.event(pe, EvBegin, 0) }

// End implements core.Observer by recording the allocations, in order,
// and letting go of the machine's address space.
func (c *Collector) End([]core.Clock) {
	for _, r := range c.as.Regions() {
		c.t.Regions = append(c.t.Regions, Region{Name: r.Name, Size: r.Size})
	}
	c.as = nil
}

// The waits and protocol events a trace would carry follow from
// replaying its operations; the collector ignores them.
func (c *Collector) SyncWait(int, int, core.Clock, core.Clock)     {}
func (c *Collector) Invalidated(uint64, int, int, int, core.Clock) {}
func (c *Collector) Evicted(uint64, int, core.Clock)               {}

// Finish returns the accumulated trace. Call after Run.
func (c *Collector) Finish() *Trace { return &c.t }

// magic heads every trace; its last byte is the format version.
// Version 2 added placements and the measured-phase event.
const magic = "CSTR\x02"

// Write serialises the trace in the package's compact binary format:
// the header, then the processor count, the regions (name length, name,
// size), and the placements, sync definitions and events as
// count-prefixed arrays of fixed-size little-endian records.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	var err error
	put := func(v any) {
		if err == nil {
			err = binary.Write(bw, binary.LittleEndian, v)
		}
	}
	put([]byte(magic))
	put(int32(t.Procs))
	put(int32(len(t.Regions)))
	for _, r := range t.Regions {
		put(int32(len(r.Name)))
		put([]byte(r.Name))
		put(r.Size)
	}
	put(int32(len(t.Placements)))
	put(t.Placements)
	put(int32(len(t.Syncs)))
	put(t.Syncs)
	put(int64(len(t.Events)))
	put(t.Events)
	if err != nil {
		return err
	}
	return bw.Flush()
}

// Read deserialises a trace written by Write. Traces of an older format
// version are refused: they lack the placement and measured-phase
// records an exact replay needs.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head[:4]) != magic[:4] {
		return nil, fmt.Errorf("trace: bad magic %q", head)
	}
	if head[4] != magic[4] {
		return nil, fmt.Errorf("trace: format version %d, want %d: re-record the trace", head[4], magic[4])
	}
	var err error
	get := func(v any) {
		if err == nil {
			err = binary.Read(br, binary.LittleEndian, v)
		}
	}
	// count reads a record count and bounds it, so a corrupt header
	// cannot demand an enormous allocation.
	count := func(what string, limit int64) int64 {
		var n int32
		get(&n)
		if err == nil && (n < 0 || int64(n) > limit) {
			err = fmt.Errorf("trace: implausible %s count %d", what, n)
		}
		if err != nil {
			return 0
		}
		return int64(n)
	}
	t := &Trace{}
	var procs int32
	get(&procs)
	t.Procs = int(procs)
	for i, n := int64(0), count("region", 1<<20); err == nil && i < n; i++ {
		name := make([]byte, count("name byte", 1<<16))
		var size uint64
		get(name)
		get(&size)
		t.Regions = append(t.Regions, Region{Name: string(name), Size: size})
	}
	t.Placements = make([]Placement, count("placement", 1<<24))
	get(t.Placements)
	t.Syncs = make([]SyncDef, count("sync", 1<<24))
	get(t.Syncs)
	var events int64
	get(&events)
	if err == nil && events < 0 {
		err = fmt.Errorf("trace: negative event count")
	}
	// Read events in bounded chunks for the same reason.
	for events > 0 && err == nil {
		chunk := make([]Event, min(events, 1<<16))
		get(chunk)
		t.Events = append(t.Events, chunk...)
		events -= int64(len(chunk))
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Replay runs the trace through a machine built from cfg (which must
// have the same processor count) and returns its result. Addresses are
// rebuilt by re-allocating the recorded regions in order; placements,
// sync objects and the measured phase are reapplied as recorded.
//
//simlint:allow readonly — Replay is not the observer: it builds and drives a machine of its own, as an application does
func Replay(cfg core.Config, t *Trace) (*core.Result, error) {
	if cfg.Procs != t.Procs {
		return nil, fmt.Errorf("trace: trace has %d processors, config %d", t.Procs, cfg.Procs)
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	// A recorded stream's addresses are fixed, so replay cannot race.
	m.DeclareRaceFree()
	for _, r := range t.Regions {
		m.Alloc(r.Size, r.Name)
	}
	for _, pl := range t.Placements {
		if pl.Proc < 0 || int(pl.Proc) >= t.Procs {
			return nil, fmt.Errorf("trace: placement for processor %d out of range", pl.Proc)
		}
		m.Place(pl.Base, pl.Size, int(pl.Proc))
	}
	barriers := map[int32]*core.Barrier{}
	locks := map[int32]*core.Lock{}
	flags := map[int32]*core.Flag{}
	for _, s := range t.Syncs {
		switch s.Kind {
		case stats.SyncBarrier:
			barriers[s.ID] = m.NewBarrierN(fmt.Sprintf("replay-barrier-%d", s.ID), int(s.Participants))
		case stats.SyncLock:
			locks[s.ID] = m.NewLock(fmt.Sprintf("replay-lock-%d", s.ID))
		case stats.SyncFlag:
			flags[s.ID] = m.NewFlag(fmt.Sprintf("replay-flag-%d", s.ID))
		}
	}
	// Split the global stream into per-processor programs.
	perProc := make([][]Event, t.Procs)
	for _, ev := range t.Events {
		if ev.Proc < 0 || int(ev.Proc) >= t.Procs {
			return nil, fmt.Errorf("trace: event for processor %d out of range", ev.Proc)
		}
		perProc[ev.Proc] = append(perProc[ev.Proc], ev)
	}
	var replayErr error
	res, err := m.Run(func(p *core.Proc) {
		for _, ev := range perProc[p.ID()] {
			switch ev.Kind {
			case EvRead:
				p.Read(ev.Arg)
			case EvWrite:
				p.Write(ev.Arg)
			case EvCompute:
				p.Compute(core.Clock(ev.Arg))
			case EvBarrier:
				barriers[int32(ev.Arg)].Wait(p)
			case EvAcquire:
				locks[int32(ev.Arg)].Acquire(p)
			case EvRelease:
				locks[int32(ev.Arg)].Release(p)
			case EvFlagSet:
				flags[int32(ev.Arg)].Set(p)
			case EvFlagWait:
				flags[int32(ev.Arg)].Wait(p)
			case EvBegin:
				m.BeginMeasurement(p)
			default:
				replayErr = fmt.Errorf("trace: unknown event kind %d", ev.Kind)
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if replayErr != nil {
		return nil, replayErr
	}
	return res, nil
}
