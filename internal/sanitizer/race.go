package sanitizer

import (
	"fmt"

	"clustersim/internal/memory"
	"clustersim/internal/stats"
)

// raceCheck is the happens-before race check behind CheckRaces. Every
// processor keeps a vector clock, joined along the edges the
// synchronisation events report: a barrier releases the join of its
// arrivals, a lock passes its releaser's clock to its next holder, and
// a flag passes its setter's clock to every waiter. A processor's own
// component (its epoch) advances at each release it performs, so an
// access is stamped with its processor and epoch, and access a happens
// before processor q's next access iff a's epoch is at most q's clock
// entry for a's processor.
//
// For each simulated address, at its exact byte (Volrend stores single
// voxel bytes), the check keeps the last write and the reads since it.
// Two accesses from different processors, at least one a write, not
// ordered by happens-before, conflict. A conflict is a violation when
// either access was issued ahead of simulated time under the race-free
// promise; a conflict between two inline accesses (an undeclared
// machine, an interval run inside Proc.Racy, a replayed trace) is
// allowed and only counted.
type raceCheck struct {
	ahead  func(proc int) bool
	as     *memory.AddressSpace
	clocks [][]uint32       // per processor
	kinds  []stats.SyncKind // per sync object
	syncs  [][]uint32       // per sync object: the clock an acquirer joins
	hist   map[memory.Addr]*history
	inline uint64 // allowed conflicts between inline accesses
}

// access stamps one reference for the race check.
type access struct {
	time  Clock
	epoch uint32
	proc  int32 // -1 for no access
	write bool
	ahead bool
}

// history is one address's accesses that a later one may conflict with:
// the last write, and the reads since it, the latest per processor and
// issue mode (a processor's earlier reads happen before its later
// ones, so the latest is the one least likely to be ordered).
type history struct {
	write access
	reads []access
}

func newRaceCheck(procs int, ahead func(int) bool) *raceCheck {
	r := &raceCheck{
		ahead:  ahead,
		clocks: make([][]uint32, procs),
		hist:   make(map[memory.Addr]*history),
	}
	for p := range r.clocks {
		r.clocks[p] = make([]uint32, procs)
		r.clocks[p][p] = 1 // epoch 0 would be ordered before every access
	}
	return r
}

// defineSync records a synchronisation object's kind, by ID.
func (r *raceCheck) defineSync(id int, kind stats.SyncKind) {
	for len(r.kinds) <= id {
		r.kinds = append(r.kinds, 0)
		r.syncs = append(r.syncs, nil)
	}
	r.kinds[id] = kind
}

// sync applies one synchronisation operation. A barrier arrival, a lock
// release and a flag set publish the processor's clock into the object
// and open its next epoch; a lock acquire and a flag wait join what the
// object holds (the last release, the set), which covers an acquire
// that did not wait and a wait on a flag already set.
func (r *raceCheck) sync(pe, id int, release bool) {
	if release || r.kinds[id] == stats.SyncBarrier {
		r.syncs[id] = join(r.syncs[id], r.clocks[pe])
		r.clocks[pe][pe]++
		return
	}
	join(r.clocks[pe], r.syncs[id])
}

// syncWait ends a wait: pe joins the object's clock (the barrier's
// arrivals, the lock's releaser, the flag's setter).
func (r *raceCheck) syncWait(pe, id int) { join(r.clocks[pe], r.syncs[id]) }

// join folds src into dst, allocating dst on first use, and returns it.
func join(dst, src []uint32) []uint32 {
	if dst == nil {
		dst = make([]uint32, len(src))
	}
	for i, v := range src {
		dst[i] = max(dst[i], v)
	}
	return dst
}

// ref checks one access against the address's history and records it,
// returning the first violating conflict it finds.
func (r *raceCheck) ref(proc int, write bool, addr memory.Addr, now Clock) error {
	h := r.hist[addr]
	if h == nil {
		h = &history{write: access{proc: -1}}
		r.hist[addr] = h
	}
	clock := r.clocks[proc]
	cur := access{time: now, epoch: clock[proc], proc: int32(proc), write: write, ahead: r.ahead(proc)}
	var err error
	check := func(prev access) {
		if prev.proc < 0 || int(prev.proc) == proc || prev.epoch <= clock[prev.proc] {
			return
		}
		if !prev.ahead && !cur.ahead {
			r.inline++
		} else if err == nil {
			err = r.conflict(addr, prev, cur)
		}
	}
	check(h.write)
	if write {
		for _, rd := range h.reads {
			check(rd)
		}
		h.write, h.reads = cur, h.reads[:0]
		return err
	}
	for i, rd := range h.reads {
		if int(rd.proc) == proc && rd.ahead == cur.ahead {
			h.reads[i] = cur
			return err
		}
	}
	h.reads = append(h.reads, cur)
	return err
}

// conflict describes a violating pair: both processors and virtual
// times, the address and its region.
func (r *raceCheck) conflict(addr memory.Addr, prev, cur access) error {
	region := "unnamed"
	if r.as != nil {
		if name := r.as.NameOf(addr); name != "" {
			region = name
		}
	}
	return fmt.Errorf("data race on %#x (region %q): P%d's %s at virtual time %d and P%d's %s at virtual time %d "+
		"are not ordered by a barrier, lock or flag; an access issued ahead must be race-free "+
		"(Machine.DeclareRaceFree), so run racy code inside Proc.Racy",
		addr, region, prev.proc, prev.describe(), prev.time, cur.proc, cur.describe(), cur.time)
}

func (a access) describe() string {
	op := "read"
	if a.write {
		op = "write"
	}
	if a.ahead {
		return op + " (issued ahead)"
	}
	return op + " (inline)"
}
