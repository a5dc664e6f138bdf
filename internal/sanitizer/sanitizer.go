// Package sanitizer is the simulator's config-gated runtime checker:
// with Config.Sanitize set, every coherence transaction is followed by a
// cross-validation of the directory's sharer bit-vector against the
// cache-line states of the line it touched (EXCLUSIVE entries have
// exactly one owner, SHARED copies are a subset of the sharer set,
// pending fills are judged by their fill state), and every reference's
// issue time is checked for virtual-time monotonicity — per processor
// always, and globally across the machine, which the token-passing
// engine guarantees at Quantum 0 (ties broken by processor ID). A full
// O(resident lines) audit additionally runs every AuditEvery
// transactions and once more when the run finishes. A happens-before
// race check (CheckRaces, which core arms) holds every access a
// race-free kernel issues ahead of simulated time to its promise: no
// conflicting access from another processor may be unordered with it
// by barriers, locks and flags.
//
// A violation is fatal by default: the checker panics with the failed
// invariant and a replayable dump of the last transactions (sequence
// number, processor, cluster, read/write, address, issue time, miss
// class) so the failure can be reproduced by replaying that reference
// stream against the memory model. Tests install an OnViolation handler
// to collect violations instead.
package sanitizer

import (
	"fmt"
	"slices"
	"strings"

	"clustersim/internal/coherence"
	"clustersim/internal/memory"
	"clustersim/internal/stats"
)

// Clock mirrors engine.Clock.
type Clock = int64

// DefaultAuditEvery is the default period, in transactions, of the full
// machine-wide invariant audit. The per-line spot check runs on every
// state-changing transaction regardless, so the full audit only guards
// against corruption in lines no transaction is touching; a sparse
// period keeps the protocol checks' overhead within a 2x budget (the
// race check costs about as much again; see the README).
const DefaultAuditEvery = 4096

// ringCap is the capacity of the replay ring: enough context to replay
// the window around a violation without measurably costing memory.
const ringCap = 256

// Event is one recorded memory transaction.
type Event struct {
	Seq     uint64
	Proc    int
	Cluster int
	Write   bool
	Addr    memory.Addr
	Time    Clock
	Class   coherence.Class
}

// String renders one replay line.
func (e Event) String() string {
	op := "R"
	if e.Write {
		op = "W"
	}
	return fmt.Sprintf("#%d t=%d p%d/c%d %s %#x -> %s",
		e.Seq, e.Time, e.Proc, e.Cluster, op, e.Addr, e.Class)
}

// Violation is one failed invariant with its replayable context.
type Violation struct {
	Err  error
	Dump []Event // oldest first, ending at the offending transaction
}

// Error implements error, with the full dump attached.
func (v Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sanitizer: %v\nreplay (last %d transactions):\n", v.Err, len(v.Dump))
	for _, e := range v.Dump {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	return b.String()
}

// Checker validates the memory system transaction by transaction. Not
// safe for concurrent use — the engine's token discipline already
// serialises all processors onto one goroutine at a time.
type Checker struct {
	// AuditEvery is the full-audit period in transactions;
	// DefaultAuditEvery unless overridden before the run.
	AuditEvery uint64
	// OnViolation, when set, receives each violation instead of the
	// default panic. The checker keeps running, so a test can count
	// violations across a whole run.
	OnViolation func(Violation)

	sys    coherence.MemoryModel
	global bool // enforce machine-wide monotonicity (valid at Quantum 0)

	lastPE     []Clock
	lastGlobal Clock
	ring       [ringCap]Event
	seq        uint64 // transactions seen; ring[(seq-1)%ringCap] is newest
	nviol      uint64
	race       *raceCheck // nil until CheckRaces
}

// New builds a checker over the given memory system. global asserts
// machine-wide (not just per-processor) issue-time monotonicity; core
// enables it always, since Config.Validate rejects Sanitize with a
// nonzero Quantum.
func New(sys coherence.MemoryModel, procs int, global bool) *Checker {
	return &Checker{
		AuditEvery: DefaultAuditEvery,
		sys:        sys,
		global:     global,
		lastPE:     make([]Clock, procs),
	}
}

// CheckRaces arms the happens-before race check; call it before the run.
// ahead reports whether a processor is issuing its references ahead of
// simulated time under a race-free promise: an unordered conflict
// involving such an access is a violation, while one between two
// inline accesses is allowed (see InlineRaces). The check follows the
// synchronisation events the checker observes, so a checker driven
// without them must leave it off.
func (c *Checker) CheckRaces(ahead func(proc int) bool) {
	c.race = newRaceCheck(len(c.lastPE), ahead)
}

// InlineRaces returns the number of unordered conflicting pairs of
// inline accesses the race check allowed: an undeclared machine's,
// those inside Proc.Racy, a replayed trace's.
func (c *Checker) InlineRaces() uint64 {
	if c.race == nil {
		return 0
	}
	return c.race.inline
}

// Violations returns the number of violations delivered so far (always
// zero under the default panic handler).
func (c *Checker) Violations() uint64 { return c.nviol }

// Transactions returns the number of transactions checked.
func (c *Checker) Transactions() uint64 { return c.seq }

// Dump returns the replay ring, oldest first.
func (c *Checker) Dump() []Event {
	n := c.seq
	if n > ringCap {
		n = ringCap
	}
	out := make([]Event, 0, n)
	for i := c.seq - n; i < c.seq; i++ {
		out = append(out, c.ring[i%ringCap])
	}
	return out
}

func (c *Checker) violate(err error) {
	v := Violation{Err: err, Dump: c.Dump()}
	if c.OnViolation == nil {
		panic(v.Error())
	}
	c.nviol++
	c.OnViolation(v)
}

// Ref implements core.Observer, recording and validating one memory
// transaction: monotonicity of the issue time, the touched line's
// directory/cache agreement when the transaction changed protocol
// state, and periodically the whole machine.
func (c *Checker) Ref(proc, cluster int, write bool, addr memory.Addr, now Clock, acc coherence.Access, _ Clock) {
	c.ring[c.seq%ringCap] = Event{
		Seq: c.seq, Proc: proc, Cluster: cluster,
		Write: write, Addr: addr, Time: now, Class: acc.Class,
	}
	c.seq++

	if now < c.lastPE[proc] {
		c.violate(fmt.Errorf("virtual time ran backwards on processor %d: %d after %d",
			proc, now, c.lastPE[proc]))
	}
	c.lastPE[proc] = now
	if c.global {
		if now < c.lastGlobal {
			c.violate(fmt.Errorf("global virtual time ran backwards: %d after %d (processor %d)",
				now, c.lastGlobal, proc))
		}
		c.lastGlobal = now
	}

	// Hits and merges change no protocol state; spot-check only the
	// transactions that moved directory or cache state.
	switch acc.Class {
	case coherence.ReadMiss, coherence.WriteMiss, coherence.Upgrade:
		if err := c.sys.CheckLine(addr, now); err != nil {
			c.violate(err)
		}
	}
	if c.AuditEvery > 0 && c.seq%c.AuditEvery == 0 {
		if err := c.sys.CheckInvariants(now); err != nil {
			c.violate(err)
		}
	}
	if c.race != nil {
		if err := c.race.ref(proc, write, addr, now); err != nil {
			c.violate(err)
		}
	}
}

// Final runs the end-of-run full audit at the machine's final time.
func (c *Checker) Final(now Clock) {
	if err := c.sys.CheckInvariants(now); err != nil {
		c.violate(err)
	}
}

// End implements core.Observer with the final audit.
func (c *Checker) End(clocks []Clock) { c.Final(slices.Max(clocks)) }

// Attach implements core.Observer: the race check names regions from
// the address space.
func (c *Checker) Attach(as *memory.AddressSpace, _ coherence.MemoryModel, _ []stats.Proc) {
	if c.race != nil {
		c.race.as = as
	}
}

// DefineSync, Sync and SyncWait implement core.Observer: they carry the
// happens-before edges of the race check.
func (c *Checker) DefineSync(id int, kind stats.SyncKind, _ string, _ int) {
	if c.race != nil {
		c.race.defineSync(id, kind)
	}
}

func (c *Checker) Sync(pe, id int, release bool, _ Clock) {
	if c.race != nil {
		c.race.sync(pe, id, release)
	}
}

func (c *Checker) SyncWait(pe, id int, _, _ Clock) {
	if c.race != nil {
		c.race.syncWait(pe, id)
	}
}

// The checker ignores the other core.Observer events.
func (c *Checker) Place(memory.Addr, uint64, int)           {}
func (c *Checker) Compute(int, Clock, Clock)                {}
func (c *Checker) Invalidated(uint64, int, int, int, Clock) {}
func (c *Checker) Evicted(uint64, int, Clock)               {}
func (c *Checker) Reset(int, Clock)                         {}
