// Package coherence implements the invalidation-based, directory-backed
// cache-coherence protocol of the simulated machine, with the memory-
// operation latencies of the paper's Table 1.
//
// Misses are classified as in the paper: READ misses stall the processor
// for the full fetch latency; WRITE misses and UPGRADE misses are assumed
// completely hidden by store buffers and a relaxed consistency model, so
// they cost no stall; a READ to a line that is still pending from an
// outstanding READ or WRITE miss is a MERGE miss that blocks until the
// data returns. Invalidations are instantaneous and may invalidate
// pending lines.
//
// The paper's two cluster organisations differ only inside a cluster:
// System shares one cache per cluster, MemClusterSystem puts private
// caches on a snoopy bus to an attraction memory. Between clusters both
// run the same directory protocol, which each embeds (protocol.go).
package coherence

import (
	"fmt"

	"clustersim/internal/cache"
	"clustersim/internal/directory"
	"clustersim/internal/memory"
)

// Clock mirrors engine.Clock.
type Clock = int64

// Latencies gives the fetch latency of each miss category, in cycles
// (paper Table 1). Cache hits cost one cycle in the event-driven core;
// the extra hit time of a shared cache is applied analytically by the
// contention package.
type Latencies struct {
	LocalClean  Clock // miss to local home, satisfied by home (dir SHARED or NOT_CACHED)
	LocalDirty  Clock // miss to local home, line dirty in a remote cluster
	RemoteClean Clock // miss to remote home, satisfied by the home
	RemoteDirty Clock // miss to remote home, line dirty in a third cluster (3 hops)
}

// DefaultLatencies returns the paper's Table 1 values: 30/100/100/150.
func DefaultLatencies() Latencies {
	return Latencies{LocalClean: 30, LocalDirty: 100, RemoteClean: 100, RemoteDirty: 150}
}

// SharedCacheHitCycles returns the Table 1 hit time of a shared first-
// level cache for the given cluster size: 1 cycle unclustered, 2 cycles
// for 2-processor clusters, 3 cycles for 4- and 8-processor clusters.
func SharedCacheHitCycles(clusterSize int) Clock {
	switch {
	case clusterSize <= 1:
		return 1
	case clusterSize == 2:
		return 2
	default:
		return 3
	}
}

// Class classifies one memory access.
type Class uint8

const (
	Hit        Class = iota // found settled in the cluster cache
	ReadMiss                // read fetch; processor stalls
	WriteMiss               // write fetch; latency hidden
	Upgrade                 // write found line SHARED; ownership only
	MergeMiss               // read found line pending; stalls until fill returns
	WriteMerge              // write found a pending write fill; folded in
)

// String names the miss class as in the paper.
func (c Class) String() string {
	switch c {
	case Hit:
		return "HIT"
	case ReadMiss:
		return "READ"
	case WriteMiss:
		return "WRITE"
	case Upgrade:
		return "UPGRADE"
	case MergeMiss:
		return "MERGE"
	case WriteMerge:
		return "WRITE_MERGE"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Hops classifies where a miss was satisfied, for latency and profiling.
type Hops uint8

const (
	HopNone         Hops = iota
	HopLocalClean        // local home, clean: 30 cycles
	HopLocalDirty        // local home, dirty remote: 100 cycles
	HopRemoteClean       // remote home, clean (or dirty at the home itself): 100 cycles
	HopRemoteDirty       // remote home, dirty third party: 150 cycles
	HopIntraCluster      // satisfied inside the cluster over the snoopy bus (shared-memory clusters)
)

// String names the service location.
func (h Hops) String() string {
	switch h {
	case HopNone:
		return "none"
	case HopLocalClean:
		return "local-clean"
	case HopLocalDirty:
		return "local-dirty"
	case HopRemoteClean:
		return "remote-clean"
	case HopRemoteDirty:
		return "remote-dirty"
	case HopIntraCluster:
		return "intra-cluster"
	}
	return fmt.Sprintf("Hops(%d)", uint8(h))
}

func (l Latencies) of(h Hops) Clock {
	switch h {
	case HopLocalClean:
		return l.LocalClean
	case HopLocalDirty:
		return l.LocalDirty
	case HopRemoteClean:
		return l.RemoteClean
	case HopRemoteDirty:
		return l.RemoteDirty
	}
	return 0
}

// Access is the outcome of one memory reference.
type Access struct {
	Class Class
	Hops  Hops
	Stall Clock // read stall beyond the issue cycle; 0 for hits and writes
}

// MemoryModel is the interface between the processors and a memory
// system organisation. Two implementations exist: System (the paper's
// shared-cache clusters) and MemClusterSystem (Section 2's shared-main-
// memory clusters with per-processor caches on a snoopy bus).
type MemoryModel interface {
	// Read simulates a load by processor proc (in cluster) at time now.
	Read(proc, cluster int, addr memory.Addr, now Clock) Access
	// Write simulates a store by processor proc at time now.
	Write(proc, cluster int, addr memory.Addr, now Clock) Access
	// ClusterStats returns one cluster's protocol counters.
	ClusterStats(cluster int) Stats
	// ResetStats zeroes the protocol counters.
	ResetStats()
	// CheckInvariants audits internal consistency at time now.
	CheckInvariants(now Clock) error
	// CheckLine audits the consistency of the single line containing
	// addr at time now — the sanitizer's per-transaction spot check,
	// O(clusters) rather than O(resident lines).
	CheckLine(addr memory.Addr, now Clock) error
	// LineBytes returns the coherence granularity.
	LineBytes() uint64
	// SetObserver attaches a protocol-event observer (nil detaches).
	SetObserver(o Observer)
}

// Observer receives protocol events the Access result cannot carry —
// which cluster lost which line, and why. The sharing profiler
// (internal/profile) is the one implementation. Observers must not
// mutate the memory system; calls arrive in simulation order from the
// goroutine holding the execution token.
type Observer interface {
	// Invalidated reports that victim cluster's copy of line was
	// removed at now by a write from writerPE (in writerCluster). Only
	// real copy losses are reported: a spurious invalidation message to
	// a stale directory bit (hints-disabled ablation) is not.
	Invalidated(line uint64, writerPE, writerCluster, victim int, now Clock)
	// Evicted reports that cluster's copy of line was displaced by a
	// capacity or conflict replacement at now.
	Evicted(line uint64, cluster int, now Clock)
}

// Stats holds per-cluster protocol event counters. The fault counters
// carry omitempty so that a run without fault injection marshals
// byte-identically to builds that predate the fault layer.
type Stats struct {
	InvalidationsSent     uint64 // invalidation messages this cluster caused
	InvalidationsReceived uint64 // lines this cluster lost to invalidations
	ReplacementHints      uint64
	Writebacks            uint64

	Nacks       uint64 `json:",omitempty"` // directory-busy NACKs absorbed by this cluster's requests
	AckDelays   uint64 `json:",omitempty"` // invalidation acks this cluster returned late
	FaultCycles uint64 `json:",omitempty"` // injected fault latency charged to this cluster's requests
}

// System is the paper's main organisation: one shared cache per
// cluster, kept coherent between clusters by the directory protocol.
type System struct {
	protocol
	caches []*cache.Cache

	// disableHints suppresses replacement hints (ablation): the
	// directory keeps stale sharer bits for silently dropped clean
	// lines, so writers send spurious invalidations.
	disableHints bool
}

// NewSystem builds the memory system with fully associative cluster
// caches, as the paper's main study uses. cacheLines is the per-cluster
// capacity in lines (0 = infinite); lineBytes must be a power of two.
func NewSystem(as *memory.AddressSpace, numClusters, cacheLines int, lineBytes uint64,
	lat Latencies, policy cache.ReplacePolicy) (*System, error) {
	return NewSystemAssoc(as, numClusters, cacheLines, 0, lineBytes, lat, policy)
}

// NewSystemAssoc builds the memory system with ways-associative cluster
// caches (ways = 0 selects fully associative) — the limited-associativity
// configuration the paper defers to future work.
func NewSystemAssoc(as *memory.AddressSpace, numClusters, cacheLines, ways int, lineBytes uint64,
	lat Latencies, policy cache.ReplacePolicy) (*System, error) {
	p, err := newProtocol(as, numClusters, lineBytes, lat)
	if err != nil {
		return nil, err
	}
	s := &System{protocol: p, caches: make([]*cache.Cache, numClusters)}
	s.copies = s
	for i := range s.caches {
		if ways == 0 {
			s.caches[i] = cache.New(cacheLines, policy)
		} else if s.caches[i], err = cache.NewSetAssoc(cacheLines, ways, policy); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// DisableReplacementHints turns off the paper's replacement hints, for
// the ablation benchmark. Call before simulation starts.
func (s *System) DisableReplacementHints() { s.disableHints = true }

// LineOf returns the line number containing addr.
func (s *System) LineOf(addr memory.Addr) uint64 { return addr >> s.lineShift }

// Cache returns cluster's cache, for inspection.
func (s *System) Cache(cluster int) *cache.Cache { return s.caches[cluster] }

// Directory returns the directory, for inspection.
func (s *System) Directory() *directory.Directory { return s.dir }

// Read simulates a read by a processor in cluster at time now. The proc
// argument exists to satisfy MemoryModel; shared-cache clusters do not
// distinguish processors within a cluster.
func (s *System) Read(proc, cluster int, addr memory.Addr, now Clock) Access {
	s.checkAccess(cluster, addr)
	line := s.LineOf(addr)
	c := s.caches[cluster]
	if l := c.Lookup(line, now); l != nil {
		c.Touch(l)
		if l.Pending {
			return Access{Class: MergeMiss, Stall: l.ReadyAt - now}
		}
		return Access{Class: Hit}
	}
	hops, lat := s.fetch(line, cluster, addr, false, now)
	s.dir.AddSharer(line, cluster)
	s.insert(cluster, line, cache.Shared, now, now+lat)
	return Access{Class: ReadMiss, Hops: hops, Stall: lat}
}

// Write simulates a write by a processor in cluster at time now. Writes
// never stall (store buffers + relaxed consistency), but they move lines
// to EXCLUSIVE, invalidating other copies instantaneously.
func (s *System) Write(proc, cluster int, addr memory.Addr, now Clock) Access {
	s.checkAccess(cluster, addr)
	line := s.LineOf(addr)
	c := s.caches[cluster]
	if l := c.Lookup(line, now); l != nil {
		c.Touch(l)
		if l.Pending {
			if l.FillState == cache.Exclusive {
				// Folded into the outstanding write miss.
				return Access{Class: WriteMerge}
			}
			// Write to an in-flight read fill: upgrade the fill.
			ack := s.invalidate(line, cluster, proc, now)
			l.FillState = cache.Exclusive
			return Access{Class: Upgrade, Stall: ack}
		}
		switch l.State {
		case cache.Exclusive:
			return Access{Class: Hit}
		case cache.Shared:
			ack := s.invalidate(line, cluster, proc, now)
			l.State = cache.Exclusive
			return Access{Class: Upgrade, Stall: ack}
		}
	}
	hops, lat := s.fetch(line, cluster, addr, true, now)
	ack := s.invalidate(line, cluster, proc, now)
	s.insert(cluster, line, cache.Exclusive, now, now+lat)
	// Stall carries the fetch latency for the blocking-writes ablation;
	// with the paper's store-buffer assumption the processor ignores it.
	return Access{Class: WriteMiss, Hops: hops, Stall: lat + ack}
}

// insert installs a pending fill, handling the victim's directory traffic.
func (s *System) insert(cluster int, line uint64, fill cache.State, now, readyAt Clock) {
	victim, evicted := s.caches[cluster].Insert(line, fill, now, readyAt)
	if !evicted {
		return
	}
	if s.obs != nil {
		s.obs.Evicted(victim.Tag, cluster, now)
	}
	switch victim.State {
	case cache.Shared:
		if s.disableHints {
			return // silent drop: the directory keeps a stale sharer bit
		}
		s.dir.ReplacementHint(victim.Tag, cluster)
		s.clusterStat[cluster].ReplacementHints++
	case cache.Exclusive:
		s.dir.Writeback(victim.Tag, cluster)
		s.clusterStat[cluster].Writebacks++
	}
}

// downgrade and drop give the directory protocol the cluster's shared
// cache (clusterCopies).
func (s *System) downgrade(cluster int, line uint64) { s.caches[cluster].Downgrade(line) }

func (s *System) drop(cluster int, line uint64) bool { return s.caches[cluster].Invalidate(line) }

func (s *System) checkAccess(cluster int, addr memory.Addr) {
	if cluster < 0 || cluster >= s.numClusters {
		s.badCluster(cluster)
	}
	if !s.as.Mapped(addr) {
		s.unmapped(addr)
	}
}

// badCluster panics for an access from a cluster the machine lacks. Like
// unmapped it stays out of line, keeping the access check small.
//
//go:noinline
func (s *System) badCluster(cluster int) {
	panic(fmt.Sprintf("coherence: access from invalid cluster %d", cluster))
}

// CheckLine audits one line's directory/cache agreement at time now:
// the sharer bit-vector must exactly mirror cache residency (modulo the
// hints-disabled ablation, where a bit may outlive the copy), an
// EXCLUSIVE entry must have exactly one owner holding (or filling) the
// line EXCLUSIVE, and SHARED copies must all be SHARED. Pending fills
// are judged by their FillState without being settled (Peek, not
// Lookup), so the audit never perturbs simulation state.
func (s *System) CheckLine(addr memory.Addr, now Clock) error {
	line := s.LineOf(addr)
	e, err := s.entry(line)
	if err != nil {
		return err
	}
	for cl, c := range s.caches {
		l := c.Peek(line)
		if e.Has(cl) != (l != nil) {
			if s.disableHints && e.Has(cl) && l == nil {
				continue // stale sharer bit from a silent clean drop
			}
			return fmt.Errorf("line %#x: directory bit for cluster %d is %v but cache residency is %v",
				line, cl, e.Has(cl), l != nil)
		}
		if l == nil {
			continue
		}
		st := l.State
		if l.Pending {
			st = l.FillState
			if l.ReadyAt < now && l.State != cache.Invalid {
				return fmt.Errorf("line %#x: cluster %d fill settled state %v left stale at %d (ready %d)",
					line, cl, l.State, now, l.ReadyAt)
			}
		}
		switch e.State {
		case directory.Exclusive:
			if st != cache.Exclusive {
				return fmt.Errorf("line %#x: directory EXCLUSIVE but cluster %d caches it %v", line, cl, st)
			}
		case directory.Shared:
			if st != cache.Shared {
				return fmt.Errorf("line %#x: directory SHARED but cluster %d caches it %v", line, cl, st)
			}
		}
	}
	return nil
}

// CheckInvariants audits the agreement between caches and directory at
// time now: CheckLine on every line the directory knows, then the
// reverse view, that every resident line is known to the directory.
// Like CheckLine it changes no state. Used by integration tests after
// every run and by the sanitizer's periodic and final audits.
func (s *System) CheckInvariants(now Clock) error {
	err := s.checkLines(now, s.CheckLine)
	for cl, c := range s.caches {
		c.ForEach(func(l *cache.Line) {
			if err == nil && !s.dir.Lookup(l.Tag).Has(cl) {
				err = fmt.Errorf("cluster %d caches line %#x unknown to the directory", cl, l.Tag)
			}
		})
	}
	return err
}
