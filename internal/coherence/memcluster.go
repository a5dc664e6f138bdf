package coherence

import (
	"fmt"

	"clustersim/internal/cache"
	"clustersim/internal/directory"
	"clustersim/internal/memory"
)

// DefaultBusCycles is the intra-cluster snoopy-bus transfer latency of a
// shared-main-memory cluster — "the snoopy bus increases the latency of
// fetching data from the memory because it adds arbitration, queueing
// and electrical delays", but it is still far cheaper than leaving the
// cluster.
const DefaultBusCycles Clock = 15

// MemClusterSystem models the paper's second cluster organisation
// (Section 2): each processor keeps a private cache; the processors of a
// cluster are connected by a snoopy bus to an effectively infinite
// attraction memory, "as in a flat COMA style machine". Misses that find
// their line anywhere inside the cluster are satisfied over the bus;
// only lines absent from the whole cluster use the inter-cluster
// directory protocol with the Table 1 latencies. The attraction memory
// never evicts, so the directory is its only record: it holds a line
// exactly when its cluster's bit is set, EXCLUSIVE when the entry is.
//
// The essential contrasts with the shared-cache System are exactly the
// paper's: there is no destructive interference between processors
// (private caches), working sets are duplicated rather than overlapped,
// and communication savings appear as cheap intra-cluster bus transfers
// rather than outright hits. Between clusters both organisations run the
// same directory protocol, and only that traffic is exposed to faults;
// the snoopy bus is reliable.
type MemClusterSystem struct {
	protocol
	l1          []*cache.Cache // per processor
	clusterSize int
	bus         Clock
}

// NewMemClusterSystem builds a shared-main-memory-cluster system.
// l1Lines is the per-processor cache capacity in lines (0 = infinite);
// clusterSize processors share each attraction memory.
func NewMemClusterSystem(as *memory.AddressSpace, numClusters, clusterSize, l1Lines, ways int,
	lineBytes uint64, lat Latencies, bus Clock, policy cache.ReplacePolicy) (*MemClusterSystem, error) {
	if clusterSize <= 0 {
		return nil, fmt.Errorf("coherence: cluster size %d must be positive", clusterSize)
	}
	if bus <= 0 {
		return nil, fmt.Errorf("coherence: bus latency %d must be positive", bus)
	}
	p, err := newProtocol(as, numClusters, lineBytes, lat)
	if err != nil {
		return nil, err
	}
	s := &MemClusterSystem{
		protocol:    p,
		l1:          make([]*cache.Cache, numClusters*clusterSize),
		clusterSize: clusterSize,
		bus:         bus,
	}
	s.copies = s
	for i := range s.l1 {
		if ways == 0 {
			s.l1[i] = cache.New(l1Lines, policy)
		} else if s.l1[i], err = cache.NewSetAssoc(l1Lines, ways, policy); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// InCluster reports whether the cluster's attraction memory holds line:
// whether the directory lists the cluster as a sharer.
func (s *MemClusterSystem) InCluster(cluster int, line uint64) bool {
	return s.dir.Lookup(line).Has(cluster)
}

// owns reports whether the cluster holds line EXCLUSIVE.
func (s *MemClusterSystem) owns(cluster int, line uint64) bool {
	e := s.dir.Lookup(line)
	return e.State == directory.Exclusive && e.Has(cluster)
}

// Read simulates a load by processor proc (in cluster) at time now.
func (s *MemClusterSystem) Read(proc, cluster int, addr memory.Addr, now Clock) Access {
	s.checkAccess(proc, cluster, addr)
	line := addr >> s.lineShift
	l1 := s.l1[proc]
	if l := l1.Lookup(line, now); l != nil {
		l1.Touch(l)
		if l.Pending {
			return Access{Class: MergeMiss, Stall: l.ReadyAt - now}
		}
		return Access{Class: Hit}
	}
	// In-cluster: the snoopy bus finds the line in a sibling cache or
	// the attraction memory — the paper's cache-to-cache sharing.
	if s.InCluster(cluster, line) {
		s.insertL1(proc, cluster, line, cache.Shared, now, now+s.bus)
		return Access{Class: ReadMiss, Hops: HopIntraCluster, Stall: s.bus}
	}
	// Global miss: directory protocol at cluster granularity.
	hops, lat := s.fetch(line, cluster, addr, false, now)
	s.dir.AddSharer(line, cluster)
	s.insertL1(proc, cluster, line, cache.Shared, now, now+lat)
	return Access{Class: ReadMiss, Hops: hops, Stall: lat}
}

// Write simulates a store by processor proc at time now. As in the
// shared-cache organisation, store latency is hidden; ownership moves
// instantaneously. The cluster keeps ownership whenever it already has
// it — the paper's "invalidations ... stay within the same cluster".
func (s *MemClusterSystem) Write(proc, cluster int, addr memory.Addr, now Clock) Access {
	s.checkAccess(proc, cluster, addr)
	line := addr >> s.lineShift
	l1 := s.l1[proc]
	if l := l1.Lookup(line, now); l != nil {
		l1.Touch(l)
		if l.Pending {
			if l.FillState == cache.Exclusive {
				return Access{Class: WriteMerge}
			}
			ack := s.makeExclusive(proc, cluster, line, now)
			l.FillState = cache.Exclusive
			return Access{Class: Upgrade, Stall: ack}
		}
		switch l.State {
		case cache.Exclusive:
			return Access{Class: Hit}
		case cache.Shared:
			ack := s.makeExclusive(proc, cluster, line, now)
			l.State = cache.Exclusive
			return Access{Class: Upgrade, Stall: ack}
		}
	}
	if s.InCluster(cluster, line) {
		// In-cluster write miss: bus fetch (hidden) plus ownership.
		ack := s.makeExclusive(proc, cluster, line, now)
		s.insertL1(proc, cluster, line, cache.Exclusive, now, now+s.bus)
		return Access{Class: WriteMiss, Hops: HopIntraCluster, Stall: s.bus + ack}
	}
	// Global write miss.
	hops, lat := s.fetch(line, cluster, addr, true, now)
	ack := s.invalidate(line, cluster, proc, now)
	s.insertL1(proc, cluster, line, cache.Exclusive, now, now+lat)
	return Access{Class: WriteMiss, Hops: hops, Stall: lat + ack}
}

// makeExclusive gives proc's cluster exclusive ownership of line and
// removes every other copy: other clusters entirely, and the sibling
// processors' private caches within the cluster. It returns the
// writer's wait for the slowest injected straggler acknowledgement
// (always 0 when the cluster already owned the line — no messages
// leave the cluster, and the snoopy bus is reliable).
func (s *MemClusterSystem) makeExclusive(proc, cluster int, line uint64, now Clock) Clock {
	var ack Clock
	if !s.owns(cluster, line) {
		ack = s.invalidate(line, cluster, proc, now)
	}
	base := cluster * s.clusterSize
	for q := base; q < base+s.clusterSize; q++ {
		if q != proc && s.l1[q].Invalidate(line) {
			s.clusterStat[cluster].InvalidationsSent++
			s.clusterStat[cluster].InvalidationsReceived++
		}
	}
	return ack
}

// downgrade moves a cluster's exclusive line to shared: any dirty
// private copy is downgraded in place, and the directory's downgrade
// leaves the attraction memory a shared copy.
func (s *MemClusterSystem) downgrade(cluster int, line uint64) {
	for _, c := range s.procCaches(cluster) {
		c.Downgrade(line)
	}
}

// drop removes line from all a cluster's processors' caches. The
// directory bit that invalidate clears was the attraction memory's
// copy, so the cluster always lost one.
func (s *MemClusterSystem) drop(cluster int, line uint64) bool {
	for _, c := range s.procCaches(cluster) {
		c.Invalidate(line)
	}
	return true
}

// procCaches returns the private caches of cluster's processors.
func (s *MemClusterSystem) procCaches(cluster int) []*cache.Cache {
	return s.l1[cluster*s.clusterSize : (cluster+1)*s.clusterSize]
}

// insertL1 installs a fill in a private cache. Evictions stay inside the
// cluster: clean victims drop silently (the attraction memory retains
// the line), dirty victims write back into the attraction memory — no
// directory traffic either way.
func (s *MemClusterSystem) insertL1(proc, cluster int, line uint64, fill cache.State, now, readyAt Clock) {
	victim, evicted := s.l1[proc].Insert(line, fill, now, readyAt)
	if evicted && victim.State == cache.Exclusive {
		s.clusterStat[cluster].Writebacks++ // intra-cluster writeback
	}
}

func (s *MemClusterSystem) checkAccess(proc, cluster int, addr memory.Addr) {
	if proc < 0 || proc >= len(s.l1) || proc/s.clusterSize != cluster {
		s.badProc(proc, cluster)
	}
	if !s.as.Mapped(addr) {
		s.unmapped(addr)
	}
}

// badProc panics for an access from a processor outside cluster. Like
// unmapped it stays out of line, keeping the access check small.
//
//go:noinline
func (s *MemClusterSystem) badProc(proc, cluster int) {
	panic(fmt.Sprintf("coherence: processor %d is not in cluster %d", proc, cluster))
}

// CheckLine audits one line's directory/private-cache agreement at
// time now — the sanitizer's per-transaction spot check: an EXCLUSIVE
// entry has one sharer, and a private copy must sit in its cluster's
// attraction memory, EXCLUSIVE only where the cluster is. Peek keeps
// the audit non-mutating.
func (s *MemClusterSystem) CheckLine(addr memory.Addr, now Clock) error {
	line := addr >> s.lineShift
	if _, err := s.entry(line); err != nil {
		return err
	}
	for p, c := range s.l1 {
		if l := c.Peek(line); l != nil {
			if err := s.checkPrivate(p, l); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkPrivate audits processor p's private copy l against its
// cluster's directory bit and the line's directory state.
func (s *MemClusterSystem) checkPrivate(p int, l *cache.Line) error {
	cl := p / s.clusterSize
	e := s.dir.Lookup(l.Tag)
	if !e.Has(cl) {
		return fmt.Errorf("processor %d caches line %#x absent from cluster %d", p, l.Tag, cl)
	}
	eff := l.State
	if l.Pending {
		eff = l.FillState
	}
	if eff == cache.Exclusive && e.State != directory.Exclusive {
		return fmt.Errorf("processor %d holds line %#x EXCLUSIVE but cluster %d is %v", p, l.Tag, cl, e.State)
	}
	return nil
}

// CheckInvariants audits directory/private-cache agreement at time now:
// CheckLine on every line the directory knows, then the reverse view,
// that every private copy agrees with its cluster's directory bit and
// the line's state. Like CheckLine it changes no state.
func (s *MemClusterSystem) CheckInvariants(now Clock) error {
	err := s.checkLines(now, s.CheckLine)
	for p, c := range s.l1 {
		c.ForEach(func(l *cache.Line) {
			if err == nil {
				err = s.checkPrivate(p, l)
			}
		})
	}
	return err
}

// Interface conformance.
var (
	_ MemoryModel = (*System)(nil)
	_ MemoryModel = (*MemClusterSystem)(nil)
)
