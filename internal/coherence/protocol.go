package coherence

import (
	"fmt"
	"math/bits"

	"clustersim/internal/directory"
	"clustersim/internal/fault"
	"clustersim/internal/memory"
)

// clusterCopies is what the directory protocol needs of an organisation:
// a way to change the copies of a line that one cluster holds, whatever
// the cluster keeps inside. System keeps one shared cache per cluster;
// MemClusterSystem keeps the private caches on the cluster's bus, and
// its attraction memory is the directory's bit for the cluster.
type clusterCopies interface {
	// downgrade moves cluster's exclusive copy of line to shared, as a
	// remote read of dirty data leaves it.
	downgrade(cluster int, line uint64)
	// drop removes cluster's copies of line, reporting whether the
	// cluster held the data (without replacement hints a directory bit
	// can outlive a silently dropped copy).
	drop(cluster int, line uint64) bool
}

// protocol is the half of the memory system both organisations share:
// the full-bit-vector directory between clusters, with the Table 1
// latencies, the fault injector and the per-cluster counters. It sees a
// cluster as one sharer and reaches the cluster's copies only through
// copies, the organisation that embeds it.
type protocol struct {
	as          *memory.AddressSpace
	dir         *directory.Directory
	lat         Latencies
	lineShift   uint
	numClusters int
	clusterStat []Stats
	obs         Observer
	inj         *fault.Injector
	copies      clusterCopies
}

// newProtocol checks the machine's shape and builds its directory. The
// caller sets copies once the organisation exists.
func newProtocol(as *memory.AddressSpace, numClusters int, lineBytes uint64, lat Latencies) (protocol, error) {
	if numClusters != as.NumClusters() {
		return protocol{}, fmt.Errorf("coherence: %d clusters but address space has %d",
			numClusters, as.NumClusters())
	}
	if lineBytes == 0 || lineBytes&(lineBytes-1) != 0 {
		return protocol{}, fmt.Errorf("coherence: line size %d must be a power of two", lineBytes)
	}
	dir, err := directory.New(numClusters)
	if err != nil {
		return protocol{}, err
	}
	return protocol{
		as:          as,
		dir:         dir,
		lat:         lat,
		lineShift:   uint(bits.TrailingZeros64(lineBytes)),
		numClusters: numClusters,
		clusterStat: make([]Stats, numClusters),
	}, nil
}

// LineBytes returns the coherence granularity.
func (p *protocol) LineBytes() uint64 { return 1 << p.lineShift }

// ClusterStats returns one cluster's protocol counters.
func (p *protocol) ClusterStats(cluster int) Stats { return p.clusterStat[cluster] }

// ResetStats zeroes the per-cluster protocol counters (cache and
// directory contents are untouched). Used when measurement begins after
// an application's initialization phase.
func (p *protocol) ResetStats() {
	for i := range p.clusterStat {
		p.clusterStat[i] = Stats{}
	}
}

// SetObserver attaches a protocol-event observer (the sharing
// profiler). Only cluster-level copy losses are reported: under shared-
// memory clusters a private cache's loss whose line the attraction
// memory keeps is invisible, because the cluster never lost the data.
// Call before simulation starts; a nil observer keeps the hot paths at
// a single branch.
func (p *protocol) SetObserver(o Observer) { p.obs = o }

// SetFaults attaches a deterministic fault injector (nil detaches).
// Only the directory traffic between clusters is exposed to faults; a
// shared-memory cluster's snoopy bus is reliable. Call before
// simulation starts.
func (p *protocol) SetFaults(in *fault.Injector) { p.inj = in }

// fetch serves a miss that leaves cluster, for the line containing
// addr: it finds the line's home (placing its page on first touch) and
// directory entry, makes a remote owner downgrade its copy if the miss
// is a read, and returns where the miss was served with its Table 1
// latency plus any injected fault latency (NACK backoffs and remote-hop
// jitter). The caller updates the directory's sharers. Starvation past
// the injector's liveness cap panics inside the injector.
func (p *protocol) fetch(line uint64, cluster int, addr memory.Addr, write bool, now Clock) (Hops, Clock) {
	home := p.as.HomeOf(addr)
	e := p.dir.Lookup(line)
	var hops Hops
	if e.State == directory.Exclusive {
		owner := e.Owner()
		if !write {
			if owner == cluster {
				panic(fmt.Sprintf("coherence: cluster %d misses on line %#x it owns exclusively", cluster, line))
			}
			// Cache-to-cache transfer: the owner keeps a shared copy.
			p.copies.downgrade(owner, line)
			p.dir.Downgrade(line)
		}
		switch {
		case cluster == home:
			hops = HopLocalDirty
		case owner == home:
			hops = HopRemoteClean // two hops: the home itself holds the dirty data
		default:
			hops = HopRemoteDirty
		}
	} else if cluster == home {
		hops = HopLocalClean
	} else {
		hops = HopRemoteClean
	}
	lat := p.lat.of(hops)
	if p.inj != nil {
		extra, nacks := p.inj.Fetch(line, cluster, hops != HopLocalClean, now)
		st := &p.clusterStat[cluster]
		st.Nacks += uint64(nacks)
		st.FaultCycles += uint64(extra)
		lat += extra
	}
	return hops, lat
}

// invalidate removes line from every cluster but the writer's, records
// the writer's cluster as the line's exclusive owner and updates the
// invalidation counters. proc is the writing processor and now the
// write's issue time, for the observer. The return value is the
// writer's wait for the slowest injected straggler acknowledgement (0
// without fault injection) — acks are gathered in parallel, so the
// waits overlap rather than add.
func (p *protocol) invalidate(line uint64, cluster, proc int, now Clock) Clock {
	var ackDelay Clock
	mask := p.dir.ClearAll(line) &^ (1 << uint(cluster))
	for mask != 0 {
		j := bits.TrailingZeros64(mask)
		mask &^= 1 << uint(j)
		lost := p.copies.drop(j, line)
		p.clusterStat[j].InvalidationsReceived++
		p.clusterStat[cluster].InvalidationsSent++
		if lost && p.obs != nil {
			p.obs.Invalidated(line, proc, cluster, j, now)
		}
		if p.inj != nil {
			if d := p.inj.AckDelay(line, j, now); d > 0 {
				p.clusterStat[j].AckDelays++
				ackDelay = max(ackDelay, d)
			}
		}
	}
	// The writer waits only for the slowest straggler; charge it that.
	p.clusterStat[cluster].FaultCycles += uint64(ackDelay)
	p.dir.SetExclusive(line, cluster)
	return ackDelay
}

// unmapped panics for an access to addr that no allocation maps, naming
// the region whose padding it hit, if any. The access checks call it
// out of line, so that their fast path stays small.
func (p *protocol) unmapped(addr memory.Addr) {
	if r, ok := p.as.RegionOf(addr); ok {
		panic(fmt.Sprintf("coherence: access to %#x inside padding of region %q", addr, r.Name))
	}
	panic(fmt.Sprintf("coherence: access to unallocated address %#x", addr))
}

// entry returns line's directory entry, with an error if the entry is
// inconsistent on its own: an EXCLUSIVE entry has exactly one sharer.
func (p *protocol) entry(line uint64) (directory.Entry, error) {
	e := p.dir.Lookup(line)
	if e.State == directory.Exclusive && e.NumSharers() != 1 {
		return e, fmt.Errorf("line %#x: EXCLUSIVE with %d sharers", line, e.NumSharers())
	}
	return e, nil
}

// checkLines runs an organisation's CheckLine over every line the
// directory knows at time now, returning the first error.
func (p *protocol) checkLines(now Clock, checkLine func(addr memory.Addr, now Clock) error) error {
	var err error
	p.dir.ForEach(func(line uint64, _ directory.Entry) {
		if err == nil {
			err = checkLine(line<<p.lineShift, now)
		}
	})
	return err
}
