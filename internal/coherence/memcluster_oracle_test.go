package coherence

import (
	"fmt"
	"math/rand"
	"testing"

	"clustersim/internal/cache"
	"clustersim/internal/memory"
)

// memOracle is an independent, deliberately naive model of the shared-
// memory cluster organisation, written from the paper's description
// and sharing no code with MemClusterSystem: private caches as plain
// slices in recency order, the attraction memory as a presence map per
// cluster with its own EXCLUSIVE flag (it never evicts), a map
// directory of sharer sets plus an exclusive flag, round-robin first-
// touch homes per 4 KB page, and the Table 1 latencies and the bus
// transcribed below. It borrows only the line and entry records of the
// shared-cache oracle.
type memOracle struct {
	clusters int
	size     int // processors per cluster
	capacity int // private-cache lines; 0 = infinite

	l1      [][]oline          // per processor, most recently used first
	attract []map[uint64]bool  // per cluster: line -> held EXCLUSIVE
	dir     map[uint64]*oentry // absent: cached nowhere
	homes   map[uint64]int
	rrNext  int
	stats   []Stats // Writebacks, InvalidationsSent, InvalidationsReceived
}

// memOracleLatency is Table 1: the service latencies of a miss that
// leaves the cluster.
var memOracleLatency = map[Hops]Clock{
	HopLocalClean: 30, HopLocalDirty: 100, HopRemoteClean: 100, HopRemoteDirty: 150,
}

// memOracleBus is the snoopy bus's transfer latency inside a cluster.
const memOracleBus Clock = 15

func newMemOracle(clusters, size, capacity int) *memOracle {
	o := &memOracle{
		clusters: clusters,
		size:     size,
		capacity: capacity,
		l1:       make([][]oline, clusters*size),
		attract:  make([]map[uint64]bool, clusters),
		dir:      map[uint64]*oentry{},
		homes:    map[uint64]int{},
		stats:    make([]Stats, clusters),
	}
	for c := range o.attract {
		o.attract[c] = map[uint64]bool{}
	}
	return o
}

func (o *memOracle) home(addr uint64) int {
	page := addr >> 12
	if h, ok := o.homes[page]; ok {
		return h
	}
	h := o.rrNext
	o.rrNext = (o.rrNext + 1) % o.clusters
	o.homes[page] = h
	return h
}

// lookup returns the index of proc's copy of tag, or -1, settling a
// fill that has arrived by now.
func (o *memOracle) lookup(proc int, tag uint64, now Clock) int {
	for i := range o.l1[proc] {
		if l := &o.l1[proc][i]; l.tag == tag {
			if l.pending && now >= l.readyAt {
				l.pending, l.excl = false, l.fillEx
			}
			return i
		}
	}
	return -1
}

// touch moves proc's line i to the front and returns it.
func (o *memOracle) touch(proc, i int) *oline {
	c := o.l1[proc]
	l := c[i]
	copy(c[1:i+1], c[:i])
	c[0] = l
	return &c[0]
}

// fill installs a pending fill at the front of proc's cache. A full
// cache first drops its least recent line whose fill has arrived,
// settling due fills on the way; a dirty victim writes back into the
// attraction memory, which keeps the line, so the directory hears
// nothing.
func (o *memOracle) fill(proc int, tag uint64, excl bool, now, readyAt Clock) {
	c := o.l1[proc]
	if o.capacity > 0 && len(c) >= o.capacity {
		for i := len(c) - 1; i >= 0; i-- {
			l := &c[i]
			if l.pending && now >= l.readyAt {
				l.pending, l.excl = false, l.fillEx
			}
			if !l.pending {
				if l.excl {
					o.stats[proc/o.size].Writebacks++
				}
				c = append(c[:i], c[i+1:]...)
				break
			}
		}
	}
	o.l1[proc] = append([]oline{{tag: tag, pending: true, readyAt: readyAt, fillEx: excl}}, c...)
}

// remove deletes proc's copy of tag, reporting whether there was one.
func (o *memOracle) remove(proc int, tag uint64) bool {
	for i := range o.l1[proc] {
		if o.l1[proc][i].tag == tag {
			o.l1[proc] = append(o.l1[proc][:i], o.l1[proc][i+1:]...)
			return true
		}
	}
	return false
}

// owner returns the cluster holding tag EXCLUSIVE, or -1.
func (o *memOracle) owner(tag uint64) int {
	e := o.dir[tag]
	if e == nil || !e.excl {
		return -1
	}
	for j := 0; j < o.clusters; j++ {
		if e.sharers[j] {
			return j
		}
	}
	return -1
}

// global classifies a miss that leaves cluster cl: clean at the home,
// or dirty in the owning cluster.
func (o *memOracle) global(cl int, addr uint64, owner int) Hops {
	h := o.home(addr)
	switch {
	case owner < 0 && cl == h:
		return HopLocalClean
	case owner < 0:
		return HopRemoteClean
	case cl == h:
		return HopLocalDirty
	case owner == h:
		return HopRemoteClean
	}
	return HopRemoteDirty
}

// own gives proc's cluster the line EXCLUSIVE. Unless the cluster
// already owns it, every other cluster loses its attraction-memory copy
// and all its private copies; then the siblings' private copies go,
// over the bus.
func (o *memOracle) own(proc int, tag uint64) {
	cl := proc / o.size
	if !o.attract[cl][tag] {
		if e := o.dir[tag]; e != nil {
			for j := 0; j < o.clusters; j++ {
				if j == cl || !e.sharers[j] {
					continue
				}
				delete(o.attract[j], tag)
				for q := j * o.size; q < (j+1)*o.size; q++ {
					o.remove(q, tag)
				}
				o.stats[j].InvalidationsReceived++
				o.stats[cl].InvalidationsSent++
			}
		}
		o.dir[tag] = &oentry{excl: true, sharers: map[int]bool{cl: true}}
		o.attract[cl][tag] = true
	}
	for q := cl * o.size; q < (cl+1)*o.size; q++ {
		if q != proc && o.remove(q, tag) {
			o.stats[cl].InvalidationsSent++
			o.stats[cl].InvalidationsReceived++
		}
	}
}

func (o *memOracle) read(proc int, addr uint64, now Clock) Access {
	cl, tag := proc/o.size, addr>>6
	if i := o.lookup(proc, tag, now); i >= 0 {
		l := o.touch(proc, i)
		if l.pending {
			return Access{Class: MergeMiss, Stall: l.readyAt - now}
		}
		return Access{Class: Hit}
	}
	if _, ok := o.attract[cl][tag]; ok {
		// The bus read as the simulator does it today: the reader gets
		// a SHARED copy and a sibling's EXCLUSIVE copy stays EXCLUSIVE,
		// so the sibling's next write hits without invalidating it.
		// CHANGES.md records this as a FOUND fault; its fix downgrades
		// the siblings here, and needs a benchmark re-record (ROADMAP
		// item 4).
		o.fill(proc, tag, false, now, now+memOracleBus)
		return Access{Class: ReadMiss, Hops: HopIntraCluster, Stall: memOracleBus}
	}
	owner := o.owner(tag)
	hops := o.global(cl, addr, owner)
	if owner >= 0 {
		// The owning cluster keeps a SHARED copy, in its attraction
		// memory and in every private cache.
		o.attract[owner][tag] = false
		for q := owner * o.size; q < (owner+1)*o.size; q++ {
			if i := o.find(q, tag); i >= 0 {
				o.l1[q][i].excl, o.l1[q][i].fillEx = false, false
			}
		}
		o.dir[tag].excl = false
	}
	if o.dir[tag] == nil {
		o.dir[tag] = &oentry{sharers: map[int]bool{}}
	}
	o.dir[tag].sharers[cl] = true
	o.attract[cl][tag] = false
	lat := memOracleLatency[hops]
	o.fill(proc, tag, false, now, now+lat)
	return Access{Class: ReadMiss, Hops: hops, Stall: lat}
}

// find returns the index of proc's copy of tag, or -1, settling nothing.
func (o *memOracle) find(proc int, tag uint64) int {
	for i := range o.l1[proc] {
		if o.l1[proc][i].tag == tag {
			return i
		}
	}
	return -1
}

func (o *memOracle) write(proc int, addr uint64, now Clock) Access {
	cl, tag := proc/o.size, addr>>6
	if i := o.lookup(proc, tag, now); i >= 0 {
		l := o.touch(proc, i)
		switch {
		case l.pending && l.fillEx:
			return Access{Class: WriteMerge}
		case !l.pending && l.excl:
			return Access{Class: Hit}
		}
		o.own(proc, tag) // changes only other processors' caches
		if l.pending {
			l.fillEx = true
		} else {
			l.excl = true
		}
		return Access{Class: Upgrade}
	}
	if _, ok := o.attract[cl][tag]; ok {
		o.own(proc, tag)
		o.fill(proc, tag, true, now, now+memOracleBus)
		return Access{Class: WriteMiss, Hops: HopIntraCluster, Stall: memOracleBus}
	}
	hops := o.global(cl, addr, o.owner(tag))
	o.own(proc, tag)
	lat := memOracleLatency[hops]
	o.fill(proc, tag, true, now, now+lat)
	return Access{Class: WriteMiss, Hops: hops, Stall: lat}
}

// TestMemClusterDifferentialOracle replays long random workloads through
// MemClusterSystem and the naive memOracle, on 4 clusters of 1, 2 and 4
// processors with private caches of 0 (infinite), 2 and 8 lines. Every
// access must have the same class, service and stall on both, the
// audits must pass throughout, and each cluster's writebacks and
// invalidations must match at the end.
func TestMemClusterDifferentialOracle(t *testing.T) {
	for _, size := range []int{1, 2, 4} {
		for _, capacity := range []int{0, 2, 8} {
			t.Run(fmt.Sprintf("procs=%d/lines=%d", size, capacity), func(t *testing.T) {
				as, err := memory.New(4096, 4)
				if err != nil {
					t.Fatal(err)
				}
				sys, err := NewMemClusterSystem(as, 4, size, capacity, 0, 64, DefaultLatencies(),
					DefaultBusCycles, cache.LRU)
				if err != nil {
					t.Fatal(err)
				}
				base := as.Alloc(1<<20, "data")
				orc := newMemOracle(4, size, capacity)
				r := rand.New(rand.NewSource(2024))
				now := Clock(0)
				for step := 0; step < 60000; step++ {
					proc := r.Intn(4 * size)
					cl := proc / size
					addr := base + uint64(r.Intn(2048))*8
					var got, want Access
					if r.Intn(3) == 0 {
						got = sys.Write(proc, cl, addr, now)
						want = orc.write(proc, addr, now)
					} else {
						got = sys.Read(proc, cl, addr, now)
						want = orc.read(proc, addr, now)
					}
					if got != want {
						t.Fatalf("step %d (proc %d, addr %#x, t %d): system %+v, oracle %+v",
							step, proc, addr, now, got, want)
					}
					if err := sys.CheckLine(addr, now); err != nil {
						t.Fatalf("step %d (proc %d, addr %#x, t %d): %v", step, proc, addr, now, err)
					}
					if step%5000 == 4999 {
						if err := sys.CheckInvariants(now); err != nil {
							t.Fatalf("step %d: full audit: %v", step, err)
						}
					}
					now += Clock(r.Intn(7))
				}
				for cl := range orc.stats {
					got, want := sys.ClusterStats(cl), orc.stats[cl]
					if got.Writebacks != want.Writebacks || got.InvalidationsSent != want.InvalidationsSent ||
						got.InvalidationsReceived != want.InvalidationsReceived {
						t.Errorf("cluster %d: system %+v, oracle %+v", cl, got, want)
					}
				}
			})
		}
	}
}
