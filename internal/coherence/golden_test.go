package coherence

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"clustersim/internal/cache"
	"clustersim/internal/fault"
	"clustersim/internal/memory"
)

// hashingObserver folds every protocol event into the golden digest.
type hashingObserver struct{ h hash.Hash }

func (o hashingObserver) Invalidated(line uint64, writerPE, writerCluster, victim int, now Clock) {
	fmt.Fprintf(o.h, "inv %d %d %d %d %d\n", line, writerPE, writerCluster, victim, now)
}

func (o hashingObserver) Evicted(line uint64, cluster int, now Clock) {
	fmt.Fprintf(o.h, "evict %d %d %d\n", line, cluster, now)
}

// TestProtocolGolden pins the exact output of both cluster organisations:
// fixed-seed random read and write streams from 8 processors in 4
// clusters, digesting every Access (class, hops, stall), every observer
// event and every cluster's final ClusterStats. The cases cover infinite
// and 1 KB (16-line) caches, fully associative and 2-way, with and
// without a fault plan, and the hints-disabled ablation of the shared-
// cache system. The digests were recorded before the two organisations
// shared one directory protocol; any change to classification, latency,
// fault-stream order, invalidation fan-out or counters changes them.
func TestProtocolGolden(t *testing.T) {
	golden := map[string]string{
		"cache/lines=0/ways=0/faults=false/nohints=false":  "041b13a31a7c9d250a53a20f9f076b8d7938d8a6f533200ed7188fc4ef52aef7",
		"cache/lines=0/ways=0/faults=true/nohints=false":   "72509c0d56bf83b6bf41ec8420025aa2bcefb3eea86d36d006b390a3385a5ed7",
		"cache/lines=16/ways=0/faults=false/nohints=false": "3d9bc11cf6247482e7c734120b392a2d37dab2f78a5981e1f6a70a1c82c70072",
		"cache/lines=16/ways=0/faults=false/nohints=true":  "02ff67a89f2bfadcc210214aaea280fae5e9c7e10627747965a56888eef26e36",
		"cache/lines=16/ways=0/faults=true/nohints=false":  "3deb14ee8b2bf9dec56d91c772a97c8f41181a0d075c7a11e2fc69936198d6d7",
		"cache/lines=16/ways=0/faults=true/nohints=true":   "9106c074053f4c42bf847a8363059ad56eef03db223838f4b74b03ee83f61d16",
		"cache/lines=16/ways=2/faults=false/nohints=false": "758c7db90f153e170f429ca4f39153cd7621f206fb5fb1cad62784274f5860a2",
		"cache/lines=16/ways=2/faults=false/nohints=true":  "aef7da634573ecd776200118bf3525518e94e1e3fd754c9c7b007c04ba247381",
		"cache/lines=16/ways=2/faults=true/nohints=false":  "50b83bdf3e91580199810c2c23c2a90971f53dd0377e3b911777c607ba19ae03",
		"cache/lines=16/ways=2/faults=true/nohints=true":   "9c9a392b729174d39282f776dee5bafece6a227ccde66f5eda805ee310d133ea",
		"mem/lines=0/ways=0/faults=false/nohints=false":    "0171489188f9dd7c5794ad8180980c91b7a03bc0d1c3ae69a3a71dafbb202e6e",
		"mem/lines=0/ways=0/faults=true/nohints=false":     "a9fdb2b5b67078cc671a93014299d75c54060d77449ed3639c1b60a2c30ade19",
		"mem/lines=16/ways=0/faults=false/nohints=false":   "9a876951842daaed089833a354605db37179f57e7e1d2214e4f453ae63bfd956",
		"mem/lines=16/ways=0/faults=true/nohints=false":    "99f44bb6f3f3802c3db1f030d59144cc2fb2e8bac51e1a14734387017588fa2b",
		"mem/lines=16/ways=2/faults=false/nohints=false":   "e7f10c0ea625fdd7beff2fee2f6d111660e87018999ad2c21478f48f41db4b42",
		"mem/lines=16/ways=2/faults=true/nohints=false":    "2d2c1f27d5d2dbb205c474105c3d247712f100740caac81ddd805f4cf008f563",
	}
	for _, org := range []string{"cache", "mem"} {
		for _, lines := range []int{0, 16} {
			for _, ways := range []int{0, 2} {
				if lines == 0 && ways != 0 {
					continue // a set-associative cache is finite
				}
				for _, faults := range []bool{false, true} {
					for _, noHints := range []bool{false, true} {
						if noHints && (org == "mem" || lines == 0) {
							continue // no hints to withhold: no hints (mem) or no evictions
						}
						name := fmt.Sprintf("%s/lines=%d/ways=%d/faults=%v/nohints=%v", org, lines, ways, faults, noHints)
						t.Run(name, func(t *testing.T) {
							got := protocolDigest(t, org, lines, ways, faults, noHints)
							if want, ok := golden[name]; !ok || got != want {
								t.Errorf("digest %s, want %s", got, want)
							}
						})
					}
				}
			}
		}
	}
}

// protocolDigest drives one golden case and returns its digest.
func protocolDigest(t *testing.T, org string, lines, ways int, faults, noHints bool) string {
	t.Helper()
	const clusters, clusterSize = 4, 2
	as, err := memory.New(4096, clusters)
	if err != nil {
		t.Fatal(err)
	}
	var inj *fault.Injector
	if faults {
		inj, err = fault.NewInjector(fault.Config{Seed: 7, NackPerMille: 40, AckDelayPerMille: 40, PerturbPerMille: 40})
		if err != nil {
			t.Fatal(err)
		}
	}
	var m MemoryModel
	if org == "cache" {
		s, err := NewSystemAssoc(as, clusters, lines, ways, 64, DefaultLatencies(), cache.LRU)
		if err != nil {
			t.Fatal(err)
		}
		if noHints {
			s.DisableReplacementHints()
		}
		s.SetFaults(inj)
		m = s
	} else {
		s, err := NewMemClusterSystem(as, clusters, clusterSize, lines, ways, 64, DefaultLatencies(),
			DefaultBusCycles, cache.LRU)
		if err != nil {
			t.Fatal(err)
		}
		s.SetFaults(inj)
		m = s
	}
	h := sha256.New()
	m.SetObserver(hashingObserver{h})
	// 64 KB over 16 pages, so homes rotate across the clusters; a
	// quarter of the references go to a 32-line hot tail for sharing,
	// and short time steps leave fills pending for merges and upgrades.
	base := as.Alloc(1<<16, "data")
	r := rand.New(rand.NewSource(2025))
	now := Clock(0)
	for step := 0; step < 20000; step++ {
		proc := r.Intn(clusters * clusterSize)
		var addr memory.Addr
		if r.Intn(4) == 0 {
			addr = base + uint64(r.Intn(32))*64 + uint64(r.Intn(8))*8
		} else {
			addr = base + uint64(r.Intn(1<<13))*8
		}
		var a Access
		if r.Intn(3) == 0 {
			a = m.Write(proc, proc/clusterSize, addr, now)
		} else {
			a = m.Read(proc, proc/clusterSize, addr, now)
		}
		fmt.Fprintf(h, "acc %d %d %d\n", a.Class, a.Hops, a.Stall)
		now += Clock(r.Intn(7))
	}
	for c := 0; c < clusters; c++ {
		fmt.Fprintf(h, "stats %d %+v\n", c, m.ClusterStats(c))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
