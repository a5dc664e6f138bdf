package profile

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"clustersim/internal/cache"
	"clustersim/internal/coherence"
	"clustersim/internal/memory"
)

// newCollector builds a 2-cluster collector over a small address space
// with two named regions. Returns the collector and the region bases.
func newCollector(t *testing.T) (*Collector, memory.Addr, memory.Addr) {
	t.Helper()
	as, err := memory.New(4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := as.Alloc(8000, "grid") // 8000 of 8192 reserved: leaves alignment padding
	b := as.Alloc(4096, "histogram")
	c := New()
	attach(t, c, as)
	return c, a, b
}

// attach sizes c for a two-cluster machine with 64-byte lines over as,
// as the machine would.
func attach(t *testing.T, c *Collector, as *memory.AddressSpace) {
	t.Helper()
	sys, err := coherence.NewSystem(as, 2, 0, 64, coherence.DefaultLatencies(), cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	c.Attach(as, sys, nil)
}

func readMiss(stall Clock) coherence.Access {
	return coherence.Access{Class: coherence.ReadMiss, Hops: coherence.HopLocalClean, Stall: stall}
}

func writeMiss() coherence.Access {
	return coherence.Access{Class: coherence.WriteMiss, Hops: coherence.HopRemoteClean}
}

// The taxonomy walk: a line is fetched cold, invalidated, refetched on
// an untouched word (false sharing), invalidated again, refetched on
// the written word (true sharing), evicted, and refetched (replacement).
func TestMissClassification(t *testing.T) {
	c, grid, _ := newCollector(t)
	line := grid >> 6

	// Cluster 0 reads word 0: cold.
	c.Ref(0, 0, false, grid, 10, readMiss(30), 30)
	// PE 4 (cluster 1) writes word 1 of the same line: cold for cluster
	// 1, and the write stamps word 1's last writer.
	c.Ref(4, 1, true, grid+8, 20, writeMiss(), 0)
	c.Invalidated(line, 4, 1, 0, 20)

	// Cluster 0 refetches word 0 — never written since the loss: false.
	c.Ref(0, 0, false, grid, 30, readMiss(30), 30)

	// Cluster 0's refetch made the line shared again, so cluster 1's
	// next write is an upgrade; it invalidates cluster 0 once more.
	// Refetching the word cluster 1 wrote: true sharing.
	c.Ref(4, 1, true, grid+8, 40, coherence.Access{Class: coherence.Upgrade}, 0)
	c.Invalidated(line, 4, 1, 0, 40)
	c.Ref(0, 0, false, grid+8, 50, readMiss(100), 100)

	// Eviction, then refetch: replacement.
	c.Evicted(line, 0, 60)
	c.Ref(0, 0, false, grid, 70, readMiss(30), 30)

	r := c.Report(10)
	if len(r.Regions) != 1 || r.Regions[0].Name != "grid" {
		t.Fatalf("regions = %+v, want one region grid", r.Regions)
	}
	got := r.Regions[0].Misses
	want := ClassCounts{Cold: 2, Replacement: 1, TrueSharing: 1, FalseSharing: 1}
	if got != want {
		t.Errorf("grid misses = %+v, want %+v", got, want)
	}
	if st := r.Regions[0].Stalls; st.FalseSharing != 30 || st.TrueSharing != 100 {
		t.Errorf("stall split = %+v, want false=30 true=100", st)
	}
	if len(r.HotLines) != 1 || r.HotLines[0].Invalidations != 2 {
		t.Fatalf("hot lines = %+v, want one line with 2 invalidations", r.HotLines)
	}
	pairs := r.HotLines[0].Pairs
	if len(pairs) != 1 || pairs[0] != (PairCount{WriterPE: 4, VictimCluster: 0, Count: 2}) {
		t.Errorf("pairs = %+v, want PE4→cl0×2", pairs)
	}
}

// An invalidating write at the same cycle as the victim's loss counts
// as true sharing: the fetched word really was newly produced.
func TestSameCycleWriteIsTrueSharing(t *testing.T) {
	c, grid, _ := newCollector(t)
	line := grid >> 6
	c.Ref(0, 0, false, grid, 5, readMiss(30), 30)
	c.Ref(4, 1, true, grid, 9, writeMiss(), 0)
	c.Invalidated(line, 4, 1, 0, 9)
	c.Ref(0, 0, false, grid, 12, readMiss(30), 30)
	r := c.Report(0)
	if m := r.Regions[0].Misses; m.TrueSharing != 1 || m.FalseSharing != 0 {
		t.Errorf("misses = %+v, want 1 true-sharing refetch", m)
	}
}

// Placement attribution: fetches served by the local home vs. a remote
// home vs. inside the cluster.
func TestPlacementAttribution(t *testing.T) {
	c, grid, _ := newCollector(t)
	c.Ref(0, 0, false, grid, 1, readMiss(30), 30)
	c.Ref(0, 0, false, grid+64, 2, coherence.Access{Class: coherence.ReadMiss, Hops: coherence.HopRemoteDirty, Stall: 150}, 150)
	c.Ref(0, 0, false, grid+128, 3, coherence.Access{Class: coherence.ReadMiss, Hops: coherence.HopIntraCluster, Stall: 15}, 15)
	reg := c.Report(0).Regions[0]
	if reg.LocalHome != 1 || reg.RemoteHome != 1 || reg.IntraCluster != 1 {
		t.Errorf("placement = local %d remote %d intra %d, want 1/1/1",
			reg.LocalHome, reg.RemoteHome, reg.IntraCluster)
	}
	if f := reg.LocalHomeFraction(); f != 0.5 {
		t.Errorf("LocalHomeFraction = %v, want 0.5", f)
	}
}

// Reset (BeginMeasurement) zeroes counters but keeps presence and
// last-writer state: a warm line must not re-classify as cold, and a
// pre-reset invalidation still discriminates true from false sharing.
func TestResetKeepsWarmState(t *testing.T) {
	c, grid, _ := newCollector(t)
	line := grid >> 6
	c.Ref(0, 0, false, grid, 1, readMiss(30), 30)
	c.Ref(4, 1, true, grid+8, 2, writeMiss(), 0)
	c.Invalidated(line, 4, 1, 0, 2)

	c.Reset(0, 0)

	c.Ref(0, 0, false, grid+8, 10, readMiss(100), 100)
	r := c.Report(0)
	m := r.Regions[0].Misses
	if m != (ClassCounts{TrueSharing: 1}) {
		t.Errorf("post-reset misses = %+v, want exactly one true-sharing miss", m)
	}
	if r.Totals.Misses.Total() != 1 {
		t.Errorf("totals = %+v, want only post-reset counts", r.Totals)
	}
}

// Every access is attributed to the named region containing it; one
// outside every named region lands in the (unattributed) spill bucket,
// and regions never touched are omitted.
func TestSpillAndOmittedRegions(t *testing.T) {
	type region struct {
		name          string
		reads, writes uint64
		misses        uint64
	}
	for _, tc := range []struct {
		name string
		refs func(c *Collector, grid, hist memory.Addr)
		want []region
	}{
		{"spill", func(c *Collector, _, _ memory.Addr) {
			pad := c.as.Regions()[0].End() // alignment padding past "grid"
			if _, ok := c.as.RegionOf(pad); ok {
				t.Fatalf("address %#x unexpectedly inside a region", pad)
			}
			c.Ref(0, 0, false, pad, 1, readMiss(30), 30)
		}, []region{{"(unattributed)", 1, 0, 1}}},
		// A hot region read 32 times, every read a miss, and a cold one
		// written once and never read.
		{"hot and cold", func(c *Collector, hot, cold memory.Addr) {
			for i := 0; i < 32; i++ {
				c.Ref(0, 0, false, hot+uint64(i)*64, Clock(i), readMiss(30), 30)
			}
			c.Ref(4, 1, true, cold, 40, writeMiss(), 0)
		}, []region{{"grid", 32, 0, 32}, {"histogram", 0, 1, 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, grid, hist := newCollector(t)
			tc.refs(c, grid, hist)
			r := c.Report(0)
			if len(r.Regions) != len(tc.want) {
				t.Fatalf("regions = %+v, want %+v", r.Regions, tc.want)
			}
			for i, w := range tc.want {
				got := r.Regions[i]
				if got.Name != w.name || got.Reads != w.reads || got.Writes != w.writes || got.Misses.Total() != w.misses {
					t.Errorf("region %d = %s: %d reads, %d writes, %d misses; want %+v",
						i, got.Name, got.Reads, got.Writes, got.Misses.Total(), w)
				}
			}
		})
	}
}

// Reports round-trip through JSON, reject foreign schemas, and render
// identically for identical inputs.
func TestReportRoundTripAndDeterminism(t *testing.T) {
	build := func() *bytes.Buffer {
		c, grid, hist := newCollector(t)
		line := grid >> 6
		c.Ref(0, 0, false, grid, 1, readMiss(30), 30)
		c.Ref(4, 1, true, grid, 2, writeMiss(), 0)
		c.Invalidated(line, 4, 1, 0, 2)
		c.Ref(0, 0, false, grid, 3, readMiss(100), 100)
		c.Ref(3, 0, false, hist, 4, readMiss(30), 30)
		r := c.Report(4)
		r.App, r.Size = "mp3d", "small"
		var buf bytes.Buffer
		if err := WriteReport(&buf, r); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	a, b := build(), build()
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical event streams produced different JSON")
	}
	r, err := ReadReport(a)
	if err != nil {
		t.Fatal(err)
	}
	if r.App != "mp3d" || len(r.Regions) != 2 {
		t.Errorf("round-trip lost data: %+v", r)
	}
	// Regions rank by misses: grid (2 classified) before histogram (1).
	if r.Regions[0].Name != "grid" || r.Regions[1].Name != "histogram" {
		t.Errorf("region order = %s, %s; want grid, histogram", r.Regions[0].Name, r.Regions[1].Name)
	}
	if _, err := ReadReport(bytes.NewBufferString(`{"schema":"other/v9"}`)); err == nil {
		t.Error("foreign schema accepted")
	}

	var flat bytes.Buffer
	WriteFlat(&flat, r)
	for _, want := range []string{"grid", "histogram", "classified misses", "hot lines"} {
		if !bytes.Contains(flat.Bytes(), []byte(want)) {
			t.Errorf("flat report missing %q:\n%s", want, flat.String())
		}
	}
	var diff bytes.Buffer
	WriteDiff(&diff, r, r)
	if !bytes.Contains(diff.Bytes(), []byte("Δmisses +0")) {
		t.Errorf("self-diff should be zero:\n%s", diff.String())
	}
}

// The manifest summary keeps the per-region class split.
func TestSummary(t *testing.T) {
	c, grid, _ := newCollector(t)
	c.Ref(0, 0, false, grid, 1, readMiss(30), 30)
	s := c.Report(0).Summary()
	if s.ClassifiedMisses != 1 || len(s.Regions) != 1 || s.Regions[0].Misses.Cold != 1 {
		t.Errorf("summary = %+v, want 1 cold miss in grid", s)
	}
}

// A collector must refuse reuse across runs: warm per-run state would
// silently corrupt the second run's classification.
func TestStartPanicsOnReuse(t *testing.T) {
	c, _, _ := newCollector(t)
	defer func() {
		if recover() == nil {
			t.Error("second Attach did not panic")
		}
	}()
	attach(t, c, c.as)
}

// A region allocated after the collector's first reference (an
// undeclared machine may allocate during Run) is attributed and
// classified like any other: the line table grows to reach it, and the
// lines it already held keep their presence and last writers.
func TestRegionAllocatedAfterFirstReference(t *testing.T) {
	c, grid, _ := newCollector(t)
	line := grid >> 6
	c.Ref(0, 0, false, grid, 1, readMiss(30), 30)
	c.Ref(4, 1, true, grid+8, 2, writeMiss(), 0)
	c.Invalidated(line, 4, 1, 0, 2)

	late := c.as.Alloc(8*4096, "late")
	c.Ref(0, 0, false, late+5*4096, 3, readMiss(30), 30)
	// Cluster 0 lost the grid line to cluster 1's write of word 1.
	c.Ref(0, 0, false, grid+8, 4, readMiss(100), 100)

	r := c.Report(10)
	got := map[string]ClassCounts{}
	for _, reg := range r.Regions {
		got[reg.Name] = reg.Misses
	}
	want := map[string]ClassCounts{
		"grid": {Cold: 2, TrueSharing: 1},
		"late": {Cold: 1},
	}
	if len(got) != len(want) || got["grid"] != want["grid"] || got["late"] != want["late"] {
		t.Errorf("region misses = %+v, want %+v", got, want)
	}
	var found bool
	for _, l := range r.HotLines {
		if l.Region == "late" {
			found = true
			if l.Offset != 5*4096 || l.Misses != (ClassCounts{Cold: 1}) {
				t.Errorf("late line = %+v, want offset %#x and one cold miss", l, 5*4096)
			}
		}
	}
	if !found {
		t.Errorf("hot lines %+v miss the late region's line", r.HotLines)
	}
}

// Hot lines rank by misses, then by line number: of 12 lines with equal
// misses, referenced out of address order over two pages, the 10 lowest
// are listed in order, and a line with more misses ranks first.
func TestHotLinesTopNOrder(t *testing.T) {
	c, grid, _ := newCollector(t)
	var lines []uint64
	for k := uint64(0); k < 12; k++ {
		off := (k * 67 % 125) * 64 // 125 distinct lines of grid, two pages
		c.Ref(0, 0, false, grid+off, Clock(k), readMiss(30), 30)
		lines = append(lines, (grid+off)>>6)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	ranked := func(r *Report) []uint64 {
		var out []uint64
		for _, l := range r.HotLines {
			out = append(out, l.Line)
		}
		return out
	}
	if got := ranked(c.Report(10)); !reflect.DeepEqual(got, lines[:10]) {
		t.Errorf("equal misses: hot lines %v, want the 10 lowest %v", got, lines[:10])
	}
	c.Ref(4, 1, false, lines[11]<<6, 20, readMiss(30), 30)
	want := append([]uint64{lines[11]}, lines[:9]...)
	if got := ranked(c.Report(10)); !reflect.DeepEqual(got, want) {
		t.Errorf("one line with 2 misses: hot lines %v, want %v", got, want)
	}
}

// Reset zeroes each line's counters and its invalidator→victim pairs,
// but keeps presence and last writers: a line invalidated before the
// reset is listed afterwards with only its post-reset miss.
func TestResetZeroesLineCounters(t *testing.T) {
	c, grid, _ := newCollector(t)
	line := grid >> 6
	c.Ref(0, 0, false, grid, 1, readMiss(30), 30)
	c.Ref(4, 1, true, grid+8, 2, writeMiss(), 0)
	c.Invalidated(line, 4, 1, 0, 2)
	if hot := c.Report(10).HotLines; len(hot) != 1 || hot[0].Invalidations != 1 || len(hot[0].Pairs) != 1 {
		t.Fatalf("before reset: hot lines %+v, want one line with an invalidation and its pair", hot)
	}

	c.Reset(0, 0)
	if hot := c.Report(10).HotLines; len(hot) != 0 {
		t.Errorf("after reset: hot lines %+v, want none", hot)
	}
	c.Ref(0, 0, false, grid+8, 10, readMiss(100), 100)
	hot := c.Report(10).HotLines
	want := LineReport{Line: line, Addr: grid, Region: "grid", Misses: ClassCounts{TrueSharing: 1}, StallCycles: 100}
	if len(hot) != 1 || !reflect.DeepEqual(hot[0], want) {
		t.Errorf("after reset: hot lines %+v, want %+v", hot, want)
	}
}
