package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
)

// SchemaV1 identifies the sharing-profile document layout.
const SchemaV1 = "clustersim/profile/v1"

// Report is the exported sharing profile of one run: per-region miss
// attribution, the hottest individual cache lines, and placement
// outcomes. It serialises deterministically — every slice is sorted
// with a total order — so two runs of the same configuration produce
// byte-identical JSON.
type Report struct {
	Schema     string `json:"schema"`
	App        string `json:"app,omitempty"`
	Size       string `json:"size,omitempty"`
	ConfigHash string `json:"configHash,omitempty"`

	LineBytes uint64 `json:"lineBytes"`
	WordBytes uint64 `json:"wordBytes"`
	PageBytes uint64 `json:"pageBytes"`
	Clusters  int    `json:"clusters"`

	Totals   Totals         `json:"totals"`
	Regions  []RegionReport `json:"regions"`
	HotLines []LineReport   `json:"hotLines,omitempty"`
}

// Totals is the machine-wide aggregate of the report.
type Totals struct {
	Reads       uint64      `json:"reads"`
	Writes      uint64      `json:"writes"`
	Hits        uint64      `json:"hits"`
	Upgrades    uint64      `json:"upgrades"`
	Merges      uint64      `json:"merges"`
	Misses      ClassCounts `json:"misses"`
	StallCycles Clock       `json:"stallCycles"`
}

// RegionReport is one named allocator region's profile.
type RegionReport struct {
	Name  string `json:"name"`
	Bytes uint64 `json:"bytes"`
	Pages uint64 `json:"pages"`

	Reads    uint64 `json:"reads"`
	Writes   uint64 `json:"writes"`
	Hits     uint64 `json:"hits"`
	Upgrades uint64 `json:"upgrades"`
	Merges   uint64 `json:"merges"`

	Misses     ClassCounts `json:"misses"`
	Stalls     StallCycles `json:"stallCycles"`
	MergeStall Clock       `json:"mergeStallCycles"`

	// Placement outcome: where the region's fetch misses were served.
	LocalHome    uint64 `json:"localHomeFetches"`
	RemoteHome   uint64 `json:"remoteHomeFetches"`
	IntraCluster uint64 `json:"intraClusterFetches,omitempty"`
}

// LocalHomeFraction returns the share of home-serviced fetches that hit
// the page's local home — the quantity the round-robin vs. first-touch
// placement policies move.
func (r RegionReport) LocalHomeFraction() float64 {
	total := r.LocalHome + r.RemoteHome
	if total == 0 {
		return 0
	}
	return float64(r.LocalHome) / float64(total)
}

// LineReport is one hot cache line.
type LineReport struct {
	Line   uint64 `json:"line"` // line number (addr >> log2(LineBytes))
	Addr   uint64 `json:"addr"` // base address of the line
	Region string `json:"region"`
	Offset uint64 `json:"offset"` // byte offset of the line within its region

	Misses        ClassCounts `json:"misses"`
	StallCycles   Clock       `json:"stallCycles"`
	Invalidations uint64      `json:"invalidations"`
	Pairs         []PairCount `json:"pairs,omitempty"`
}

// PairCount counts invalidations from one writing processor to one
// victim cluster on a line — who is fighting whom.
type PairCount struct {
	WriterPE      int    `json:"writerPE"`
	VictimCluster int    `json:"victimCluster"`
	Count         uint64 `json:"count"`
}

// maxPairsPerLine bounds the invalidator→victim pairs listed per line.
const maxPairsPerLine = 6

// Report builds the exported profile, ranking the topLines hottest
// cache lines by classified misses (ties broken by line number, so the
// ranking is a total order).
func (c *Collector) Report(topLines int) *Report {
	r := &Report{
		Schema:    SchemaV1,
		LineBytes: c.lineBytes,
		WordBytes: WordBytes,
		PageBytes: c.as.PageBytes(),
		Clusters:  c.clusters,
	}
	regions := c.as.Regions()
	for i, reg := range regions {
		var acc regionAccum
		if i < len(c.regions) {
			acc = c.regions[i]
		}
		if acc == (regionAccum{}) {
			continue // never referenced in the measured phase
		}
		r.Regions = append(r.Regions, regionReport(reg.Name, reg.Size, c.pagesOf(reg.Base, reg.Size), acc))
	}
	if c.spill != (regionAccum{}) {
		r.Regions = append(r.Regions, regionReport("(unattributed)", 0, 0, c.spill))
	}
	// Rank regions by classified misses, then stall, then name.
	sort.SliceStable(r.Regions, func(i, j int) bool {
		a, b := r.Regions[i], r.Regions[j]
		if am, bm := a.Misses.Total(), b.Misses.Total(); am != bm {
			return am > bm
		}
		if as, bs := a.Stalls.Total(), b.Stalls.Total(); as != bs {
			return as > bs
		}
		return a.Name < b.Name
	})
	for _, reg := range r.Regions {
		r.Totals.Reads += reg.Reads
		r.Totals.Writes += reg.Writes
		r.Totals.Hits += reg.Hits
		r.Totals.Upgrades += reg.Upgrades
		r.Totals.Merges += reg.Merges
		r.Totals.Misses = r.Totals.Misses.Plus(reg.Misses)
		r.Totals.StallCycles += reg.Stalls.Total() + reg.MergeStall
	}
	r.HotLines = c.hotLines(topLines)
	return r
}

func regionReport(name string, bytes, pages uint64, acc regionAccum) RegionReport {
	return RegionReport{
		Name:         name,
		Bytes:        bytes,
		Pages:        pages,
		Reads:        acc.reads,
		Writes:       acc.writes,
		Hits:         acc.hits,
		Upgrades:     acc.upgrades,
		Merges:       acc.merges,
		Misses:       acc.misses,
		Stalls:       acc.stalls,
		MergeStall:   acc.mergeStall,
		LocalHome:    acc.localHome,
		RemoteHome:   acc.remoteHome,
		IntraCluster: acc.intraCluster,
	}
}

func (c *Collector) pagesOf(base, size uint64) uint64 {
	if size == 0 {
		return 0
	}
	pb := c.as.PageBytes()
	return (base+size-1)/pb - base/pb + 1
}

// hotLines ranks the top-n lines by classified misses, ties broken by
// line number. It visits the pages in address order, so a line that
// ties one already ranked ranks after it: the ranking is selected in
// one pass, and a report is built only for the n lines it keeps.
func (c *Collector) hotLines(n int) []LineReport {
	if n <= 0 {
		return nil
	}
	type hot struct {
		line, misses uint64
		counts       lineCounts
	}
	var top []hot
	for p, pg := range c.pages {
		if pg == nil {
			continue
		}
		for j, lc := range pg.counts {
			m := lc.misses.Total()
			if m == 0 || len(top) == n && m <= top[n-1].misses {
				continue
			}
			i := sort.Search(len(top), func(i int) bool { return top[i].misses < m })
			top = slices.Insert(top, i, hot{c.firstLine + uint64(p)<<c.pageShift + uint64(j), m, lc})
			top = top[:min(len(top), n)]
		}
	}
	out := make([]LineReport, len(top))
	rank := make(map[uint64]int, len(top))
	for i, h := range top {
		addr := h.line << c.lineShift
		name, off := "(unattributed)", uint64(0)
		if reg, ok := c.as.RegionOf(addr); ok {
			name, off = reg.Name, addr-reg.Base
		}
		out[i] = LineReport{
			Line:          h.line,
			Addr:          addr,
			Region:        name,
			Offset:        off,
			Misses:        h.counts.misses,
			StallCycles:   h.counts.stall,
			Invalidations: h.counts.invals,
		}
		rank[h.line] = i
	}
	for k, count := range c.pairs {
		if i, ok := rank[k.line]; ok {
			out[i].Pairs = append(out[i].Pairs, PairCount{WriterPE: int(k.writerPE), VictimCluster: int(k.victim), Count: count}) //simlint:allow maprange — fully sorted below
		}
	}
	for i := range out {
		out[i].Pairs = sortPairs(out[i].Pairs)
	}
	return out
}

// sortPairs orders one line's pairs by count, then writer, then victim,
// and keeps the first maxPairsPerLine.
func sortPairs(out []PairCount) []PairCount {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].WriterPE != out[j].WriterPE {
			return out[i].WriterPE < out[j].WriterPE
		}
		return out[i].VictimCluster < out[j].VictimCluster
	})
	return out[:min(len(out), maxPairsPerLine)]
}

// Summary is the compact per-region miss-class block embedded in
// telemetry run manifests.
type Summary struct {
	ClassifiedMisses uint64          `json:"classifiedMisses"`
	Regions          []RegionSummary `json:"regions,omitempty"`
}

// RegionSummary is one region's miss-class totals.
type RegionSummary struct {
	Name   string      `json:"name"`
	Misses ClassCounts `json:"misses"`
}

// Summary condenses the report for a run manifest.
func (r *Report) Summary() *Summary {
	s := &Summary{ClassifiedMisses: r.Totals.Misses.Total()}
	for _, reg := range r.Regions {
		s.Regions = append(s.Regions, RegionSummary{Name: reg.Name, Misses: reg.Misses})
	}
	return s
}

// WriteReport writes r as indented JSON.
func WriteReport(w io.Writer, r *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses one profile document.
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("profile: bad profile document: %w", err)
	}
	if r.Schema != SchemaV1 {
		return nil, fmt.Errorf("profile: unknown profile schema %q", r.Schema)
	}
	return &r, nil
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// WriteFlat renders the report as a pprof-style flat table: regions
// ranked by classified misses with flat/cumulative percentages and the
// miss-class split, followed by the hot-line ranking.
func WriteFlat(w io.Writer, r *Report) {
	fmt.Fprintf(w, "sharing profile")
	if r.App != "" {
		fmt.Fprintf(w, ": %s (%s size)", r.App, r.Size)
	}
	fmt.Fprintf(w, "  line=%dB word=%dB page=%dB clusters=%d\n",
		r.LineBytes, r.WordBytes, r.PageBytes, r.Clusters)
	total := r.Totals.Misses.Total()
	fmt.Fprintf(w, "classified misses: %d (cold %.1f%%  repl %.1f%%  true %.1f%%  false %.1f%%), stall %d cycles\n\n",
		total, pct(r.Totals.Misses.Cold, total), pct(r.Totals.Misses.Replacement, total),
		pct(r.Totals.Misses.TrueSharing, total), pct(r.Totals.Misses.FalseSharing, total),
		r.Totals.StallCycles)

	fmt.Fprintf(w, "%-16s %10s %6s %6s %9s %9s %9s %9s %12s %7s\n",
		"region", "misses", "flat%", "sum%", "cold", "repl", "true", "false", "stall-cyc", "local%")
	var cum uint64
	for _, reg := range r.Regions {
		m := reg.Misses.Total()
		cum += m
		fmt.Fprintf(w, "%-16s %10d %5.1f%% %5.1f%% %9d %9d %9d %9d %12d %6.1f%%\n",
			reg.Name, m, pct(m, total), pct(cum, total),
			reg.Misses.Cold, reg.Misses.Replacement, reg.Misses.TrueSharing, reg.Misses.FalseSharing,
			reg.Stalls.Total(), 100*reg.LocalHomeFraction())
	}

	if len(r.HotLines) > 0 {
		fmt.Fprintf(w, "\nhot lines (top %d by classified misses):\n", len(r.HotLines))
		for _, l := range r.HotLines {
			fmt.Fprintf(w, "  %#012x %s+%#x  misses %d (cold %d repl %d true %d false %d)  invals %d",
				l.Addr, l.Region, l.Offset, l.Misses.Total(),
				l.Misses.Cold, l.Misses.Replacement, l.Misses.TrueSharing, l.Misses.FalseSharing,
				l.Invalidations)
			for i, p := range l.Pairs {
				if i == 0 {
					fmt.Fprintf(w, "  pairs ")
				} else {
					fmt.Fprintf(w, ", ")
				}
				fmt.Fprintf(w, "PE%d→cl%d×%d", p.WriterPE, p.VictimCluster, p.Count)
			}
			fmt.Fprintln(w)
		}
	}
}

// WriteDiff renders the per-region delta between two profiles (new
// minus old), ranked by absolute change in classified misses. Regions
// present on only one side appear with the other side treated as zero.
func WriteDiff(w io.Writer, old, cur *Report) {
	type row struct {
		name          string
		dMiss         int64
		dCold, dRepl  int64
		dTrue, dFalse int64
		dStall        int64
	}
	oldBy := make(map[string]RegionReport, len(old.Regions))
	for _, reg := range old.Regions {
		oldBy[reg.Name] = reg
	}
	seen := make(map[string]bool)
	var rows []row
	addRow := func(name string, o, n RegionReport) {
		rows = append(rows, row{
			name:   name,
			dMiss:  int64(n.Misses.Total()) - int64(o.Misses.Total()),
			dCold:  int64(n.Misses.Cold) - int64(o.Misses.Cold),
			dRepl:  int64(n.Misses.Replacement) - int64(o.Misses.Replacement),
			dTrue:  int64(n.Misses.TrueSharing) - int64(o.Misses.TrueSharing),
			dFalse: int64(n.Misses.FalseSharing) - int64(o.Misses.FalseSharing),
			dStall: int64(n.Stalls.Total()) - int64(o.Stalls.Total()),
		})
	}
	for _, reg := range cur.Regions {
		seen[reg.Name] = true
		addRow(reg.Name, oldBy[reg.Name], reg)
	}
	for _, reg := range old.Regions {
		if !seen[reg.Name] {
			addRow(reg.Name, reg, RegionReport{})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		ai, aj := abs64(rows[i].dMiss), abs64(rows[j].dMiss)
		if ai != aj {
			return ai > aj
		}
		return rows[i].name < rows[j].name
	})
	fmt.Fprintf(w, "profile diff (new - old): Δmisses %+d  Δstall %+d cycles\n",
		int64(cur.Totals.Misses.Total())-int64(old.Totals.Misses.Total()),
		int64(cur.Totals.StallCycles)-int64(old.Totals.StallCycles))
	fmt.Fprintf(w, "%-16s %10s %9s %9s %9s %9s %12s\n",
		"region", "Δmisses", "Δcold", "Δrepl", "Δtrue", "Δfalse", "Δstall-cyc")
	for _, rw := range rows {
		fmt.Fprintf(w, "%-16s %+10d %+9d %+9d %+9d %+9d %+12d\n",
			rw.name, rw.dMiss, rw.dCold, rw.dRepl, rw.dTrue, rw.dFalse, rw.dStall)
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
