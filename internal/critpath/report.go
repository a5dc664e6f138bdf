package critpath

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"clustersim/internal/stats"
)

// SchemaV1 identifies the critical-path document layout.
const SchemaV1 = "clustersim/critpath/v1"

// DefaultTopLocks bounds the contended-locks table in reports.
const DefaultTopLocks = 10

// Report is the exported critical-path profile of one run: the
// barrier-delimited phases with their per-PE breakdowns, the barrier
// imbalance and lock contention tables, and the critical-path walk. It
// serialises deterministically — every slice is sorted with a total
// order — so two runs of the same configuration produce byte-identical
// JSON.
type Report struct {
	Schema     string `json:"schema"`
	App        string `json:"app,omitempty"`
	Size       string `json:"size,omitempty"`
	ConfigHash string `json:"configHash,omitempty"`

	Procs    int `json:"procs"`
	Clusters int `json:"clusters"`

	ExecTime Clock `json:"execTime"`
	// IdealExecTime is the sum over phases of the perfectly balanced
	// phase span: total non-sync work divided evenly over the
	// processors, rounded up. BalanceSpeedup = ExecTime/IdealExecTime
	// is the headroom pure load balancing could buy without touching a
	// single cache miss.
	IdealExecTime  Clock   `json:"idealExecTime"`
	BalanceSpeedup float64 `json:"balanceSpeedup"`

	Phases       []PhaseReport   `json:"phases"`
	Barriers     []BarrierReport `json:"barriers,omitempty"`
	Locks        []LockReport    `json:"locks,omitempty"`
	LocksTotal   int             `json:"locksTotal,omitempty"` // locks seen, before the top-N cut
	CriticalPath []PathLink      `json:"criticalPath"`
	LastArrivers []PECount       `json:"lastArrivers,omitempty"`
}

// PhaseReport is one barrier-delimited interval of the run. The per-PE
// breakdowns of all phases tile each processor's whole-run breakdown
// exactly.
type PhaseReport struct {
	Index  int    `json:"index"`
	Name   string `json:"name"`   // "<barrier>#<n>", or "(run end)"
	SyncID int    `json:"syncID"` // -1 for the trailing run-end phase
	Start  Clock  `json:"start"`
	End    Clock  `json:"end"`

	// LastArriver is the processor whose arrival released the phase's
	// closing barrier — the PE on the critical path through this phase.
	LastArriver     int   `json:"lastArriver"`
	ImbalanceCycles int64 `json:"imbalanceCycles"`

	Aggregate stats.Breakdown   `json:"aggregate"`
	PerPE     []stats.Breakdown `json:"perPE"`
}

// Span returns the phase's length in cycles.
func (p PhaseReport) Span() Clock { return p.End - p.Start }

// Work returns the phase's aggregate non-sync cycles — the load a
// perfect balancer would spread evenly.
func (p PhaseReport) Work() int64 {
	return p.Aggregate.CPU + p.Aggregate.LoadStall + p.Aggregate.MergeStall
}

// IdealSpan returns the phase's perfectly balanced span: Work spread
// evenly over n processors, rounded up.
func (p PhaseReport) IdealSpan(n int) Clock {
	if n <= 0 {
		return p.Span()
	}
	return Clock((p.Work() + int64(n) - 1) / int64(n))
}

// BarrierReport aggregates one barrier's release episodes.
type BarrierReport struct {
	Name         string    `json:"name"`
	ID           int       `json:"id"`
	Participants int       `json:"participants"`
	Episodes     int       `json:"episodes"`
	WaitCycles   int64     `json:"waitCycles"`
	MaxWait      int64     `json:"maxWait"`
	LastArrivers []PECount `json:"lastArrivers,omitempty"`
}

// LockReport aggregates one lock's contention profile.
type LockReport struct {
	Name          string         `json:"name"`
	ID            int            `json:"id"`
	Acquisitions  uint64         `json:"acquisitions"`
	Contended     uint64         `json:"contended"`
	HoldCycles    int64          `json:"holdCycles"`
	MaxHold       int64          `json:"maxHold"`
	WaitCycles    int64          `json:"waitCycles"`
	MaxWait       int64          `json:"maxWait"`
	MaxQueueDepth int            `json:"maxQueueDepth"`
	Pairs         []HolderWaiter `json:"pairs,omitempty"`
}

// HolderWaiter attributes wait cycles on a lock from the waiter to the
// holder whose release granted it.
type HolderWaiter struct {
	Holder     int   `json:"holder"`
	Waiter     int   `json:"waiter"`
	WaitCycles int64 `json:"waitCycles"`
}

// maxPairsPerLock bounds the holder→waiter pairs listed per lock.
const maxPairsPerLock = 6

// PathLink is one step of the critical path: the processor that bound
// one phase and how its span there decomposed.
type PathLink struct {
	Phase      int             `json:"phase"`
	PE         int             `json:"pe"`
	SpanCycles Clock           `json:"spanCycles"`
	Breakdown  stats.Breakdown `json:"breakdown"`
}

// PECount counts how often one processor was a last arriver.
type PECount struct {
	PE    int    `json:"pe"`
	Count uint64 `json:"count"`
}

// Report builds the exported profile, listing the topLocks most
// contended locks by wait cycles (ties broken by sync ID, a total
// order). topLocks <= 0 uses DefaultTopLocks. Call after Finish.
func (a *Analyzer) Report(topLocks int) *Report {
	if !a.finished {
		panic("critpath: Report before Finish")
	}
	if topLocks <= 0 {
		topLocks = DefaultTopLocks
	}
	r := &Report{
		Schema:   SchemaV1,
		Procs:    a.procs,
		Clusters: a.clusters,
		ExecTime: a.execTime,
		Phases:   make([]PhaseReport, 0, len(a.phases)),
	}
	lastBy := make([]uint64, a.procs)
	for i, ph := range a.phases {
		pr := PhaseReport{
			Index: i, Name: ph.name, SyncID: ph.syncID,
			Start: ph.start, End: ph.end,
			LastArriver: ph.last, ImbalanceCycles: ph.imbalance,
			PerPE: ph.perPE,
		}
		for _, b := range ph.perPE {
			pr.Aggregate = pr.Aggregate.Plus(b)
		}
		r.Phases = append(r.Phases, pr)
		r.IdealExecTime += pr.IdealSpan(a.procs)
		lastBy[ph.last]++
		link := PathLink{Phase: i, PE: ph.last, SpanCycles: pr.Span()}
		if ph.last < len(ph.perPE) {
			link.Breakdown = ph.perPE[ph.last]
		}
		r.CriticalPath = append(r.CriticalPath, link)
	}
	if r.IdealExecTime > 0 {
		r.BalanceSpeedup = float64(r.ExecTime) / float64(r.IdealExecTime)
	}
	for pe, n := range lastBy {
		if n > 0 {
			r.LastArrivers = append(r.LastArrivers, PECount{PE: pe, Count: n})
		}
	}
	r.Barriers = a.barrierReports()
	r.Locks, r.LocksTotal = a.lockReports(topLocks)
	return r
}

// barrierReports lists every barrier with at least one episode, in
// sync-ID order.
func (a *Analyzer) barrierReports() []BarrierReport {
	var out []BarrierReport
	for id, b := range a.barriers {
		if b == nil || b.episodes == 0 {
			continue
		}
		br := BarrierReport{
			Name: a.syncName(id), ID: id, Participants: a.syncs[id].Participants,
			Episodes: b.episodes, WaitCycles: b.waitCycles, MaxWait: b.maxWait,
		}
		for pe, n := range b.lastBy {
			if n > 0 {
				br.LastArrivers = append(br.LastArrivers, PECount{PE: pe, Count: n})
			}
		}
		out = append(out, br)
	}
	return out
}

// lockReports ranks locks with at least one acquisition by wait
// cycles, then hold cycles, then sync ID, cut to the top n; the second
// result is the count before the cut.
func (a *Analyzer) lockReports(n int) ([]LockReport, int) {
	var out []LockReport
	for id, l := range a.locks {
		if l == nil || l.acquisitions == 0 {
			continue
		}
		out = append(out, LockReport{
			Name: a.syncName(id), ID: id,
			Acquisitions: l.acquisitions, Contended: l.contended,
			HoldCycles: l.holdCycles, MaxHold: l.maxHold,
			WaitCycles: l.waitCycles, MaxWait: l.maxWait,
			MaxQueueDepth: l.maxQueue,
			Pairs:         sortPairs(l.pairs),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WaitCycles != out[j].WaitCycles {
			return out[i].WaitCycles > out[j].WaitCycles
		}
		if out[i].HoldCycles != out[j].HoldCycles {
			return out[i].HoldCycles > out[j].HoldCycles
		}
		return out[i].ID < out[j].ID
	})
	total := len(out)
	if len(out) > n {
		out = out[:n]
	}
	return out, total
}

func sortPairs(pairs map[pairKey]int64) []HolderWaiter {
	if len(pairs) == 0 {
		return nil
	}
	out := make([]HolderWaiter, 0, len(pairs))
	for k, w := range pairs { //simlint:allow maprange — fully sorted below
		out = append(out, HolderWaiter{Holder: int(k.holder), Waiter: int(k.waiter), WaitCycles: w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WaitCycles != out[j].WaitCycles {
			return out[i].WaitCycles > out[j].WaitCycles
		}
		if out[i].Holder != out[j].Holder {
			return out[i].Holder < out[j].Holder
		}
		return out[i].Waiter < out[j].Waiter
	})
	if len(out) > maxPairsPerLock {
		out = out[:maxPairsPerLock]
	}
	return out
}

// Summary is the compact critical-path block embedded in telemetry run
// manifests.
type Summary struct {
	Phases         int     `json:"phases"`
	ExecTime       Clock   `json:"execTime"`
	IdealExecTime  Clock   `json:"idealExecTime"`
	BalanceSpeedup float64 `json:"balanceSpeedup"`
	CriticalPE     int     `json:"criticalPE"`
	TopLock        string  `json:"topLock,omitempty"`
	TopLockWait    int64   `json:"topLockWaitCycles,omitempty"`
}

// Summary condenses the report for a run manifest. CriticalPE is the
// processor that bound the most phases (ties to the lowest PE).
func (r *Report) Summary() *Summary {
	s := &Summary{
		Phases: len(r.Phases), ExecTime: r.ExecTime,
		IdealExecTime: r.IdealExecTime, BalanceSpeedup: r.BalanceSpeedup,
	}
	var best uint64
	for _, pc := range r.LastArrivers {
		if pc.Count > best {
			best, s.CriticalPE = pc.Count, pc.PE
		}
	}
	if len(r.Locks) > 0 {
		s.TopLock = r.Locks[0].Name
		s.TopLockWait = r.Locks[0].WaitCycles
	}
	return s
}

// WriteReport writes r as indented JSON.
func WriteReport(w io.Writer, r *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses one critical-path document.
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("critpath: bad critpath document: %w", err)
	}
	if r.Schema != SchemaV1 {
		return nil, fmt.Errorf("critpath: unknown critpath schema %q", r.Schema)
	}
	return &r, nil
}

func pctI(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// WriteFlat renders the report as a pprof-style flat table: phases
// ranked by span with their breakdown split, last arriver and
// imbalance, then the barrier and contended-lock tables and the
// critical-path summary.
func WriteFlat(w io.Writer, r *Report) {
	fmt.Fprintf(w, "critical path")
	if r.App != "" {
		fmt.Fprintf(w, ": %s (%s size)", r.App, r.Size)
	}
	fmt.Fprintf(w, "  procs=%d clusters=%d\n", r.Procs, r.Clusters)
	fmt.Fprintf(w, "exec %d cycles, balanced ideal %d cycles (%.2fx headroom), %d phases\n\n",
		r.ExecTime, r.IdealExecTime, r.BalanceSpeedup, len(r.Phases))

	fmt.Fprintf(w, "%-4s %-18s %10s %6s %6s %6s %6s %6s %5s %10s\n",
		"#", "phase", "span", "span%", "cpu%", "load%", "merge%", "sync%", "last", "imbalance")
	for _, ph := range r.Phases {
		tot := ph.Aggregate.Total()
		fmt.Fprintf(w, "%-4d %-18s %10d %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%% P%-4d %10d\n",
			ph.Index, ph.Name, ph.Span(), pctI(int64(ph.Span()), int64(r.ExecTime)),
			pctI(ph.Aggregate.CPU, tot), pctI(ph.Aggregate.LoadStall, tot),
			pctI(ph.Aggregate.MergeStall, tot), pctI(ph.Aggregate.SyncWait, tot),
			ph.LastArriver, ph.ImbalanceCycles)
	}

	if len(r.Barriers) > 0 {
		fmt.Fprintf(w, "\nbarriers:\n")
		fmt.Fprintf(w, "%-18s %5s %9s %12s %10s  %s\n",
			"name", "width", "episodes", "wait-cyc", "max-wait", "last arrivers")
		for _, b := range r.Barriers {
			fmt.Fprintf(w, "%-18s %5d %9d %12d %10d ",
				b.Name, b.Participants, b.Episodes, b.WaitCycles, b.MaxWait)
			for i, pc := range b.LastArrivers {
				if i > 0 {
					fmt.Fprintf(w, ",")
				}
				fmt.Fprintf(w, " P%d×%d", pc.PE, pc.Count)
			}
			fmt.Fprintln(w)
		}
	}

	if len(r.Locks) > 0 {
		fmt.Fprintf(w, "\ncontended locks (top %d of %d by wait cycles):\n", len(r.Locks), r.LocksTotal)
		fmt.Fprintf(w, "%-18s %9s %9s %10s %10s %6s  %s\n",
			"name", "acquires", "contended", "wait-cyc", "hold-cyc", "maxq", "holder→waiter")
		for _, l := range r.Locks {
			fmt.Fprintf(w, "%-18s %9d %9d %10d %10d %6d ",
				l.Name, l.Acquisitions, l.Contended, l.WaitCycles, l.HoldCycles, l.MaxQueueDepth)
			for i, p := range l.Pairs {
				if i > 0 {
					fmt.Fprintf(w, ",")
				}
				fmt.Fprintf(w, " P%d→P%d×%d", p.Holder, p.Waiter, p.WaitCycles)
			}
			fmt.Fprintln(w)
		}
	}

	if len(r.LastArrivers) > 0 {
		fmt.Fprintf(w, "\ncritical path (phases bound per PE):")
		for _, pc := range r.LastArrivers {
			fmt.Fprintf(w, "  P%d×%d", pc.PE, pc.Count)
		}
		fmt.Fprintln(w)
	}
}

// WriteDiff renders the per-phase delta between two reports (new minus
// old), matched by phase name, ranked by absolute span change. Phases
// present on only one side appear with the other side treated as zero.
func WriteDiff(w io.Writer, old, cur *Report) {
	type row struct {
		name                        string
		dSpan, dSync, dWork, dImbal int64
	}
	oldBy := make(map[string]PhaseReport, len(old.Phases))
	for _, ph := range old.Phases {
		oldBy[ph.Name] = ph
	}
	seen := make(map[string]bool)
	var rows []row
	addRow := func(name string, o, n PhaseReport) {
		rows = append(rows, row{
			name:   name,
			dSpan:  int64(n.Span()) - int64(o.Span()),
			dSync:  n.Aggregate.SyncWait - o.Aggregate.SyncWait,
			dWork:  n.Work() - o.Work(),
			dImbal: n.ImbalanceCycles - o.ImbalanceCycles,
		})
	}
	for _, ph := range cur.Phases {
		seen[ph.Name] = true
		addRow(ph.Name, oldBy[ph.Name], ph)
	}
	for _, ph := range old.Phases {
		if !seen[ph.Name] {
			addRow(ph.Name, ph, PhaseReport{})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		ai, aj := abs64(rows[i].dSpan), abs64(rows[j].dSpan)
		if ai != aj {
			return ai > aj
		}
		return rows[i].name < rows[j].name
	})
	fmt.Fprintf(w, "critpath diff (new - old): Δexec %+d cycles  Δideal %+d cycles\n",
		int64(cur.ExecTime)-int64(old.ExecTime),
		int64(cur.IdealExecTime)-int64(old.IdealExecTime))
	fmt.Fprintf(w, "%-18s %12s %12s %12s %12s\n",
		"phase", "Δspan", "Δsync-cyc", "Δwork-cyc", "Δimbalance")
	for _, rw := range rows {
		fmt.Fprintf(w, "%-18s %+12d %+12d %+12d %+12d\n",
			rw.name, rw.dSpan, rw.dSync, rw.dWork, rw.dImbal)
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
