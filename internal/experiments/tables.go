package experiments

import (
	"fmt"

	"clustersim/internal/apps/registry"
	"clustersim/internal/coherence"
	"clustersim/internal/contention"
)

// Table1 prints the memory-operation latencies the simulator uses.
func Table1(opt Options) error {
	w := opt.out()
	l := coherence.DefaultLatencies()
	fmt.Fprintln(w, "Table 1: Latency of Memory Operations (cycles)")
	fmt.Fprintf(w, "  Hit in cache (1 processor per cluster)                 %5d\n", coherence.SharedCacheHitCycles(1))
	fmt.Fprintf(w, "  Hit in cache (2 processors per cluster)                %5d\n", coherence.SharedCacheHitCycles(2))
	fmt.Fprintf(w, "  Hit in cache (4 and 8 processors per cluster)          %5d\n", coherence.SharedCacheHitCycles(4))
	fmt.Fprintf(w, "  Miss to local home, satisfied by home cluster          %5d\n", l.LocalClean)
	fmt.Fprintf(w, "  Miss to local home, satisfied by remote cluster        %5d\n", l.LocalDirty)
	fmt.Fprintf(w, "  Miss to remote home, satisfied by home                 %5d\n", l.RemoteClean)
	fmt.Fprintf(w, "  Miss to remote home, satisfied by third party cluster  %5d\n", l.RemoteDirty)
	return nil
}

// Table2 prints the application inventory.
func Table2(opt Options) error {
	w := opt.out()
	fmt.Fprintln(w, "Table 2: Applications and Problem Sizes")
	fmt.Fprintf(w, "%-10s %-42s %s\n", "app", "representative of", "paper problem size")
	for _, wk := range registry.All() {
		fmt.Fprintf(w, "%-10s %-42s %s\n", wk.Name, wk.Representative, wk.PaperProblem)
	}
	return nil
}

// WorkingSetRow is one application's measured working-set knee.
type WorkingSetRow struct {
	App string
	// MissRateAtKB maps swept per-processor cache sizes to the read miss
	// rate of the unclustered machine.
	MissRateAtKB map[int]float64
	InfMissRate  float64
	// KneeKB is the smallest swept cache whose miss rate comes within
	// 25% of the infinite-cache rate; 0 if even the largest does not.
	KneeKB int
}

// WorkingSetSweepKB are the per-processor cache sizes swept by Table 3.
var WorkingSetSweepKB = []int{1, 2, 4, 8, 16, 32, 64}

// Table3Data measures each application's working-set knee by sweeping
// the unclustered cache size — the quantitative counterpart of the
// paper's Table 3.
func (s *Suite) Table3Data() ([]WorkingSetRow, error) {
	defer prefetch(s, (*Suite).Table3Data)()
	var rows []WorkingSetRow
	for _, wk := range registry.All() {
		inf, err := s.Run(wk.Name, 1, 0)
		if err != nil {
			return nil, err
		}
		row := WorkingSetRow{App: wk.Name, MissRateAtKB: map[int]float64{}}
		row.InfMissRate = inf.Aggregate().ReadMissRate()
		for _, kb := range WorkingSetSweepKB {
			res, err := s.Run(wk.Name, 1, kb)
			if err != nil {
				return nil, err
			}
			mr := res.Aggregate().ReadMissRate()
			row.MissRateAtKB[kb] = mr
			if row.KneeKB == 0 && mr <= row.InfMissRate*1.25+1e-9 {
				row.KneeKB = kb
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintTable3 prints Table 3 (communication structure and measured
// working sets) using the suite's memoized runs.
func (s *Suite) PrintTable3() error {
	rows, err := s.Table3Data()
	if err != nil {
		return err
	}
	w := s.Opt.out()
	fmt.Fprintln(w, "Table 3: Communication Structure and Working Set Sizes")
	fmt.Fprintf(w, "%-10s %-40s %-28s %s\n", "app", "major communication pattern", "paper working set", "measured knee")
	for i, wk := range registry.All() {
		knee := "> 64KB"
		if rows[i].KneeKB > 0 {
			knee = fmt.Sprintf("%d KB", rows[i].KneeKB)
		}
		fmt.Fprintf(w, "%-10s %-40s %-28s %s\n", wk.Name, wk.Communication, wk.WorkingSet, knee)
	}
	fmt.Fprintln(w, "\nread miss rate by per-processor cache size (unclustered):")
	fmt.Fprintf(w, "%-10s", "app")
	for _, kb := range WorkingSetSweepKB {
		fmt.Fprintf(w, " %7dK", kb)
	}
	fmt.Fprintf(w, " %8s\n", "inf")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s", r.App)
		for _, kb := range WorkingSetSweepKB {
			fmt.Fprintf(w, " %7.4f%%", 100*r.MissRateAtKB[kb])
		}
		fmt.Fprintf(w, " %7.4f%%\n", 100*r.InfMissRate)
	}
	return nil
}

// Table4 prints the bank-conflict probabilities.
func Table4(opt Options) error {
	w := opt.out()
	fmt.Fprintln(w, "Table 4: Probabilities of Bank Conflict")
	fmt.Fprintf(w, "%-18s %-10s %s\n", "processors/cache", "banks", "P(collision)")
	for _, n := range ClusterSizes {
		m := contention.Banks(n)
		fmt.Fprintf(w, "%-18d %-10d %.3f\n", n, m, contention.ClusterConflictProbability(n))
	}
	return nil
}

// Table5Row is one application's load-latency expansion factors.
type Table5Row struct {
	App     string
	Factors contention.LoadFactors
}

// Table5Data measures the Table 5 execution-time expansion factors from
// each application's unclustered, infinite-cache profile.
func (s *Suite) Table5Data() ([]Table5Row, error) {
	defer prefetch(s, (*Suite).Table5Data)()
	var rows []Table5Row
	for _, wk := range registry.All() {
		res, err := s.Run(wk.Name, 1, 0)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table5Row{
			App:     wk.Name,
			Factors: contention.LoadLatencyFactors(res, contention.DefaultLoadExposure),
		})
	}
	return rows, nil
}

// PrintTable5 prints Table 5 (load-latency execution-time factors)
// using the suite's memoized runs.
func (s *Suite) PrintTable5() error {
	rows, err := s.Table5Data()
	if err != nil {
		return err
	}
	w := s.Opt.out()
	fmt.Fprintln(w, "Table 5: Load Latency Execution Time Factors")
	fmt.Fprintf(w, "%-10s %8s %8s %8s %8s\n", "app", "1 cycle", "2 cycles", "3 cycles", "4 cycles")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8.3f %8.3f %8.3f %8.3f\n", r.App,
			r.Factors[0], r.Factors[1], r.Factors[2], r.Factors[3])
	}
	return nil
}

// CostedRow is one cell row of Tables 6 and 7.
type CostedRow struct {
	App      string
	Relative map[int]float64 // cluster size -> costed relative time
}

// Table6Apps are the paper's Table 6 applications (4 KB caches).
var Table6Apps = []string{"barnes", "radix", "volrend", "mp3d"}

// Table7Apps are the paper's Table 7 applications (infinite caches).
var Table7Apps = []string{"ocean", "lu"}

// CostedData computes clustering-with-costs rows for the given
// applications at one cache size, combining the simulated times with the
// shared-cache cost factor.
func (s *Suite) CostedData(appNames []string, cacheKB int) ([]CostedRow, error) {
	defer prefetch(s, func(p *Suite) ([]CostedRow, error) { return p.CostedData(appNames, cacheKB) })()
	var rows []CostedRow
	for _, app := range appNames {
		prof, err := s.Run(app, 1, 0)
		if err != nil {
			return nil, err
		}
		lf := contention.LoadLatencyFactors(prof, contention.DefaultLoadExposure)
		base, err := s.Run(app, 1, cacheKB)
		if err != nil {
			return nil, err
		}
		row := CostedRow{App: app, Relative: map[int]float64{}}
		for _, cs := range ClusterSizes {
			res, err := s.Run(app, cs, cacheKB)
			if err != nil {
				return nil, err
			}
			row.Relative[cs] = contention.CostedRelativeTime(res, base, lf)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func printCosted(opt Options, title string, rows []CostedRow) {
	w := opt.out()
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-10s", "app")
	for _, cs := range ClusterSizes {
		fmt.Fprintf(w, " %8s", fmt.Sprintf("%d-way", cs))
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s", r.App)
		for _, cs := range ClusterSizes {
			fmt.Fprintf(w, " %8.2f", r.Relative[cs])
		}
		fmt.Fprintln(w)
	}
}

// PrintTable6 prints Table 6 (costed clustering, 4 KB caches) using
// the suite's memoized runs.
func (s *Suite) PrintTable6() error {
	rows, err := s.CostedData(Table6Apps, 4)
	if err != nil {
		return err
	}
	printCosted(s.Opt, "Table 6: Relative Execution Time of Clustering with 4KB Caches", rows)
	return nil
}

// PrintTable7 prints Table 7 (costed clustering, infinite caches)
// using the suite's memoized runs.
func (s *Suite) PrintTable7() error {
	rows, err := s.CostedData(Table7Apps, 0)
	if err != nil {
		return err
	}
	printCosted(s.Opt, "Table 7: Relative Execution Time of Clustering with Infinite Caches", rows)
	return nil
}
