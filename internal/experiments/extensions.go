package experiments

import (
	"fmt"
	"io"

	"clustersim/internal/apps/registry"
	"clustersim/internal/core"
)

// The paper closes by listing what a careful study of shared first-level
// caches still needs: "looking at contention issues, the effects of
// increased delay slots and compiler scheduling, and the destructive
// interference due to limited associativity", and its Section 2 taxonomy
// describes a second cluster type — shared-main-memory clusters — that
// the main study does not simulate. The two extension experiments below
// implement both follow-ups.

// AssocRow is one cell of the associativity (destructive interference)
// study.
type AssocRow struct {
	App         string
	Ways        int // 0 = fully associative
	ClusterSize int
	ExecTime    core.Clock
	ReadMisses  uint64
	Evictions   uint64
}

// ExtAssocApps are the applications used in the associativity study:
// one with structured disjoint access (ocean) and one with a shared
// read-mostly working set (barnes), per the paper's request to examine
// "interference effects in the cases of structured access patterns as
// well".
var ExtAssocApps = []string{"ocean", "barnes"}

// ExtAssocWays are the studied associativities (0 = fully associative).
var ExtAssocWays = []int{0, 8, 2, 1}

// ExtAssociativityData measures destructive interference: 4 KB per
// processor, sweeping associativity and cluster size. As associativity
// falls and more processors share a cache, conflict misses grow.
func ExtAssociativityData(opt Options) ([]AssocRow, error) {
	var rows []AssocRow
	for _, app := range ExtAssocApps {
		w, err := registry.Lookup(app)
		if err != nil {
			return nil, err
		}
		for _, ways := range ExtAssocWays {
			for _, cs := range ClusterSizes {
				cfg := opt.config(cs, 4)
				cfg.Assoc = ways
				res, err := w.Run(cfg, opt.Size)
				if err != nil {
					return nil, fmt.Errorf("%s ways=%d cluster=%d: %w", app, ways, cs, err)
				}
				agg := res.Aggregate()
				var ev uint64
				for cl := 0; cl < cfg.NumClusters(); cl++ {
					// Evictions live on the cache stores; the protocol
					// counters track hints+writebacks, whose sum equals
					// victims that notified the directory.
					st := res.Clusters[cl]
					ev += st.ReplacementHints + st.Writebacks
				}
				rows = append(rows, AssocRow{
					App: app, Ways: ways, ClusterSize: cs,
					ExecTime: res.ExecTime, ReadMisses: agg.ReadMisses + agg.Merges,
					Evictions: ev,
				})
			}
		}
	}
	return rows, nil
}

// ExtAssociativity prints the destructive-interference study.
func ExtAssociativity(opt Options) error {
	rows, err := ExtAssociativityData(opt)
	if err == nil {
		writeAssociativity(opt.out(), rows)
	}
	return err
}

func writeAssociativity(w io.Writer, rows []AssocRow) {
	fmt.Fprintln(w, "Extension A: Destructive Interference from Limited Associativity")
	fmt.Fprintln(w, "(4 KB per processor; the paper's main study is fully associative)")
	fmt.Fprintf(w, "%-10s %-6s %-6s %12s %12s %12s\n",
		"app", "ways", "clus", "exec cycles", "read misses", "evictions")
	for _, r := range rows {
		ways := "full"
		if r.Ways > 0 {
			ways = fmt.Sprintf("%d", r.Ways)
		}
		fmt.Fprintf(w, "%-10s %-6s %-6s %12d %12d %12d\n",
			r.App, ways, fmt.Sprintf("%dp", r.ClusterSize), r.ExecTime, r.ReadMisses, r.Evictions)
	}
}

// OrgRow is one cell of the cluster-organisation comparison.
type OrgRow struct {
	App          string
	Organization core.Organization
	ClusterSize  int
	ExecTime     core.Clock
	IntraFrac    float64 // fraction of miss services satisfied in-cluster
}

// ExtOrgApps are the applications compared across cluster organisations.
var ExtOrgApps = []string{"ocean", "mp3d", "barnes"}

// ExtOrganizationsData compares the paper's two cluster types at equal
// per-processor cache budget (4 KB): shared-cache clusters overlap
// working sets; shared-main-memory clusters avoid interference and turn
// communication into cheap snoopy-bus transfers.
func ExtOrganizationsData(opt Options) ([]OrgRow, error) {
	var rows []OrgRow
	for _, app := range ExtOrgApps {
		w, err := registry.Lookup(app)
		if err != nil {
			return nil, err
		}
		for _, org := range []core.Organization{core.SharedCache, core.SharedMemory} {
			for _, cs := range ClusterSizes {
				cfg := opt.config(cs, 4)
				cfg.Organization = org
				res, err := w.Run(cfg, opt.Size)
				if err != nil {
					return nil, fmt.Errorf("%s %v cluster=%d: %w", app, org, cs, err)
				}
				agg := res.Aggregate()
				served := agg.LocalClean + agg.LocalDirty + agg.RemoteClean +
					agg.RemoteDirty + agg.IntraCluster
				frac := 0.0
				if served > 0 {
					frac = float64(agg.IntraCluster) / float64(served)
				}
				rows = append(rows, OrgRow{
					App: app, Organization: org, ClusterSize: cs,
					ExecTime: res.ExecTime, IntraFrac: frac,
				})
			}
		}
	}
	return rows, nil
}

// ExtOrganizations prints the cluster-organisation comparison.
func ExtOrganizations(opt Options) error {
	rows, err := ExtOrganizationsData(opt)
	if err == nil {
		writeOrganizations(opt.out(), rows)
	}
	return err
}

func writeOrganizations(w io.Writer, rows []OrgRow) {
	fmt.Fprintln(w, "Extension B: Shared-Cache vs Shared-Main-Memory Clusters")
	fmt.Fprintln(w, "(4 KB per processor; shared-memory clusters add an infinite attraction memory)")
	fmt.Fprintf(w, "%-10s %-14s %-6s %12s %14s\n",
		"app", "organization", "clus", "exec cycles", "in-cluster svc")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-14s %-6s %12d %13.1f%%\n",
			r.App, r.Organization, fmt.Sprintf("%dp", r.ClusterSize),
			r.ExecTime, 100*r.IntraFrac)
	}
}

// ScaleRow is one cell of the processor-scaling study.
type ScaleRow struct {
	Procs       int
	ClusterSize int
	ExecTime    core.Clock
	Speedup     float64 // vs the smallest machine, same cluster size
}

// ExtScalingProcs are the machine sizes swept by the scaling study.
var ExtScalingProcs = []int{16, 32, 64}

// ExtScalingData tests the paper's closing speculation for near-
// neighbour codes: "clustering may push out the number of processors
// that can be used effectively on a fixed problem size". It runs Ocean's
// small (Figure 3) problem on growing machines, unclustered vs 4-way
// clustered.
func ExtScalingData(opt Options) ([]ScaleRow, error) {
	w, err := registry.Lookup("ocean")
	if err != nil {
		return nil, err
	}
	var rows []ScaleRow
	for _, cs := range []int{1, 4} {
		var base core.Clock
		for _, procs := range ExtScalingProcs {
			o := opt
			o.Procs = procs
			cfg := o.config(cs, 0)
			res, err := w.Run(cfg, opt.Size)
			if err != nil {
				return nil, fmt.Errorf("ocean procs=%d cluster=%d: %w", procs, cs, err)
			}
			if base == 0 {
				base = res.ExecTime // speedup baseline: smallest machine
			}
			rows = append(rows, ScaleRow{
				Procs: procs, ClusterSize: cs, ExecTime: res.ExecTime,
				Speedup: float64(base) / float64(res.ExecTime),
			})
		}
	}
	return rows, nil
}

// ExtScaling prints the processor-scaling study.
func ExtScaling(opt Options) error {
	rows, err := ExtScalingData(opt)
	if err != nil {
		return err
	}
	w := opt.out()
	fmt.Fprintln(w, "Extension C: Clustering Extends Processor Scaling (Ocean, fixed problem)")
	fmt.Fprintf(w, "%-8s %-8s %14s %10s\n", "procs", "cluster", "exec cycles", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %-8s %14d %9.2fx\n",
			r.Procs, fmt.Sprintf("%d-way", r.ClusterSize), r.ExecTime, r.Speedup)
	}
	fmt.Fprintln(w, "(speedup vs the 16-processor machine at the same cluster size)")
	return nil
}
