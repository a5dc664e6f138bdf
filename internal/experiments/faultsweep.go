package experiments

import (
	"fmt"

	"clustersim/internal/apps/registry"
	"clustersim/internal/core"
	"clustersim/internal/fault"
)

// FaultRow is one cell of the fault-sensitivity study.
type FaultRow struct {
	App          string
	NackPerMille int
	ClusterSize  int
	ExecTime     core.Clock
	Nacks        uint64
	AckDelays    uint64
	FaultCycles  uint64
	Slowdown     float64 // vs the fault-free run, same app and cluster size
}

// ExtFaultApps are the applications swept by the fault study: the
// paper's communication-heavy outlier (mp3d) and its structured near-
// neighbour code (ocean), so both ends of the sharing spectrum face the
// same fault plan.
var ExtFaultApps = []string{"mp3d", "ocean"}

// ExtFaultLevels are the injected fault intensities, in NACKs per
// thousand directory requests; ack-delay and perturbation probabilities
// ride along at the same level. 0 is the fault-free baseline.
var ExtFaultLevels = []int{0, 20, 80}

// ExtFaultClusterSizes contrasts the unclustered machine with 4-way
// clusters: clustering keeps references inside the cluster, off the
// faulty inter-cluster fabric, so its benefit should grow with the
// fault rate.
var ExtFaultClusterSizes = []int{1, 4}

// ExtFaultSeed fixes the fault stream so the table is reproducible.
const ExtFaultSeed = 1

// ExtFaultsData sweeps fault intensity over MP3D and Ocean at 4 KB per
// processor, reporting execution time, absorbed faults and the slowdown
// against the fault-free baseline.
func ExtFaultsData(opt Options) ([]FaultRow, error) {
	var jobs []job
	var rows []FaultRow
	for _, app := range ExtFaultApps {
		w, err := registry.Lookup(app)
		if err != nil {
			return nil, err
		}
		for _, cs := range ExtFaultClusterSizes {
			for _, level := range ExtFaultLevels {
				cfg := opt.config(cs, 4)
				cfg.Faults = nil // level 0 stays fault-free even under a global -fault-* plan
				if level > 0 {
					cfg.Faults = &fault.Config{
						Seed:             ExtFaultSeed,
						NackPerMille:     level,
						AckDelayPerMille: level,
						PerturbPerMille:  level,
					}
				}
				jobs = append(jobs, job{w, cfg, fmt.Sprintf("%s faults=%d‰ cluster=%d", app, level, cs)})
				rows = append(rows, FaultRow{App: app, NackPerMille: level, ClusterSize: cs})
			}
		}
	}
	results, err := runJobs(jobs, opt)
	if err != nil {
		return nil, err
	}
	var base core.Clock
	for i, res := range results {
		if rows[i].NackPerMille == 0 {
			base = res.ExecTime
		}
		r := &rows[i]
		for cl := range res.Clusters {
			st := res.Clusters[cl]
			r.Nacks += st.Nacks
			r.AckDelays += st.AckDelays
			r.FaultCycles += st.FaultCycles
		}
		r.ExecTime, r.Slowdown = res.ExecTime, float64(res.ExecTime)/float64(base)
	}
	return rows, nil
}

// ExtFaults prints the fault-sensitivity study.
func ExtFaults(opt Options) error {
	rows, err := ExtFaultsData(opt)
	if err != nil {
		return err
	}
	w := opt.out()
	fmt.Fprintln(w, "Extension D: Fault Sensitivity of Clustering (deterministic NACK/ack-delay/jitter injection)")
	fmt.Fprintln(w, "(4 KB per processor; fault level is NACKs, delayed acks and jitter per 1000 directory requests)")
	fmt.Fprintf(w, "%-10s %-8s %-6s %12s %10s %10s %12s %10s\n",
		"app", "faults", "clus", "exec cycles", "nacks", "ack-delays", "fault cycles", "slowdown")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-8s %-6s %12d %10d %10d %12d %9.3fx\n",
			r.App, fmt.Sprintf("%d/1000", r.NackPerMille), fmt.Sprintf("%dp", r.ClusterSize),
			r.ExecTime, r.Nacks, r.AckDelays, r.FaultCycles, r.Slowdown)
	}
	fmt.Fprintln(w, "(slowdown vs the fault-free run at the same cluster size; clustering shelters in-cluster traffic from the faulty fabric)")
	return nil
}
