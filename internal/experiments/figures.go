package experiments

import (
	"fmt"

	"clustersim/internal/apps"
	"clustersim/internal/apps/ocean"
	"clustersim/internal/core"
)

// Fig2Apps are the applications of Figure 2, in the paper's panel order.
var Fig2Apps = []string{"lu", "fft", "ocean", "radix", "raytrace", "volrend", "barnes", "fmm", "mp3d"}

// Fig2Data produces the Figure 2 bars: every application with infinite
// caches across cluster sizes 1, 2, 4 and 8, normalized per application
// to the 1-processor-cluster time.
func (s *Suite) Fig2Data() ([]Bar, error) {
	defer prefetch(s, (*Suite).Fig2Data)()
	var out []Bar
	for _, app := range Fig2Apps {
		bars, err := s.barsFor(app, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, bars...)
	}
	return out, nil
}

// PrintFig2 prints Figure 2 using the suite's memoized runs.
func (s *Suite) PrintFig2() error {
	bars, err := s.Fig2Data()
	if err != nil {
		return err
	}
	w := s.Opt.out()
	fmt.Fprintln(w, "Figure 2: The Benefits with Infinite Caches")
	fmt.Fprintln(w, "(normalized execution time, %, vs 1 processor per cluster)")
	s.Opt.printBars(w, bars)
	return nil
}

// Fig3Data produces the Figure 3 bars: Ocean on the small 66×66 grid
// with infinite caches. The paper contrasts it with Figure 2's 130×130
// run: more communication, so clustering helps more, but load imbalance
// and synchronization grow.
func Fig3Data(opt Options) ([]Bar, error) {
	pr := ocean.ParamsFor(opt.Size)
	// The "small problem" halves the grid edge of the Figure 2 run.
	small := pr
	small.N = (pr.N-2)/2 + 2
	if small.N < 10 {
		small.N = 10
	}
	w := apps.Runner{Name: "ocean", Run: func(cfg core.Config, _ apps.Size) (*core.Result, error) {
		return ocean.Run(cfg, small)
	}}
	var jobs []job
	for _, cs := range ClusterSizes {
		jobs = append(jobs, job{w, opt.config(cs, 0), fmt.Sprintf("ocean-small cluster=%d", cs)})
	}
	results, err := runJobs(jobs, opt)
	if err != nil {
		return nil, err
	}
	base := results[0] // ClusterSizes starts at the 1-processor cluster
	var out []Bar
	for i, cs := range ClusterSizes {
		out = append(out, Bar{App: "ocean-small", ClusterSize: cs, CacheKB: 0,
			NormalizedBar: results[i].Normalize(base)})
	}
	return out, nil
}

// Fig3 prints Figure 3.
func Fig3(opt Options) error {
	bars, err := Fig3Data(opt)
	if err != nil {
		return err
	}
	w := opt.out()
	fmt.Fprintln(w, "Figure 3: Ocean, Infinite Cache, Small Problem")
	opt.printBars(w, bars)
	return nil
}

// FiniteFigures maps figure numbers to their applications (Figures 4-8).
var FiniteFigures = map[int]string{
	4: "raytrace",
	5: "mp3d",
	6: "barnes",
	7: "fmm",
	8: "volrend",
}

// FigFiniteData produces one finite-capacity figure: the application at
// 4, 16 and 32 KB per processor plus infinite, each cache size
// normalized to its own 1-processor-cluster bar (as in the paper).
func (s *Suite) FigFiniteData(app string) ([]Bar, error) {
	defer prefetch(s, func(p *Suite) ([]Bar, error) { return p.FigFiniteData(app) })()
	var out []Bar
	for _, kb := range FiniteCachesKB {
		bars, err := s.barsFor(app, kb)
		if err != nil {
			return nil, err
		}
		out = append(out, bars...)
	}
	return out, nil
}

// PrintFigFinite prints one of Figures 4-8 using the suite's memoized
// runs.
func (s *Suite) PrintFigFinite(fig int) error {
	app, ok := FiniteFigures[fig]
	if !ok {
		return fmt.Errorf("experiments: no finite-capacity figure %d (have 4-8)", fig)
	}
	bars, err := s.FigFiniteData(app)
	if err != nil {
		return err
	}
	w := s.Opt.out()
	fmt.Fprintf(w, "Figure %d: Finite Capacity Effects for %s\n", fig, app)
	fmt.Fprintln(w, "(per cache size, normalized to that size's 1-processor-cluster time)")
	s.Opt.printBars(w, bars)
	return nil
}
