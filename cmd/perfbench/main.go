// Command perfbench is the machine-readable benchmark harness: it runs
// the fixed matrix of the repo's Go benchmarks (bench_test.go) five
// times, as whole passes (bench.Passes), with the host performance
// monitor attached to every point, and writes one BENCH_<stamp>.json
// report (schema in EXPERIMENTS.md): each benchmark's median wall time
// and quartiles, and its median allocations.
//
// Run the full matrix and write a report into the current directory:
//
//	perfbench
//
// Run three applications and gate against the checked-in baseline:
//
//	perfbench -apps mp3d,ocean,fft -baseline bench_baseline.json
//
// The process exits 1 when a deterministic counter (points, simcycles,
// handoffs, refs) differs between passes and, with -baseline, when one
// drifts from the baseline or allocations grow past -tolerance;
// wall-clock metrics never gate. Exit codes: 0 clean, 1 regression,
// 2 usage or I/O error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"clustersim/internal/apps"
	"clustersim/internal/bench"
	"clustersim/internal/perf"
	"clustersim/internal/telemetry"
)

// Exit codes. Usage errors are 2, matching flag.ExitOnError convention.
const (
	exitOK         = 0
	exitRegression = 1
	exitUsage      = 2
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	procs := fs.Int("procs", 16, "simulated processors per point")
	size := fs.String("size", "test", "problem size: test, default or paper")
	appsFlag := fs.String("apps", "", "comma-separated application filter (empty = all)")
	outDir := fs.String("out", ".", "directory for the BENCH_<stamp>.json report")
	stamp := fs.String("stamp", "", "report stamp (default: current UTC time)")
	baseline := fs.String("baseline", "", "baseline BENCH json to gate against (empty = no gate)")
	tolerance := fs.Float64("tolerance", 0.05, "accepted fractional growth of allocations")
	list := fs.Bool("list", false, "list the benchmark matrix and exit")
	quiet := fs.Bool("quiet", false, "suppress per-benchmark progress on stderr")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the harness run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile after the run to this file")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected arguments: %s\n", strings.Join(fs.Args(), " "))
		return exitUsage
	}
	sz, err := apps.ParseSize(*size)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return exitUsage
	}

	specs := bench.DefaultSpecs()
	if *appsFlag != "" {
		specs = bench.FilterApps(specs, strings.Split(*appsFlag, ","))
		if len(specs) == 0 {
			fmt.Fprintf(stderr, "perfbench: no benchmarks match -apps %s\n", *appsFlag)
			return exitUsage
		}
	}
	if *list {
		for _, s := range specs {
			fmt.Fprintf(stdout, "%-18s %s  %d points\n", s.Name, s.App, s.Points())
		}
		return exitOK
	}

	// Read the baseline first: a bad path fails before the matrix runs.
	var base *bench.Report
	if *baseline != "" {
		if base, err = readReport(*baseline); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return exitUsage
		}
	}

	if *cpuprofile != "" {
		stop, err := perf.StartCPUProfile(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return exitUsage
		}
		defer stop()
	}

	opt := bench.Options{Procs: *procs, Size: sz}
	if !*quiet {
		opt.Progress = stderr
	}
	start := time.Now() //simlint:allow wallclock — harness self-timing
	measurements, err := bench.Run(specs, opt)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		if errors.Is(err, bench.ErrNotRepeatable) {
			return exitRegression
		}
		return exitUsage
	}
	host := perf.ReadHost()
	host.WallNS = int64(time.Since(start)) //simlint:allow wallclock — harness self-timing
	report := &bench.Report{
		Schema:     bench.SchemaV1,
		Stamp:      stampOrNow(*stamp),
		Procs:      *procs,
		Size:       *size,
		Passes:     bench.Passes,
		Host:       host,
		Benchmarks: measurements,
	}

	path := filepath.Join(*outDir, "BENCH_"+report.Stamp+".json")
	if err := telemetry.AtomicFile(path, func(w io.Writer) error {
		return bench.WriteReport(w, report)
	}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return exitUsage
	}
	fmt.Fprintf(stderr, "perfbench: wrote %s\n", path)
	bench.WriteTable(stdout, report)

	if *memprofile != "" {
		if err := perf.WriteHeapProfile(*memprofile); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return exitUsage
		}
	}

	if base != nil {
		deltas, regressions := bench.Compare(base, report, bench.Tolerance{Allocs: *tolerance})
		bench.WriteDiff(stdout, base, report, deltas, regressions)
		if regressions > 0 {
			return exitRegression
		}
	}
	return exitOK
}

func readReport(path string) (*bench.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := bench.ReadReport(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func stampOrNow(s string) string {
	if s != "" {
		return s
	}
	return time.Now().UTC().Format("20060102T150405Z") //simlint:allow wallclock — report stamp only
}
