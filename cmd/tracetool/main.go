// Command tracetool records application reference traces and replays
// them through different machine configurations — the trace-driven mode
// of Tango-lite.
//
// Record a trace:
//
//	tracetool record -app radix -procs 16 -size test -o radix.trace
//
// Replay it through other machines:
//
//	tracetool replay -i radix.trace -cluster 4 -cache 8
//	tracetool replay -i radix.trace -cluster 8 -org shared-memory
//
// Trace-driven replay fixes the original interleaving, so it is a fast
// approximation best suited to cache-capacity questions; see the trace
// package documentation.
//
// Summarize a telemetry trace (the Chrome trace-event files written by
// clustersim -trace and experiments -trace):
//
//	tracetool telemetry -i out.json
//
// Render a sharing profile (the JSON written by clustersim -profile),
// or the per-region delta between two profiles (new minus old):
//
//	tracetool profile out.json
//	tracetool profile -top 20 before.json after.json
//
// Render a critical-path analysis (the JSON written by clustersim
// -critpath), or the per-phase delta between two (new minus old):
//
//	tracetool critpath out.json
//	tracetool critpath before.json after.json
//
// Render a benchmark report (the BENCH_<stamp>.json written by
// perfbench), or the regression diff between two (cur against base):
//
//	tracetool bench BENCH_a.json
//	tracetool bench BENCH_a.json BENCH_b.json
//
// Render a run-event log (the JSONL written by experiments -events),
// optionally filtered by point, kind or worker, or live-tailed with -f;
// export it as a Chrome trace with one track per fleet worker and one
// slice per computed point; and validate a Prometheus exposition
// scraped from a -serve endpoint:
//
//	tracetool events sweep.events.jsonl
//	tracetool events -point ocean-c4-16k -worker w1 -f sweep.events.jsonl
//	tracetool events -chrome sweep.chrome.json sweep.events.jsonl
//	curl -s localhost:9090/metrics | tracetool metrics -
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"clustersim/internal/apps"
	"clustersim/internal/apps/registry"
	"clustersim/internal/bench"
	"clustersim/internal/core"
	"clustersim/internal/critpath"
	"clustersim/internal/profile"
	"clustersim/internal/telemetry"
	"clustersim/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracetool:", err)
		os.Exit(2)
	}
}

// run dispatches one subcommand. Every failure — unknown subcommand,
// missing input, unparseable file — surfaces as a non-nil error so the
// process exits nonzero.
func run(args []string, out io.Writer) error {
	if len(args) < 1 {
		return usageError()
	}
	switch args[0] {
	case "record":
		return record(args[1:], out)
	case "replay":
		return replay(args[1:], out)
	case "telemetry":
		return telemetrySummary(args[1:], out)
	case "profile":
		return profileCmd(args[1:], out)
	case "critpath":
		return critpathCmd(args[1:], out)
	case "bench":
		return benchCmd(args[1:], out)
	case "events":
		return eventsCmd(args[1:], out)
	case "metrics":
		return metricsCmd(args[1:], out)
	default:
		return usageError()
	}
}

func usageError() error {
	return fmt.Errorf("usage: tracetool record|replay|telemetry|profile|critpath|bench|events|metrics [flags]")
}

// benchCmd renders one perfbench report as a table, or the regression
// diff of two (current against baseline):
//
//	tracetool bench [-tolerance 0.05] <BENCH.json> [cur.json]
func benchCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	tol := fs.Float64("tolerance", 0.05, "accepted fractional growth of allocations when diffing")
	return renderOrDiff(fs, args, "one BENCH.json (render) or two (diff base cur)", bench.ReadReport,
		func(r *bench.Report) { bench.WriteTable(out, r) },
		func(base, cur *bench.Report) error {
			deltas, regressions := bench.Compare(base, cur, bench.Tolerance{Allocs: *tol})
			bench.WriteDiff(out, base, cur, deltas, regressions)
			if regressions > 0 {
				return fmt.Errorf("bench: %d regression(s)", regressions)
			}
			return nil
		})
}

// profileCmd renders one sharing profile as the flat table, or diffs
// two (new minus old):
//
//	tracetool profile [-top N] <profile.json> [new.json]
func profileCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	top := fs.Int("top", 0, "re-rank to the top N hot lines (0 = keep the file's ranking)")
	return renderOrDiff(fs, args, "one profile.json (render) or two (diff old new)", profile.ReadReport,
		func(r *profile.Report) {
			if *top > 0 && len(r.HotLines) > *top {
				r.HotLines = r.HotLines[:*top]
			}
			profile.WriteFlat(out, r)
		},
		func(old, cur *profile.Report) error { profile.WriteDiff(out, old, cur); return nil })
}

// critpathCmd renders one critical-path analysis as the flat report, or
// diffs two (new minus old):
//
//	tracetool critpath <critpath.json> [new.json]
func critpathCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("critpath", flag.ContinueOnError)
	return renderOrDiff(fs, args, "one critpath.json (render) or two (diff old new)", critpath.ReadReport,
		func(r *critpath.Report) { critpath.WriteFlat(out, r) },
		func(old, cur *critpath.Report) error { critpath.WriteDiff(out, old, cur); return nil })
}

// renderOrDiff parses fs from args, then reads one report file and
// renders it or reads two and diffs them; want says what the
// arguments must be.
func renderOrDiff[R any](fs *flag.FlagSet, args []string, want string, read func(io.Reader) (*R, error),
	render func(*R), diff func(old, cur *R) error) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch fs.NArg() {
	case 1:
		r, err := readReport(fs.Arg(0), read)
		if err != nil {
			return err
		}
		render(r)
		return nil
	case 2:
		old, err := readReport(fs.Arg(0), read)
		if err != nil {
			return err
		}
		cur, err := readReport(fs.Arg(1), read)
		if err != nil {
			return err
		}
		return diff(old, cur)
	default:
		return fmt.Errorf("%s: want %s, got %d args", fs.Name(), want, fs.NArg())
	}
}

// readReport opens path and decodes it with read, naming the file in a
// decode error.
func readReport[R any](path string, read func(io.Reader) (*R, error)) (*R, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// telemetrySummary digests a Chrome trace-event file written by the
// telemetry exporter (clustersim -trace / experiments -trace):
//
//	tracetool telemetry -i out.json
func telemetrySummary(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("telemetry", flag.ContinueOnError)
	in := fs.String("i", "out.json", "input Chrome trace-event JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	sum, err := telemetry.SummarizeChromeTrace(f)
	if err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}
	fmt.Fprintf(out, "%s: %d events, %d PE tracks, horizon %d cycles\n",
		*in, sum.Events, sum.PEs, sum.LastTs)
	if len(sum.OtherData) > 0 {
		keys := make([]string, 0, len(sum.OtherData))
		for k := range sum.OtherData {
			keys = append(keys, k) //simlint:allow maprange
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(out, "  %-12s %s\n", k, sum.OtherData[k])
		}
	}
	var kinds []string
	var total int64
	for k, v := range sum.ByKind {
		kinds = append(kinds, k) //simlint:allow maprange
		total += v
	}
	sort.Strings(kinds)
	fmt.Fprintln(out, "PE cycles by state:")
	for _, k := range kinds {
		v := sum.ByKind[k]
		fmt.Fprintf(out, "  %-12s %14d cycles (%5.1f%%)\n", k, v, 100*float64(v)/float64(total))
	}
	fmt.Fprintf(out, "sync episodes:   %d\n", sum.SyncWaits)
	fmt.Fprintf(out, "counter samples: %d\n", sum.Counters)
	if len(sum.Marks) > 0 {
		fmt.Fprintf(out, "marks:           %s\n", strings.Join(sum.Marks, ", "))
	}
	return nil
}

func record(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	app := fs.String("app", "radix", "application to trace")
	procs := fs.Int("procs", 16, "total processors")
	cluster := fs.Int("cluster", 1, "processors per cluster during recording")
	size := fs.String("size", "test", "problem size: test, default or paper")
	outFile := fs.String("o", "app.trace", "output trace file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sz, err := apps.ParseSize(*size)
	if err != nil {
		return err
	}
	w, err := registry.Lookup(*app)
	if err != nil {
		return err
	}
	col := trace.NewCollector(*procs)
	cfg := core.DefaultConfig()
	cfg.Procs = *procs
	cfg.ClusterSize = *cluster
	cfg.Tracer = col
	if _, err := w.Run(cfg, sz); err != nil {
		return err
	}
	tr := col.Finish()
	f, err := os.Create(*outFile)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.Write(f, tr); err != nil {
		return err
	}
	fmt.Fprintf(out, "recorded %d events (%d regions, %d sync objects) to %s\n",
		len(tr.Events), len(tr.Regions), len(tr.Syncs), *outFile)
	return nil
}

func replay(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	in := fs.String("i", "app.trace", "input trace file")
	cluster := fs.Int("cluster", 1, "processors per cluster")
	cacheKB := fs.Int("cache", 0, "cache KB per processor (0 = infinite)")
	org := fs.String("org", "shared-cache", "cluster organization: shared-cache or shared-memory")
	if err := fs.Parse(args); err != nil {
		return err
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}
	cfg := core.DefaultConfig()
	cfg.Procs = tr.Procs
	cfg.ClusterSize = *cluster
	cfg.CacheKBPerProc = *cacheKB
	switch *org {
	case "shared-cache":
		cfg.Organization = core.SharedCache
	case "shared-memory":
		cfg.Organization = core.SharedMemory
	default:
		return fmt.Errorf("unknown organization %q", *org)
	}
	res, err := trace.Replay(cfg, tr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "replayed %d events\n", len(tr.Events))
	res.WriteSummary(out)
	return nil
}
