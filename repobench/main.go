// Command repobench is clustersim's repository benchmark: one Go process
// that runs a named workload through the entry points users call
// (registry.Lookup(app).Run, and experiments.NewSuite with the same
// experiment dispatch as `experiments all`), checks every simulated
// point against digests recorded in expected.json, and prints one JSON
// result as the last line of standard output.
//
//	repobench -workload fig2-infinite -seed 1 -seconds 15 -trace 0
//
// With -trace 0 the perf monitor and the obs sweep tracker stay
// detached and the run reports the end-to-end metrics; with -trace 1
// it attaches them and reports the per-layer metrics. -record
// rewrites expected.json from the current build instead of checking
// against it. README.md describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// procStart approximates process start for the first set-up: package
// initialisation runs before main, right after the runtime starts.
var procStart = time.Now() //simlint:allow wallclock — benchmark timing, never simulated state

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one run's settings and its output check.
type bench struct {
	seed    int64
	seconds time.Duration
	work    string // scratch directory, removed at exit

	check *checker
	spans *spanLog
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run: fig2-infinite, finite-4k or repro-resume")
		seed     = flag.Int64("seed", 1, "workload seed (permutes point order of the sweep workloads)")
		seconds  = flag.Float64("seconds", 15, "how long the timed part of the run measures")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		expected = flag.String("expected", "repobench/expected.json", "expected output digests")
		work     = flag.String("work", ".bench_build/work", "scratch directory for journals and observer artifacts")
		record   = flag.Bool("record", false, "rewrite the expected digests from this build instead of checking them")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "repobench: need -workload fig2-infinite|finite-4k|repro-resume, -seconds > 0 and -trace 0|1")
		return 2
	}
	chk, err := loadChecker(*expected, *record)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repobench:", err)
		return 1
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d", *workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "repobench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	b := &bench{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		work:    dir,
		check:   chk,
		spans:   &spanLog{origin: procStart},
	}
	var metrics map[string]metric
	if *trace == 1 {
		metrics, err = w.traced(b)
	} else {
		metrics, err = w.timed(b)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "repobench:", err)
		return 1
	}
	if *record {
		if err := chk.save(); err != nil {
			fmt.Fprintln(os.Stderr, "repobench:", err)
			return 1
		}
	}
	if *trace == 1 {
		if err := b.spans.write(filepath.Join(*work, *workload+".spans.json")); err != nil {
			fmt.Fprintln(os.Stderr, "repobench:", err)
			return 1
		}
	}
	out, err := json.Marshal(result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "repobench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// workloadRunner is one named workload: timed reports the end-to-end
// metrics, traced the per-layer ones.
type workloadRunner struct {
	timed  func(*bench) (map[string]metric, error)
	traced func(*bench) (map[string]metric, error)
}

var workloads = map[string]workloadRunner{
	"fig2-infinite": sweepRunner(fig2Infinite),
	"finite-4k":     sweepRunner(finite4K),
	"repro-resume":  {timed: reproTimed, traced: reproTraced},
}

// spanLog keeps the traced run's benchmark-side spans in memory and
// writes them out when the run ends (-trace 1 only).
type spanLog struct {
	origin time.Time
	spans  []span
}

type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // index into the log, -1 for a root
	StartNS int64  `json:"startNs"`
	EndNS   int64  `json:"endNs"`
}

// begin opens a span and returns its index.
//
//simlint:allow wallclock — benchmark timing, never simulated state
func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, span{Name: name, Parent: parent, StartNS: int64(time.Since(l.origin))})
	return len(l.spans) - 1
}

// end closes span i and returns its duration.
//
//simlint:allow wallclock — benchmark timing, never simulated state
func (l *spanLog) end(i int) time.Duration {
	l.spans[i].EndNS = int64(time.Since(l.origin))
	return time.Duration(l.spans[i].EndNS - l.spans[i].StartNS)
}

func (l *spanLog) write(path string) error {
	b, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
