// Command simlint runs the project's determinism and contract lint
// over the module.
//
// Usage:
//
//	simlint [-C dir] [-tests] [-q] [-disable rules]
//	        [-sarif file] [-baseline file] [-write-baseline file]
//	        [packages...]
//
// where packages are directories or "dir/..." wildcards relative to the
// module root (default "./..."). simlint reports:
//
//	wallclock   — wall-clock reads (time.Now/Since/...) in simulated code
//	rand        — math/rand misuse: unseeded global draws, or seeds that
//	              are neither constants nor processor-ID derived
//	maprange    — map iteration leaking order into results
//	goroutine   — go statements without a directive (the simulation
//	              starts no goroutines)
//	floatclock  — float accumulation into Clock/counter fields
//	hashexclude — core.Config fields out of step with HashExcludedFields,
//	              the declared config-hash exclusion set
//	readonly    — observer packages (telemetry, profile, perf, critpath,
//	              sanitizer, obs) writing through pointers to simulation
//	              state or calling its mutating methods
//	syncname    — empty or duplicate constant names passed to
//	              NewBarrierN/NewLock/NewFlag (core.defineSync panics at
//	              run time on duplicates)
//	unusedallow — //simlint:allow directives that suppress nothing
//	              (skip the audit with -disable unusedallow)
//
// Findings are silenced with `//simlint:allow <rule>` on or directly
// above the offending line, or in the enclosing function's doc comment.
//
// -sarif writes the findings as a SARIF 2.1.0 log ("-" for stdout).
// -baseline grandfathers findings matched by the given baseline file;
// only fresh findings gate (stale baseline entries are warned about).
// -write-baseline snapshots the current findings as a new baseline.
// Exit status: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"clustersim/internal/lint"
)

const (
	exitOK       = 0
	exitFindings = 1
	exitUsage    = 2
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		chdir         = fs.String("C", ".", "module directory to lint")
		tests         = fs.Bool("tests", false, "also lint _test.go files")
		quiet         = fs.Bool("q", false, "print only the finding count")
		disable       = fs.String("disable", "", "comma-separated rules to disable")
		sarifPath     = fs.String("sarif", "", "write findings as SARIF 2.1.0 to this file (\"-\" for stdout)")
		baselinePath  = fs.String("baseline", "", "grandfather findings matched by this baseline file")
		writeBaseline = fs.String("write-baseline", "", "snapshot current findings to this baseline file and exit")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	opts := &lint.Options{}
	if *disable != "" {
		opts.Disabled = make(map[string]bool)
		for _, r := range strings.Split(*disable, ",") {
			r = strings.TrimSpace(r)
			if !lint.KnownRule(r) {
				fmt.Fprintf(stderr, "simlint: -disable: unknown rule %q (rules: %s)\n", r, strings.Join(lint.Rules, " "))
				return exitUsage
			}
			opts.Disabled[r] = true
		}
	}

	loader := &lint.Loader{Tests: *tests}
	pkgs, err := loader.Load(*chdir, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "simlint:", err)
		return exitUsage
	}
	root := loader.ModRoot()

	findings := lint.CheckModule(pkgs, opts)

	if *writeBaseline != "" {
		b := lint.NewBaseline(findings, root)
		if err := b.WriteFile(*writeBaseline); err != nil {
			fmt.Fprintln(stderr, "simlint:", err)
			return exitUsage
		}
		fmt.Fprintf(stdout, "simlint: wrote baseline %s covering %d finding(s)\n", *writeBaseline, len(findings))
		return exitOK
	}

	grandfathered := 0
	if *baselinePath != "" {
		b, err := lint.LoadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(stderr, "simlint:", err)
			return exitUsage
		}
		var stale []lint.BaselineEntry
		findings, grandfathered, stale = b.Apply(findings, root)
		for _, e := range stale {
			fmt.Fprintf(stderr, "simlint: baseline entry matches nothing (fixed? remove it): %s %s %q\n",
				e.Rule, e.File, e.Msg)
		}
	}

	if *sarifPath != "" {
		w := stdout
		var f *os.File
		if *sarifPath != "-" {
			f, err = os.Create(*sarifPath)
			if err != nil {
				fmt.Fprintln(stderr, "simlint:", err)
				return exitUsage
			}
			w = f
		}
		err = lint.WriteSARIF(w, findings, root)
		if f != nil {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "simlint:", err)
			return exitUsage
		}
	}

	if !*quiet && (*sarifPath != "-") {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "simlint: %d finding(s) in %d package(s)", len(findings), len(pkgs))
		if grandfathered > 0 {
			fmt.Fprintf(stderr, " (+%d grandfathered by baseline)", grandfathered)
		}
		fmt.Fprintln(stderr)
		return exitFindings
	}
	return exitOK
}
