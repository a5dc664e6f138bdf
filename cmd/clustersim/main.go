// Command clustersim runs one application on one clustered-machine
// configuration and prints the execution-time breakdown and miss
// profile.
//
// Usage:
//
//	clustersim -app ocean -procs 64 -cluster 4 -cache 16 -size default
//
// -cache 0 simulates infinite caches (the paper's Figure 2 setting).
//
// Observability flags (see README "Observability"):
//
//	-trace out.json   write a Chrome trace-event file (open at
//	                  ui.perfetto.dev; 1 cycle = 1 µs of trace time)
//	-json             print a JSON run manifest instead of the text report
//	-sample N         sample per-cluster counter deltas every N cycles
//	-progress         stream sampling progress to stderr
//	-profile out.json write a data-centric sharing profile (misses
//	                  classified cold/replacement/true/false-sharing per
//	                  region, hot lines, page locality) and print the
//	                  flat report; render later with `tracetool profile`
//	-top N            hot lines to rank in the profile (default 10)
//	-critpath o.json  write a critical-path analysis (barrier-delimited
//	                  phases with per-PE breakdowns, barrier imbalance,
//	                  lock contention, balanced-ideal speedup) and print
//	                  the flat report; render later with
//	                  `tracetool critpath`
//	-serve :9090      serve live observability endpoints while the run
//	                  executes (/metrics Prometheus exposition, /status
//	                  JSON, /events tail, /debug/pprof); gauges advance
//	                  on the sampling grid (README "Live observability")
//
// Host-side performance flags (see README "Simulator performance"):
//
//	-cpuprofile f     write a pprof CPU profile of the simulator process
//	                  (inspect with `go tool pprof f`)
//	-memprofile f     write a pprof heap profile after the run
//
// With -json the manifest also carries a `host` block (Go version,
// GOMAXPROCS, wall duration, peak heap) from the attached performance
// monitor; it describes the host, never the simulated machine.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"clustersim/internal/apps"
	"clustersim/internal/apps/registry"
	"clustersim/internal/core"
	"clustersim/internal/critpath"
	"clustersim/internal/experiments"
	"clustersim/internal/fault"
	"clustersim/internal/obs"
	"clustersim/internal/perf"
	"clustersim/internal/profile"
	"clustersim/internal/telemetry"
)

// exitInterrupted is the SIGINT/SIGTERM exit code, distinct from the
// usage-error code 2 (and matching experiments.ExitInterrupted). All
// file artifacts are written atomically (temp + rename), so an
// interrupt never leaves a torn JSON document behind.
const exitInterrupted = 3

func main() {
	var (
		app      = flag.String("app", "ocean", "application: "+strings.Join(registry.Names(), ", "))
		procs    = flag.Int("procs", 64, "total processors")
		cluster  = flag.Int("cluster", 1, "processors per cluster (1, 2, 4 or 8)")
		cacheKB  = flag.Int("cache", 0, "cache KB per processor (0 = infinite)")
		size     = flag.String("size", "default", "problem size: test, default or paper")
		line     = flag.Uint64("line", 64, "cache line bytes")
		quantum  = flag.Int64("quantum", 0, "event-ordering slack in cycles (0 = exact)")
		sanitize = flag.Bool("sanitize", false, "cross-validate directory/cache state after every transaction (requires -quantum 0)")
		org      = flag.String("org", "shared-cache", "cluster organization: shared-cache or shared-memory")

		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON file (Perfetto)")
		jsonOut  = flag.Bool("json", false, "print a JSON run manifest instead of the text report")
		sample   = flag.Int64("sample", 0, "telemetry sampling interval in cycles (0 = off)")
		progress = flag.Bool("progress", false, "stream sampling progress to stderr")
		profOut  = flag.String("profile", "", "write a sharing-profile JSON file and print the flat report")
		topLines = flag.Int("top", 10, "hot cache lines to rank in the sharing profile")
		critOut  = flag.String("critpath", "", "write a critical-path analysis JSON file and print the flat report")
		serve    = flag.String("serve", "", "serve live observability endpoints (/metrics, /status, /events, /debug/pprof) on this address while the run executes")

		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the simulator process to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile after the run to this file")

		faultSeed    = flag.Int64("fault-seed", 1, "fault plan seed (with any -fault-* probability set)")
		faultNack    = flag.Int("fault-nack", 0, "directory-busy NACK probability per 1000 requests")
		faultAck     = flag.Int("fault-ack", 0, "delayed invalidation-ack probability per 1000 acks")
		faultPerturb = flag.Int("fault-perturb", 0, "remote-hop jitter probability per 1000 fetches")
	)
	flag.Parse()

	// SIGINT/SIGTERM exit with a distinct code. Output files are only
	// written after the run, atomically, so there is nothing to flush —
	// the handler's job is the exit code and a clean one-line diagnostic
	// instead of a runtime panic dump.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	// Harness-level watcher, not simulation code: it never touches the
	// machine, only the process.
	go func() { //simlint:allow goroutine
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "clustersim: %v: aborting run (no partial artifacts are written)\n", sig)
		os.Exit(exitInterrupted)
	}()

	sz, err := apps.ParseSize(*size)
	if err != nil {
		fatal(err)
	}
	w, err := registry.Lookup(*app)
	if err != nil {
		fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Procs = *procs
	cfg.ClusterSize = *cluster
	cfg.CacheKBPerProc = *cacheKB
	cfg.LineBytes = *line
	cfg.Quantum = *quantum
	cfg.Sanitize = *sanitize
	switch *org {
	case "shared-cache":
		cfg.Organization = core.SharedCache
	case "shared-memory":
		cfg.Organization = core.SharedMemory
	default:
		fatal(fmt.Errorf("unknown organization %q", *org))
	}
	if *faultNack > 0 || *faultAck > 0 || *faultPerturb > 0 {
		cfg.Faults = &fault.Config{
			Seed:             *faultSeed,
			NackPerMille:     *faultNack,
			AckDelayPerMille: *faultAck,
			PerturbPerMille:  *faultPerturb,
		}
	}

	if *sample < 0 {
		fatal(fmt.Errorf("-sample %d: interval must be non-negative", *sample))
	}

	// The instruments, the artifacts and the sweep reports are the
	// shared per-point runner's (experiments.RunPoint), so a single run
	// records exactly what a suite point does. -progress and -serve both
	// ride the interval sampler, so either one without an explicit
	// -sample gets the default grid (see effectiveSampleInterval).
	art := experiments.Artifacts{
		TracePath:    *traceOut,
		ProfilePath:  *profOut,
		ProfileTop:   *topLines,
		CritpathPath: *critOut,
		SampleEvery:  effectiveSampleInterval(*sample, *progress || *serve != ""),
		Manifest:     *jsonOut,
	}
	if *progress {
		art.OnSample = func(at telemetry.Clock, t telemetry.ClusterSample) {
			fmt.Fprintf(os.Stderr, "%s cycle %d: refs +%d  rd-miss +%d  merge +%d  inval +%d\n",
				*app, at, t.Refs.References(), t.Refs.ReadMisses, t.Refs.Merges, t.Coh.InvalidationsSent)
		}
	}
	// The manifest's host block comes from the performance monitor; it
	// observes through the engine's token discipline and never perturbs
	// the simulation (pinned by TestMonitorDeterminism).
	var mon *perf.Monitor
	if *jsonOut {
		mon = perf.New()
		cfg.Perf = mon
	}

	// -serve exposes the live observability plane for the single run:
	// counters and the virtual-time gauge advance on the telemetry
	// sampler's grid, /status tracks the one point, /events carries its
	// span. Wall-clock-side only — the run's Result and config hash are
	// byte-identical with or without it.
	var sweep *obs.Sweep
	if *serve != "" {
		runID := fmt.Sprintf("clustersim-%d", os.Getpid())
		reg := obs.NewRegistry()
		evlog := obs.NewLog(nil, runID)
		sweep = obs.NewSweep(runID, reg, evlog)
		sweep.SetIdentity(*app, *procs, sz.String())
		sweep.SetTotalPoints(1)
		vt := reg.Gauge("clustersim_run_virtual_cycles", "Simulated time of the latest telemetry sample.")
		refs := reg.Counter("clustersim_run_references_total", "Memory references accumulated over telemetry samples.")
		rdMiss := reg.Counter("clustersim_run_read_misses_total", "Read misses accumulated over telemetry samples.")
		merges := reg.Counter("clustersim_run_merges_total", "Fill merges accumulated over telemetry samples.")
		invals := reg.Counter("clustersim_run_invalidations_total", "Invalidations sent, accumulated over telemetry samples.")
		progressLine := art.OnSample
		art.OnSample = func(at telemetry.Clock, t telemetry.ClusterSample) {
			if progressLine != nil {
				progressLine(at, t)
			}
			vt.Set(float64(at))
			refs.Add(float64(t.Refs.References()))
			rdMiss.Add(float64(t.Refs.ReadMisses))
			merges.Add(float64(t.Refs.Merges))
			invals.Add(float64(t.Coh.InvalidationsSent))
		}
		srv, err := obs.NewServer(reg, sweep, evlog).Start(*serve)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "clustersim: observability endpoints on %s\n", srv.URL())
	}

	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	// Every artifact names the configuration it came from.
	hash, err := telemetry.HashConfig(cfg)
	if err != nil {
		fatal(err)
	}
	if *cpuprofile != "" {
		stop, err := perf.StartCPUProfile(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer stop()
	}
	run, err := experiments.RunPoint(w, cfg, sz, hash, art, sweep)
	if err != nil {
		fatal(err)
	}
	sweep.Finish(0)
	if *memprofile != "" {
		if err := perf.WriteHeapProfile(*memprofile); err != nil {
			fatal(err)
		}
	}
	if *profOut != "" {
		fmt.Fprintf(os.Stderr, "clustersim: wrote sharing profile to %s (render with `tracetool profile %s`)\n",
			*profOut, *profOut)
	}
	if *critOut != "" {
		fmt.Fprintf(os.Stderr, "clustersim: wrote critical-path analysis to %s (render with `tracetool critpath %s`)\n",
			*critOut, *critOut)
	}
	if *traceOut != "" {
		fmt.Fprintf(os.Stderr, "clustersim: wrote trace to %s (open at ui.perfetto.dev)\n", *traceOut)
	}

	if *jsonOut {
		m := *run.Manifest
		m.Host = mon.Report().Host
		if err := telemetry.WriteManifest(os.Stdout, m); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("%s (%s size)\n", w.Name, sz)
	run.Result.WriteSummary(os.Stdout)
	if run.Profile != nil {
		fmt.Println()
		profile.WriteFlat(os.Stdout, run.Profile)
	}
	if run.Critpath != nil {
		fmt.Println()
		critpath.WriteFlat(os.Stdout, run.Critpath)
	}
}

// effectiveSampleInterval resolves the telemetry sampling grid from the
// flags: an explicit positive -sample wins; otherwise any feature that
// rides the sampler (-progress, -serve) gets the default interval; with
// neither, sampling stays off. Centralised so every sampler consumer
// defaults the same way (pinned by TestEffectiveSampleInterval).
func effectiveSampleInterval(sample int64, wantSampling bool) int64 {
	if sample > 0 {
		return sample
	}
	if wantSampling {
		return telemetry.SampleInterval(0)
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clustersim:", err)
	os.Exit(2)
}
