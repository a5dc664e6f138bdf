// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [flags] <what>...
//
// where <what> is any of: table1 table2 table3 table4 table5 table6
// table7 fig2 fig3 fig4 fig5 fig6 fig7 fig8, ext-assoc ext-org
// ext-scaling ext-faults, or "all".
//
// By default the runs use the scaled default problem sizes on the
// paper's 64-processor machine; -size paper selects the full Table 2
// problem sizes (slower), and -procs shrinks the machine for quick
// looks.
//
// Each experiment's independent points run side by side, one per core
// (GOMAXPROCS=1 runs one at a time). Stdout and the -state journal are
// byte-identical at any worker count, and -progress and -json hold the
// same lines in the same order, wall times aside.
//
// Robustness: -state journals every finished point so an interrupted
// run resumes where it left off; SIGINT/SIGTERM stop the suite cleanly
// between points (exit code 3); -point-timeout aborts a wedged point
// (exit code 4); -fault-* flags inject the deterministic fault plan.
//
// Observability: -serve exposes live endpoints while the sweep runs
// (/metrics Prometheus exposition, /status sweep JSON, /events run-event
// tail, /debug/pprof); -events appends a structured JSONL run-event log
// (schema clustersim/events/v1); -linger keeps the endpoints up after
// the suite finishes so scrapes and smoke tests can read final state.
// All of it is wall-clock-side: results and config hashes are
// byte-identical with or without these flags.
//
// Exit codes (also in README "Exit codes" and `experiments -h`):
//
//	0  every requested experiment completed
//	1  at least one point or experiment failed; the rest ran
//	2  bad flags or configuration
//	3  SIGINT/SIGTERM (or -stop-after) stopped the suite between points
//	4  -point-timeout aborted a hung point
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"clustersim/internal/apps"
	"clustersim/internal/experiments"
	"clustersim/internal/fabric"
	"clustersim/internal/fault"
	"clustersim/internal/obs"
	"clustersim/internal/perf"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		procs    = flag.Int("procs", 64, "total processors")
		size     = flag.String("size", "default", "problem size: test, default or paper")
		quantum  = flag.Int64("quantum", 0, "event-ordering slack in cycles (0 = exact)")
		sanitize = flag.Bool("sanitize", false, "cross-validate directory/cache state after every transaction (requires -quantum 0)")
		bars     = flag.Bool("bars", false, "render figures as ASCII stacked bars")
		csvOut   = flag.Bool("csv", false, "emit figure data as CSV rows")
		progress = flag.Bool("progress", false, "log each completed simulation point to stderr")
		sample   = flag.Int64("sample", 0, "sampling interval in cycles of -trace's counter tracks and -json's series (0 = off)")
		traceDir = flag.String("trace", "", "write one Chrome trace-event JSON per run into this directory")
		profDir  = flag.String("profile", "", "write one sharing-profile JSON per run into this directory")
		profTop  = flag.Int("top", 10, "hot cache lines to rank in each sharing profile")
		critDir  = flag.String("critpath", "", "write one critical-path analysis JSON per run into this directory")
		jsonOut  = flag.String("json", "", "append one JSON run manifest per line (JSONL) to this file")

		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole suite to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile after the suite to this file")

		stateDir = flag.String("state", "", "journal each finished point into this directory and resume from it")
		timeout  = flag.Duration("point-timeout", 0, "wall-clock watchdog per simulation point (0 = off); a hung point is recorded as failed and the process exits 4")
		retry    = flag.Bool("retry-failed", false, "re-run points the journal records as failed")
		stopN    = flag.Int("stop-after", 0, "interrupt the suite after N freshly simulated points (resume testing; 0 = off)")

		serveAddr = flag.String("serve", "", "serve live observability endpoints (/metrics, /status, /events, /debug/pprof) on this address, e.g. :9090")
		eventsOut = flag.String("events", "", "append structured run events (JSONL, schema clustersim/events/v1) to this file")
		linger    = flag.Duration("linger", 0, "keep -serve endpoints up this long after the suite finishes")

		faultSeed    = flag.Int64("fault-seed", 1, "fault plan seed (with any -fault-* probability set)")
		faultNack    = flag.Int("fault-nack", 0, "directory-busy NACK probability per 1000 requests")
		faultAck     = flag.Int("fault-ack", 0, "delayed invalidation-ack probability per 1000 acks")
		faultPerturb = flag.Int("fault-perturb", 0, "remote-hop jitter probability per 1000 fetches")

		coordAddr = flag.String("coordinator", "", "distribute the sweep: listen for fabric workers on this address (e.g. :7600); requires -state")
		workerID  = flag.String("worker", "", "run as a fabric worker with this stable identity; requires -connect")
		connect   = flag.String("connect", "", "coordinator address a -worker connects to")
		steal     = flag.Bool("steal", true, "coordinator: let idle workers duplicate in-flight leases (work stealing)")
	)
	flag.Usage = func() {
		fmt.Fprint(os.Stderr, usageText())
		flag.PrintDefaults()
	}
	flag.Parse()
	// A worker takes no experiment names: its work arrives over the wire.
	if flag.NArg() == 0 && *workerID == "" {
		flag.Usage()
		return experiments.ExitUsage
	}
	if *workerID != "" && *connect == "" {
		return usageError(fmt.Errorf("-worker %s needs -connect <coordinator address>", *workerID))
	}
	if *workerID == "" && *connect != "" {
		return usageError(fmt.Errorf("-connect is only meaningful with -worker <id>"))
	}
	if *coordAddr != "" && *workerID != "" {
		return usageError(fmt.Errorf("-coordinator and -worker are mutually exclusive roles"))
	}
	if *coordAddr != "" && *stateDir == "" {
		return usageError(fmt.Errorf("-coordinator needs -state: distributed results land in the journal the rendering pass replays"))
	}
	if *sample < 0 {
		return usageError(fmt.Errorf("-sample %d: interval must be non-negative", *sample))
	}
	if *cpuprofile != "" {
		stopProf, err := perf.StartCPUProfile(*cpuprofile)
		if err != nil {
			return usageError(err)
		}
		defer stopProf()
	}
	if *memprofile != "" {
		// Deferred so the snapshot covers the whole suite; runs before the
		// CPU-profile stop above unwinds.
		defer func() {
			if err := perf.WriteHeapProfile(*memprofile); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}
	opt := experiments.DefaultOptions()
	opt.Procs = *procs
	opt.Quantum = *quantum
	opt.Sanitize = *sanitize
	opt.Bars = *bars
	opt.CSV = *csvOut
	opt.SampleEvery = *sample
	opt.TraceDir = *traceDir
	opt.ProfileDir = *profDir
	opt.ProfileTop = *profTop
	opt.CritpathDir = *critDir
	opt.PointTimeout = *timeout
	opt.RetryFailed = *retry
	if *progress {
		opt.Progress = os.Stderr
	}
	if *faultNack > 0 || *faultAck > 0 || *faultPerturb > 0 {
		opt.Faults = &fault.Config{
			Seed:             *faultSeed,
			NackPerMille:     *faultNack,
			AckDelayPerMille: *faultAck,
			PerturbPerMille:  *faultPerturb,
		}
		if err := opt.Faults.Validate(); err != nil {
			return usageError(err)
		}
	}
	if *stateDir != "" {
		j, err := experiments.OpenJournal(*stateDir)
		if err != nil {
			return usageError(err)
		}
		opt.Journal = j
	}
	if *jsonOut != "" {
		f, err := os.OpenFile(*jsonOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return usageError(err)
		}
		// Closed explicitly before every return path of realMain; the
		// watchdog and double-signal paths os.Exit instead, which is safe
		// because manifest lines are single appended Writes (never torn).
		defer f.Close()
		opt.ManifestOut = f
	}
	sz, err := apps.ParseSize(*size)
	if err != nil {
		return usageError(err)
	}
	opt.Size = sz
	stop := experiments.NewSignalStop()
	defer stop.Close()
	opt.Stop = experiments.StopAfter(*stopN, stop.Stopped)
	if opt.Journal != nil {
		stop.SetJournalDir(opt.Journal.Dir())
	}

	if *workerID != "" {
		return runWorker(*workerID, *connect, opt, stop, *serveAddr, *eventsOut)
	}

	what := flag.Args()
	if len(what) == 1 && what[0] == "all" {
		what = experiments.Names()
	}

	// Live observability plane (-serve / -events). Strictly wall-clock-
	// side: the sweep only observes the suite, so tables, Result JSON and
	// config hashes are byte-identical with or without it.
	runID := fmt.Sprintf("experiments-%d", os.Getpid())
	reg, evlog, sweep, err := obsPlane(runID, *serveAddr, *eventsOut)
	if err != nil {
		return usageError(err)
	}
	defer evlog.Close()
	sweep.SetIdentity(strings.Join(what, " "), *procs, *size)
	opt.Obs = sweep
	if *serveAddr != "" {
		srv, err := obs.NewServer(reg, sweep, evlog).Start(*serveAddr)
		if err != nil {
			return usageError(err)
		}
		// Graceful: attached /events followers end at a record boundary
		// instead of a severed connection.
		defer srv.Shutdown(2 * time.Second)
		fmt.Fprintf(os.Stderr, "experiments: observability endpoints on %s\n", srv.URL())
	}
	// lingerThenSummary runs on every return path below: the summary line
	// (computed-vs-replayed split) always prints, and with -serve the
	// endpoints stay up for -linger so scrapes can read the final state.
	lingerThenSummary := func(suite *experiments.Suite, failed int) {
		fmt.Fprintf(os.Stderr, "experiments: %d points computed, %d replayed from journal, %d experiments failed\n",
			suite.Fresh(), suite.Replayed(), failed)
		if *serveAddr != "" && *linger > 0 {
			// Harness-side wait so external scrapers can observe the final
			// /status and /metrics; never touches simulated state.
			time.Sleep(*linger) //simlint:allow wallclock
		}
	}

	// Distributed mode: fan the planned points out across the fleet and
	// land every completion in the journal, then fall through to the
	// ordinary rendering pass below — which replays each point, so the
	// tables are byte-identical to a local run. The fleet reports its
	// points to the same sweep, so /status shows the fleet's progress
	// and the render pass's replays of settled points count nothing. A
	// distribution error is reported but not fatal: any point the fleet
	// failed to deliver is simply simulated locally by the suite.
	if *coordAddr != "" {
		if err := distribute(*coordAddr, what, opt, *steal); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: distributed sweep:", err)
		}
	} else if sweep != nil {
		// A local sweep declares its total as distribute does, so the
		// ETA is not a floor from the first point on.
		if specs, err := experiments.PlanPoints(what, opt); err == nil {
			sweep.SetTotalPoints(len(specs))
		}
	}

	// One suite memoizes simulation points shared between experiments
	// (e.g. Figures 4-8 and Tables 3, 6). Experiments continue past an
	// individual failure so one broken point cannot sink a long sweep;
	// an interrupt stops the whole run with a resume hint.
	suite := experiments.NewSuite(opt)
	failed := 0
	for i, name := range what {
		if i > 0 {
			fmt.Println()
		}
		err := suite.RunExperiment(name)
		if err == nil {
			continue
		}
		if errors.Is(err, experiments.ErrInterrupted) {
			fmt.Fprintln(os.Stderr, "experiments: interrupted; completed points are flushed")
			if opt.Journal != nil {
				fmt.Fprintf(os.Stderr, "experiments: resume with the same arguments and -state %s\n", opt.Journal.Dir())
			}
			sweep.Interrupted()
			lingerThenSummary(suite, failed)
			return experiments.ExitInterrupted
		}
		failed++
		fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
	}
	sweep.Finish(failed)
	lingerThenSummary(suite, failed)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d of %d experiments failed\n", failed, len(what))
		return experiments.ExitFailures
	}
	return experiments.ExitOK
}

// distribute runs the coordinator phase of a distributed sweep: plan
// the points the requested experiments need, drop the ones the journal
// already holds, and fan the rest out across whatever fleet connects
// (degrading to local execution if none does), reporting to opt.Obs.
func distribute(addr string, what []string, opt experiments.Options, steal bool) error {
	specs, err := experiments.PlanPoints(what, opt)
	if err != nil {
		return err
	}
	opt.Obs.SetTotalPoints(len(specs))
	todo, skipped, err := experiments.FilterJournalled(opt, specs)
	if err != nil {
		return err
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "experiments: all %d distributable points already journalled; nothing to distribute\n", skipped)
		return nil
	}
	// The degraded-mode local runner reports nothing to the sweep itself:
	// the coordinator reports its points, as it does a worker's.
	local := opt
	local.Obs = nil
	onResult, onFailure := experiments.CoordinatorSinks(opt.Journal)
	coord := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Steal:     steal,
		Run:       experiments.FabricRunner(local),
		OnResult:  onResult,
		OnFailure: onFailure,
		Obs:       fabric.NewObs(opt.Obs),
		Progress:  opt.Progress,
	})
	opt.Obs.SetWorkers(coord.FleetWorkers)
	ln, err := fabric.Listen(addr)
	if err != nil {
		return err
	}
	// Accept loop for the fleet; coord.Run below is the sweep's real
	// control loop, and drains this via the listener when done.
	go coord.Serve(ln) //simlint:allow goroutine
	fmt.Fprintf(os.Stderr, "experiments: coordinator on %s: distributing %d points (%d already journalled)\n",
		ln.Addr(), len(todo), skipped)
	_, err = coord.Run(todo)
	return err
}

// obsPlane builds the live-observability plane behind -serve and
// -events: a metrics registry with -serve, an event log with either
// (memory-only without -events, so GET /events still works), and a
// sweep over both. All three are nil when neither flag is set; every
// consumer is nil-safe.
func obsPlane(runID, serveAddr, eventsOut string) (*obs.Registry, *obs.Log, *obs.Sweep, error) {
	var (
		reg   *obs.Registry
		evlog *obs.Log
	)
	if eventsOut != "" {
		l, err := obs.OpenLog(eventsOut, runID)
		if err != nil {
			return nil, nil, nil, err
		}
		evlog = l
	}
	if serveAddr != "" {
		reg = obs.NewRegistry()
		if evlog == nil {
			evlog = obs.NewLog(nil, runID)
		}
	}
	if evlog == nil {
		return nil, nil, nil, nil
	}
	return reg, evlog, obs.NewSweep(runID, reg, evlog), nil
}

// runWorker is the fleet-member main loop: connect, serve assignments,
// and redial with capped backoff when the coordinator is unreachable —
// a worker that outlives a coordinator restart simply rejoins. Exit 0
// on drain (sweep complete), 3 on operator interrupt: the first
// SIGINT/SIGTERM lets the point in flight finish and reach the
// coordinator, then the worker asks for no more work and leaves.
//
// Each assignment is a local suite point (experiments.FabricRunner):
// -state, -retry-failed, -point-timeout, -progress and the artifact
// flags (-profile, -critpath, -trace, -sample, -json) act as in a local
// run, and the artifacts land on this machine.
//
// -serve exposes the worker's own /metrics, /status and /events, and
// -events persists its run-event log as JSONL; without either the
// worker keeps no event log. The fleet's timeline is the coordinator's.
func runWorker(id, addr string, opt experiments.Options, stop *experiments.SignalStop, serveAddr, eventsOut string) int {
	runID := "worker-" + id
	reg, evlog, sweep, err := obsPlane(runID, serveAddr, eventsOut)
	if err != nil {
		return usageError(err)
	}
	defer evlog.Close()
	sweep.SetIdentity("worker "+id, opt.Procs, opt.Size.String())
	if serveAddr != "" {
		srv, err := obs.NewServer(reg, sweep, evlog).Start(serveAddr)
		if err != nil {
			return usageError(err)
		}
		defer srv.Shutdown(2 * time.Second)
		fmt.Fprintf(os.Stderr, "experiments: worker %s: observability endpoints on %s\n", id, srv.URL())
	}
	opt.Obs = sweep
	w := fabric.NewWorker(fabric.WorkerConfig{
		ID:       id,
		Run:      experiments.FabricRunner(opt),
		Progress: os.Stderr,
		Stop:     stop.Stopped,
	})
	backoff := time.Second
	attempt := 0
	for {
		if stop.Stopped() {
			sweep.Interrupted()
			return experiments.ExitInterrupted
		}
		conn, err := fabric.Dial(addr)
		if err == nil {
			backoff, attempt = time.Second, 0
			err = w.RunConn(conn)
			if err == nil {
				sweep.Finish(0)
				fmt.Fprintf(os.Stderr, "experiments: worker %s: sweep complete\n", id)
				return experiments.ExitOK
			}
			if errors.Is(err, fabric.ErrStopped) {
				sweep.Interrupted()
				fmt.Fprintf(os.Stderr, "experiments: worker %s: interrupted; left the fleet after reporting the point in flight\n", id)
				return experiments.ExitInterrupted
			}
		}
		attempt++
		evlog.Emit(obs.Event{Kind: fabric.EventRedial, Worker: id,
			Detail: fmt.Sprintf("coordinator=%s attempt=%d backoff=%v", addr, attempt, backoff),
			Error:  err.Error()})
		fmt.Fprintf(os.Stderr, "experiments: worker %s: %v (coordinator %s, attempt %d, redialing in %v)\n",
			id, err, addr, attempt, backoff)
		// Harness-side reconnect pacing; interrupt is checked each lap.
		time.Sleep(backoff) //simlint:allow wallclock
		if backoff *= 2; backoff > 30*time.Second {
			backoff = 30 * time.Second
		}
	}
}

func usageError(err error) int {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	return experiments.ExitUsage
}

// usageText is the -h / no-argument usage header. It documents every
// exit code the process can return, so scripts and CI need not read
// the source (pinned by TestUsageMentionsExitCodes).
func usageText() string {
	return `usage: experiments [flags] <table1..table7|fig2..fig8|ext-assoc|ext-org|ext-scaling|ext-faults|all>...

distributed sweeps (see README "Distributed sweeps"):
  coordinator:  experiments -coordinator :7600 -state DIR <what>...
  worker:       experiments -worker w1 -connect host:7600 [-state DIR]

exit codes:
  0  every requested experiment completed (worker: sweep drained)
  1  at least one point or experiment failed; the rest ran
  2  bad flags or configuration
  3  SIGINT/SIGTERM (or -stop-after) stopped the suite between points
  4  -point-timeout aborted a hung point

flags:
`
}
