package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"clustersim/internal/apps"
	"clustersim/internal/obs"
)

// The tests in this file set runtime.GOMAXPROCS, which is process-wide,
// so none of them is parallel.

// sweepOutput is everything a pass writes: the tables, the progress
// lines with their wall times cut, the manifest lines with their host
// blocks cut, and the journal's files by name.
type sweepOutput struct {
	stdout, progress string
	manifests        []string
	journal          map[string]string
	err              error
}

var wallTime = regexp.MustCompile(` \(wall [^)]*\)`)

// renderAt runs body on a suite over opt, with a journal in dir (none
// if dir is empty), a progress writer and a manifest writer attached,
// under runtime.GOMAXPROCS(procs). After body returns no goroutine of
// the pass may remain.
func renderAt(t *testing.T, procs int, opt Options, dir string, body func(*Suite) error) sweepOutput {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	if dir != "" {
		j, err := OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		opt.Journal = j
	}
	var stdout, progress, manifests bytes.Buffer
	opt.Out, opt.Progress, opt.ManifestOut = &stdout, &progress, &manifests
	start := runtime.NumGoroutine()
	out := sweepOutput{err: body(NewSuite(opt))}
	waitFor(t, "the pass's goroutines to exit", func() bool { return runtime.NumGoroutine() <= start })
	out.stdout = stdout.String()
	out.progress = wallTime.ReplaceAllString(progress.String(), "")
	for _, line := range strings.Split(strings.TrimSpace(manifests.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("manifest line %q: %v", line, err)
		}
		delete(m, "host")
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out.manifests = append(out.manifests, string(b))
	}
	if dir != "" {
		out.journal = readDir(t, dir)
	}
	return out
}

func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(name)] = string(b)
	}
	return files
}

// experimentsBody renders the named experiments in order, as
// cmd/experiments does.
func experimentsBody(names ...string) func(*Suite) error {
	return func(s *Suite) error {
		for _, name := range names {
			if err := s.RunExperiment(name); err != nil {
				return err
			}
		}
		return nil
	}
}

// table7Body renders Table 7 through its data method: 8 points, ocean
// and lu at every cluster size with infinite caches.
func table7Body(s *Suite) error { return s.PrintTable7() }

func requireSame(t *testing.T, what string, serial, parallel sweepOutput) {
	t.Helper()
	if serial.stdout != parallel.stdout {
		t.Errorf("%s: stdout differs:\n--- GOMAXPROCS=1 ---\n%s--- GOMAXPROCS=4 ---\n%s", what, serial.stdout, parallel.stdout)
	}
	if serial.progress != parallel.progress {
		t.Errorf("%s: progress differs:\n--- GOMAXPROCS=1 ---\n%s--- GOMAXPROCS=4 ---\n%s", what, serial.progress, parallel.progress)
	}
	if !reflect.DeepEqual(serial.manifests, parallel.manifests) {
		t.Errorf("%s: manifest lines differ (%d vs %d lines)", what, len(serial.manifests), len(parallel.manifests))
	}
	if !reflect.DeepEqual(serial.journal, parallel.journal) {
		t.Errorf("%s: journals differ:\n GOMAXPROCS=1: %v\n GOMAXPROCS=4: %v", what, sortedKeys(serial.journal), sortedKeys(parallel.journal))
	}
	if (serial.err == nil) != (parallel.err == nil) || serial.err != nil && serial.err.Error() != parallel.err.Error() {
		t.Errorf("%s: errors differ: %v vs %v", what, serial.err, parallel.err)
	}
}

func sortedKeys(m map[string]string) []string {
	var out []string
	for k := range m {
		out = append(out, k) //simlint:allow maprange — sorted below
	}
	sort.Strings(out)
	return out
}

// TestParallelMatchesSerial pins what the worker loop must not change:
// Suite renderers and the experiments that bypass Suite.Run, run under
// GOMAXPROCS 1 and 4, write the same tables, the same progress lines in
// the same order, the same manifest lines (host block aside) and the
// same journal, byte for byte. A second pass of the Suite renderers
// over the journal replays every point, looking each up once.
func TestParallelMatchesSerial(t *testing.T) {
	names := []string{"table5", "fig2", "fig5", "table6", "ext-org", "ext-faults", "fig3"}
	opt := Options{Procs: 8, Size: apps.SizeTest}
	serialDir, parallelDir := t.TempDir(), t.TempDir()
	serial := renderAt(t, 1, opt, serialDir, experimentsBody(names...))
	parallel := renderAt(t, 4, opt, parallelDir, experimentsBody(names...))
	if serial.err != nil {
		t.Fatal(serial.err)
	}
	requireSame(t, "fresh pass", serial, parallel)
	if len(serial.journal) == 0 || len(serial.manifests) != len(serial.journal) {
		t.Fatalf("%d manifest lines for %d journal records", len(serial.manifests), len(serial.journal))
	}

	sweep := obs.NewSweep("resume", nil, nil)
	o := opt
	o.Obs = sweep
	resumed := renderAt(t, 4, o, parallelDir, experimentsBody(names[:4]...))
	if resumed.err != nil || !strings.HasPrefix(serial.stdout, resumed.stdout) {
		t.Errorf("resumed pass differs from the fresh one (err %v)", resumed.err)
	}
	if doc := sweep.Status(); doc.Journal.Hits != len(serial.journal) || doc.Journal.Misses != 0 || doc.Counts.Replayed != len(serial.journal) {
		t.Errorf("resumed pass: journal %+v, %d replayed; want each of %d records looked up once",
			doc.Journal, doc.Counts.Replayed, len(serial.journal))
	}
}

// TestParallelStopAfter: a StopAfter hook caps what a data method
// starts, so both ways leave exactly the same StopAfter journal records,
// and resuming renders the uninterrupted tables.
func TestParallelStopAfter(t *testing.T) {
	clean := renderAt(t, 1, Options{Procs: 8, Size: apps.SizeTest}, t.TempDir(), table7Body)
	var outs [2]sweepOutput
	for i, procs := range []int{1, 4} {
		opt := Options{Procs: 8, Size: apps.SizeTest, Stop: StopAfter(5, nil)}
		dir := t.TempDir()
		outs[i] = renderAt(t, procs, opt, dir, table7Body)
		if !errors.Is(outs[i].err, ErrInterrupted) || len(outs[i].journal) != 5 {
			t.Fatalf("GOMAXPROCS=%d: err %v with %d journal records; want ErrInterrupted with 5", procs, outs[i].err, len(outs[i].journal))
		}
		resumed := renderAt(t, procs, Options{Procs: 8, Size: apps.SizeTest}, dir, table7Body)
		if resumed.err != nil || resumed.stdout != clean.stdout {
			t.Errorf("GOMAXPROCS=%d: resumed tables differ from the uninterrupted run (err %v)", procs, resumed.err)
		}
	}
	requireSame(t, "StopAfter=5", outs[0], outs[1])
}

// TestParallelStopPolls: Stop is polled before each point starts, in
// plan order, so a Stop that turns true on its third poll starts the
// first two planned points both ways. Both finish and are journalled,
// and the resumed tables are the uninterrupted ones.
func TestParallelStopPolls(t *testing.T) {
	clean := renderAt(t, 1, Options{Procs: 8, Size: apps.SizeTest}, t.TempDir(), table7Body)
	specs, err := PlanPoints([]string{"table7"}, Options{Procs: 8, Size: apps.SizeTest})
	if err != nil {
		t.Fatal(err)
	}
	var outs [2]sweepOutput
	for i, procs := range []int{1, 4} {
		var polls atomic.Int32
		var done []string
		log := obs.NewLog(nil, "stop")
		log.SetMirror(func(e obs.Event) {
			if e.Kind == obs.EventPointDone {
				done = append(done, e.Point)
			}
		})
		opt := Options{Procs: 8, Size: apps.SizeTest, Obs: obs.NewSweep("stop", nil, log),
			Stop: func() bool { return polls.Add(1) >= 3 }}
		dir := t.TempDir()
		outs[i] = renderAt(t, procs, opt, dir, table7Body)
		if !errors.Is(outs[i].err, ErrInterrupted) {
			t.Fatalf("GOMAXPROCS=%d: err %v, want ErrInterrupted", procs, outs[i].err)
		}
		if len(done) != 2 || len(outs[i].journal) != len(done) {
			t.Errorf("GOMAXPROCS=%d: %d points finished (%v), %d journalled; want 2 and 2", procs, len(done), done, len(outs[i].journal))
		}
		journalled := map[string]bool{}
		for _, name := range sortedKeys(outs[i].journal) {
			var rec PointRecord
			if err := json.Unmarshal([]byte(outs[i].journal[name]), &rec); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			journalled[obs.Point{App: rec.App, Cluster: rec.ClusterSize, CacheKB: rec.CacheKB}.Name()] = true
		}
		for _, p := range done {
			if !journalled[p] {
				t.Errorf("GOMAXPROCS=%d: finished point %s is not journalled", procs, p)
			}
		}
		for _, spec := range specs[:2] {
			if !journalled[spec.Name()] {
				t.Errorf("GOMAXPROCS=%d: planned point %s was not started first", procs, spec.Name())
			}
		}
		resumed := renderAt(t, procs, Options{Procs: 8, Size: apps.SizeTest}, dir, table7Body)
		if resumed.err != nil || resumed.stdout != clean.stdout {
			t.Errorf("GOMAXPROCS=%d: resumed tables differ from the uninterrupted run (err %v)", procs, resumed.err)
		}
	}
	requireSame(t, "Stop on the third poll", outs[0], outs[1])
}

// TestRunJobsStopPolls: an experiment that bypasses Suite.Run polls
// Stop before each job, as a data method does, so a Stop that turns true
// on its third poll starts exactly two of ExtAssociativityData's jobs
// both ways. It waits for them, returns ErrInterrupted and no rows, and
// leaves no goroutine behind.
func TestRunJobsStopPolls(t *testing.T) {
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var polls atomic.Int32
			opt := Options{Procs: 8, Size: apps.SizeTest, Stop: func() bool { return polls.Add(1) >= 3 }}
			start := runtime.NumGoroutine()
			rows, err := ExtAssociativityData(opt)
			if !errors.Is(err, ErrInterrupted) || rows != nil {
				t.Errorf("GOMAXPROCS=%d: %d rows, err %v; want none and ErrInterrupted", procs, len(rows), err)
			}
			// Each start follows one poll, and the loop stops polling once
			// Stop is true: three polls are two jobs started.
			if n := polls.Load(); n != 3 {
				t.Errorf("GOMAXPROCS=%d: Stop polled %d times, want 3", procs, n)
			}
			waitFor(t, "the jobs' goroutines to exit", func() bool { return runtime.NumGoroutine() <= start })
		}()
	}
}

// TestParallelJournalledFailure: a failure record on a mid-plan point
// stops the render pass there both ways, with the same error, and
// nothing past it is started.
func TestParallelJournalledFailure(t *testing.T) {
	opt := Options{Procs: 8, Size: apps.SizeTest}
	specs, err := PlanPoints([]string{"table7"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	var outs [2]sweepOutput
	for i, procs := range []int{1, 4} {
		dir := t.TempDir()
		j, err := OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		storeFailure(t, j, specs[3])
		outs[i] = renderAt(t, procs, opt, dir, table7Body)
		if outs[i].err == nil || !strings.Contains(outs[i].err.Error(), "journalled as failed") {
			t.Fatalf("GOMAXPROCS=%d: err %v, want the journalled failure", procs, outs[i].err)
		}
		if len(outs[i].journal) != 4 {
			t.Errorf("GOMAXPROCS=%d: %d journal files, want the 3 points before the failure and its record", procs, len(outs[i].journal))
		}
	}
	requireSame(t, "journalled failure", outs[0], outs[1])
}

// TestParallelWatchdogArmed: PointTimeout arms the watchdog on the
// points a data method starts on its workers. With a budget no point
// can meet and the process exit replaced, the watchdog fires on them
// and the tables are still the unguarded ones. No journal is attached,
// so a watchdog that fires as its point returns writes no file.
func TestParallelWatchdogArmed(t *testing.T) {
	clean := renderAt(t, 1, Options{Procs: 8, Size: apps.SizeTest}, t.TempDir(), table7Body)
	var fired, exits atomic.Int32
	defer func(exit func(int)) { watchdogExit = exit }(watchdogExit)
	watchdogExit = func(code int) {
		if code == ExitWatchdog {
			exits.Add(1)
		}
	}
	log := obs.NewLog(nil, "watchdog")
	log.SetMirror(func(e obs.Event) {
		if e.Kind == obs.EventWatchdog {
			fired.Add(1)
		}
	})
	opt := Options{Procs: 8, Size: apps.SizeTest, PointTimeout: time.Nanosecond, Obs: obs.NewSweep("watchdog", nil, log)}
	out := renderAt(t, 4, opt, "", table7Body)
	if out.err != nil || out.stdout != clean.stdout {
		t.Errorf("guarded tables differ from the unguarded ones (err %v)", out.err)
	}
	waitFor(t, "every fired watchdog to reach its exit", func() bool { return exits.Load() == fired.Load() })
	if fired.Load() == 0 {
		t.Error("no watchdog fired on a prefetched point")
	}
}
