package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"clustersim/internal/apps"
	"clustersim/internal/core"
	"clustersim/internal/telemetry"
)

func journalOpts(t *testing.T) Options {
	t.Helper()
	opt := DefaultOptions()
	opt.Procs = 8
	opt.Size = apps.SizeTest
	opt.Out = io.Discard
	return opt
}

func TestJournalRoundTrip(t *testing.T) {
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := &core.Result{ExecTime: 12345, Config: core.DefaultConfig()}
	rec := PointRecord{App: "ocean", Size: "test", ClusterSize: 4, CacheKB: 16,
		ConfigHash: "sha256:deadbeef", Result: res}
	if err := j.Store(rec); err != nil {
		t.Fatal(err)
	}
	got, ok, err := j.Load("ocean", "test", 4, 16, "sha256:deadbeef")
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	a, _ := json.Marshal(res)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Errorf("result did not round-trip:\n stored %s\n loaded %s", a, b)
	}
	// A different key is a miss, not an error.
	if _, ok, err := j.Load("ocean", "test", 2, 16, "sha256:deadbeef"); ok || err != nil {
		t.Errorf("wrong cluster size: ok=%v err=%v", ok, err)
	}
	if _, ok, err := j.Load("ocean", "test", 4, 16, "sha256:feedface"); ok || err != nil {
		t.Errorf("wrong hash: ok=%v err=%v", ok, err)
	}
}

func TestJournalFailureRoundTrip(t *testing.T) {
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fr := FailureRecord{App: "mp3d", Size: "test", ClusterSize: 2, CacheKB: 4,
		ConfigHash: "sha256:0123", Error: `engine: app "mp3d": processor 3 panicked at virtual time 99: boom`}
	if err := j.StoreFailure(fr); err != nil {
		t.Fatal(err)
	}
	got, ok, err := j.LoadFailure("mp3d", "test", 2, 4, "sha256:0123")
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if got.Error != fr.Error {
		t.Errorf("error text did not round-trip: %q", got.Error)
	}
	// A success for the same point supersedes the failure.
	if err := j.Store(PointRecord{App: "mp3d", Size: "test", ClusterSize: 2, CacheKB: 4,
		ConfigHash: "sha256:0123", Result: &core.Result{ExecTime: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := j.LoadFailure("mp3d", "test", 2, 4, "sha256:0123"); ok {
		t.Error("stored success did not clear the failure record")
	}
}

// TestSuiteResumeByteIdentical is the acceptance criterion's unit form:
// a suite interrupted after an arbitrary number of points and resumed
// from its journal emits tables byte-identical to an uninterrupted run.
func TestSuiteResumeByteIdentical(t *testing.T) {
	apps2 := []string{"mp3d", "ocean"}
	render := func(s *Suite) (string, error) {
		var buf bytes.Buffer
		for _, app := range apps2 {
			bars, err := s.barsFor(app, 4)
			if err != nil {
				return "", err
			}
			printBars(&buf, bars)
		}
		return buf.String(), nil
	}

	clean, err := render(NewSuite(journalOpts(t)))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	interrupted := journalOpts(t)
	interrupted.Journal = j
	interrupted.Stop = StopAfter(3, nil)
	if _, err := render(NewSuite(interrupted)); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted after 3 points, got %v", err)
	}

	resumed := journalOpts(t)
	resumed.Journal = j
	var progress bytes.Buffer
	resumed.Progress = &progress
	rs := NewSuite(resumed)
	out, err := render(rs)
	if err != nil {
		t.Fatal(err)
	}
	if out != clean {
		t.Errorf("resumed tables differ from the uninterrupted run:\n--- clean ---\n%s--- resumed ---\n%s", clean, out)
	}
	if !strings.Contains(progress.String(), "replayed") {
		t.Errorf("resume simulated everything from scratch; progress log:\n%s", progress.String())
	}
	if rs.fresh >= len(apps2)*len(ClusterSizes) {
		t.Errorf("resume re-simulated all %d points (journal ignored)", rs.fresh)
	}

	// A third pass replays everything: zero fresh simulations.
	final := journalOpts(t)
	final.Journal = j
	fs := NewSuite(final)
	out2, err := render(fs)
	if err != nil {
		t.Fatal(err)
	}
	if out2 != clean {
		t.Error("full replay diverged from the clean run")
	}
	if fs.fresh != 0 {
		t.Errorf("full replay still simulated %d points", fs.fresh)
	}
}

// TestSuiteSkipsJournalledFailure: a point recorded as failed is
// reported, not silently re-run; RetryFailed re-attempts it and a
// success clears the record.
func TestSuiteSkipsJournalledFailure(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt := journalOpts(t)
	opt.Journal = j

	// Fabricate a failure record under the exact key Suite.Run computes.
	cfg := opt.config(2, 0)
	hash := mustHash(t, cfg)
	if err := j.StoreFailure(FailureRecord{App: "ocean", Size: opt.Size.String(),
		ClusterSize: 2, CacheKB: 0, ConfigHash: hash, Error: "watchdog: point exceeded the 1s wall-clock budget"}); err != nil {
		t.Fatal(err)
	}

	s := NewSuite(opt)
	if _, err := s.Run("ocean", 2, 0); err == nil ||
		!strings.Contains(err.Error(), "journalled as failed") {
		t.Fatalf("want journalled-failure error, got %v", err)
	}

	retry := opt
	retry.RetryFailed = true
	rs := NewSuite(retry)
	if _, err := rs.Run("ocean", 2, 0); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if _, ok, _ := j.LoadFailure("ocean", opt.Size.String(), 2, 0, hash); ok {
		t.Error("successful retry left the failure record behind")
	}
	// And the post-retry journal now replays.
	again := NewSuite(opt)
	if _, err := again.Run("ocean", 2, 0); err != nil {
		t.Errorf("replay after retry: %v", err)
	}
	if again.fresh != 0 {
		t.Errorf("replay after retry simulated %d points", again.fresh)
	}
}

// TestSuiteRetryAfterWatchdogByteIdentical pins the -point-timeout /
// -retry-failed interaction end to end: a point the watchdog journalled
// as failed (before exiting ExitWatchdog) blocks later replays loudly
// until -retry-failed re-attempts it — with a watchdog still armed on
// the retry — and the healed run's tables are byte-identical to a run
// that never failed at all.
func TestSuiteRetryAfterWatchdogByteIdentical(t *testing.T) {
	render := func(s *Suite) (string, error) {
		var buf bytes.Buffer
		bars, err := s.barsFor("ocean", 4)
		if err != nil {
			return "", err
		}
		printBars(&buf, bars)
		return buf.String(), nil
	}

	clean, err := render(NewSuite(journalOpts(t)))
	if err != nil {
		t.Fatal(err)
	}

	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := journalOpts(t)
	opt.Journal = j
	// Fabricate exactly what a prior run's watchdog leaves behind just
	// before the process exits with ExitWatchdog: a failure record under
	// the key Suite.Run computes for the wedged point.
	hash := mustHash(t, opt.config(2, 4))
	if err := j.StoreFailure(FailureRecord{App: "ocean", Size: opt.Size.String(),
		ClusterSize: 2, CacheKB: 4, ConfigHash: hash,
		Error: "watchdog: point ocean-c2-4k exceeded the 1ms wall-clock budget"}); err != nil {
		t.Fatal(err)
	}

	// Without -retry-failed the poisoned point refuses loudly.
	if _, err := render(NewSuite(opt)); err == nil ||
		!strings.Contains(err.Error(), "journalled as failed") {
		t.Fatalf("want journalled-failure error, got %v", err)
	}

	// -retry-failed re-attempts it with the watchdog re-armed (a budget
	// the healthy point cannot hit — the flags must compose, not fight).
	retry := opt
	retry.RetryFailed = true
	retry.PointTimeout = 5 * time.Minute
	out, err := render(NewSuite(retry))
	if err != nil {
		t.Fatalf("retry run: %v", err)
	}
	if out != clean {
		t.Errorf("retried run differs from the never-failed run:\n--- clean ---\n%s--- retried ---\n%s", clean, out)
	}
	if _, ok, _ := j.LoadFailure("ocean", opt.Size.String(), 2, 4, hash); ok {
		t.Error("successful retry left the failure record behind")
	}

	// The healed journal now replays everything, still byte-identical.
	again := NewSuite(opt)
	out2, err := render(again)
	if err != nil {
		t.Fatal(err)
	}
	if out2 != clean {
		t.Error("post-retry replay diverged from the clean run")
	}
	if again.fresh != 0 {
		t.Errorf("post-retry replay simulated %d fresh points", again.fresh)
	}
}

// TestSuitePanicIsolation: a panicking point becomes an error and a
// journal failure record, and does not kill the process.
func TestSuitePanicIsolation(t *testing.T) {
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := journalOpts(t)
	opt.Journal = j
	// Exercise the isolation wrapper directly: runPoint must convert a
	// panic escaping the workload (outside the engine) into an error.
	w := apps.Runner{Name: "boom", Run: func(cfg core.Config, size apps.Size) (*core.Result, error) {
		panic("setup exploded")
	}}
	if _, err := runPoint(w, opt.config(1, 0), opt.Size); err == nil ||
		!strings.Contains(err.Error(), "setup exploded") {
		t.Fatalf("want isolated panic error, got %v", err)
	}
}

func mustHash(t *testing.T, cfg core.Config) string {
	t.Helper()
	h, err := telemetry.HashConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}
