package experiments

import (
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestSignalStopSecondSignalExitsImmediately pins the operator escape
// hatch: the first signal only flips the cooperative stop flag (and
// names the journal dir so the operator knows resuming is safe); the
// second signal terminates the process at once with ExitInterrupted.
func TestSignalStopSecondSignalExitsImmediately(t *testing.T) {
	s := NewSignalStop()
	defer s.Close()
	var msgs strings.Builder
	var mu sync.Mutex
	s.setMessageWriter(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return msgs.Write(p)
	}))
	exited := make(chan int, 1)
	s.setExit(func(code int) { exited <- code })
	s.SetJournalDir("/tmp/sweep-state")

	if s.Stopped() {
		t.Fatal("stopped before any signal")
	}
	s.deliver(syscall.SIGINT)
	waitFor(t, "stop flag", func() bool { return s.Stopped() })
	select {
	case code := <-exited:
		t.Fatalf("first signal exited (code %d); it must only request a stop", code)
	default:
	}
	waitFor(t, "first-signal message", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return strings.Contains(msgs.String(), "repeat to exit now")
	})
	mu.Lock()
	first := msgs.String()
	mu.Unlock()
	if !strings.Contains(first, "/tmp/sweep-state") {
		t.Errorf("first-signal message does not name the journal dir:\n%s", first)
	}

	s.deliver(syscall.SIGINT)
	select {
	case code := <-exited:
		if code != ExitInterrupted {
			t.Errorf("second signal exited with %d, want %d", code, ExitInterrupted)
		}
	case <-time.After(5 * time.Second): //simlint:allow wallclock — test deadline
		t.Fatal("second signal did not exit")
	}
}

// TestSignalStopHintOmittedWithoutJournal pins that the message stays
// clean when no -state dir is configured: nothing to resume from, so
// no hint.
func TestSignalStopHintOmittedWithoutJournal(t *testing.T) {
	s := NewSignalStop()
	defer s.Close()
	var msgs strings.Builder
	var mu sync.Mutex
	s.setMessageWriter(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return msgs.Write(p)
	}))
	s.setExit(func(int) {})

	s.deliver(syscall.SIGTERM)
	waitFor(t, "first-signal message", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return strings.Contains(msgs.String(), "repeat to exit now")
	})
	mu.Lock()
	defer mu.Unlock()
	if strings.Contains(msgs.String(), "-state") {
		t.Errorf("hint present without a journal dir:\n%s", msgs.String())
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second) //simlint:allow wallclock — test deadline
	for !cond() {
		if time.Now().After(deadline) { //simlint:allow wallclock — test deadline
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond) //simlint:allow wallclock — test polling
	}
}

// TestStopAfterHook: the hook lets exactly n polls through however many
// goroutines poll it at once, reports true once its inner stop does,
// and without a budget is the inner stop itself.
func TestStopAfterHook(t *testing.T) {
	hook := StopAfter(5, nil)
	var started atomic.Int32
	var wg sync.WaitGroup
	wg.Add(4)
	for range 4 {
		go func() { //simlint:allow goroutine — test harness
			defer wg.Done()
			for range 10 {
				if !hook() {
					started.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := started.Load(); n != 5 {
		t.Errorf("%d of 40 polls let a start through, want 5", n)
	}
	var stopped atomic.Bool
	hook = StopAfter(100, stopped.Load)
	if hook() {
		t.Error("hook stopped before its inner stop or budget did")
	}
	stopped.Store(true)
	if !hook() {
		t.Error("hook ignored its inner stop")
	}
	if StopAfter(0, nil) != nil {
		t.Error("StopAfter(0, nil) is not the nil hook")
	}
}
