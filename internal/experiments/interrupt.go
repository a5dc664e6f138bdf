package experiments

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
)

// Exit codes of the experiments CLI, distinct so scripts (and the
// resume smoke test) can tell failure modes apart.
const (
	ExitOK          = 0 // every requested experiment completed
	ExitFailures    = 1 // at least one point or experiment failed; the rest ran
	ExitUsage       = 2 // bad flags or configuration
	ExitInterrupted = 3 // SIGINT/SIGTERM (or -stop-after) stopped the suite between points
	ExitWatchdog    = 4 // -point-timeout aborted a hung point
)

// ErrInterrupted reports that the suite stopped between points — on an
// operator signal or a -stop-after budget — with all completed work
// flushed. It is a clean stop, not a failure: resume from the same
// -state directory.
var ErrInterrupted = errors.New("experiments: interrupted; resume from the -state directory")

// SignalStop converts SIGINT/SIGTERM into a cooperative stop flag the
// suite polls before it starts each simulation point, so the points in
// flight finish, are journalled, and have their trace/profile/manifest
// writes flushed whole. A second signal exits immediately. Stopped is
// safe for concurrent use, as Options.Stop must be.
type SignalStop struct {
	stopped atomic.Bool
	ch      chan os.Signal

	mu         sync.Mutex
	journalDir string
	// exit is the process terminator the second signal invokes;
	// os.Exit in production, injectable so the second-signal path is
	// testable in-process. msgW is where operator-facing messages go
	// (os.Stderr in production, a buffer in tests).
	exit func(int)
	msgW io.Writer
}

// NewSignalStop installs the handler. Call Close to uninstall.
func NewSignalStop() *SignalStop {
	s := &SignalStop{ch: make(chan os.Signal, 2), exit: os.Exit, msgW: os.Stderr}
	signal.Notify(s.ch, syscall.SIGINT, syscall.SIGTERM)
	s.watch()
	return s
}

// watch runs the signal state machine: first signal flips the stop
// flag, second terminates.
func (s *SignalStop) watch() {
	// Harness-level watcher, not simulation code: it only flips the stop
	// flag the suite polls between points (and force-exits on a second
	// signal), so it cannot perturb virtual-time ordering.
	go func() { //simlint:allow goroutine
		sig, ok := <-s.ch
		if !ok {
			return
		}
		s.stopped.Store(true)
		s.printf("experiments: %v: finishing the points in flight, then flushing; repeat to exit now%s\n",
			sig, s.resumeHint())
		if sig, ok := <-s.ch; ok {
			s.printf("experiments: second %v: exiting immediately%s\n", sig, s.resumeHint())
			s.mu.Lock()
			exit := s.exit
			s.mu.Unlock()
			exit(ExitInterrupted)
		}
	}()
}

// SetJournalDir tells the stop messages where completed work lives, so
// the operator staring at a slow point knows exactly how to resume
// before deciding to signal again.
func (s *SignalStop) SetJournalDir(dir string) {
	s.mu.Lock()
	s.journalDir = dir
	s.mu.Unlock()
}

func (s *SignalStop) resumeHint() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journalDir == "" {
		return ""
	}
	return fmt.Sprintf(" (each point is journalled when it finishes; resume with -state %s)", s.journalDir)
}

func (s *SignalStop) printf(format string, args ...any) {
	s.mu.Lock()
	w := s.msgW
	s.mu.Unlock()
	fmt.Fprintf(w, format, args...)
}

// setExit injects a fake process terminator (tests only).
func (s *SignalStop) setExit(exit func(int)) {
	s.mu.Lock()
	s.exit = exit
	s.mu.Unlock()
}

// setMessageWriter redirects operator messages (tests only).
func (s *SignalStop) setMessageWriter(w io.Writer) {
	s.mu.Lock()
	s.msgW = w
	s.mu.Unlock()
}

// deliver injects a signal as if the OS had sent it (tests only; the
// production path receives from signal.Notify on the same channel).
func (s *SignalStop) deliver(sig os.Signal) { s.ch <- sig }

// Stopped reports whether a signal has arrived; the suite polls it
// before each point via Options.Stop, from its worker goroutines.
func (s *SignalStop) Stopped() bool { return s.stopped.Load() }

// Close uninstalls the handler and releases the watcher.
func (s *SignalStop) Close() {
	signal.Stop(s.ch)
	close(s.ch)
}

// StopAfter returns a Stop hook that reports true once stop does (nil
// never does) or once n fresh simulations have started: a deterministic
// stand-in for an operator interrupt, used by the resume smoke test. A
// suite polls its hook before each start and starts only on false, so
// the hook counts its false reports. n <= 0 sets no budget. The hook is
// safe for concurrent use.
func StopAfter(n int, stop func() bool) func() bool {
	if n <= 0 {
		return stop
	}
	var started atomic.Int64
	return func() bool {
		return stop != nil && stop() || started.Add(1) > int64(n)
	}
}
