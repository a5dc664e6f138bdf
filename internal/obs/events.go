package obs

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"
)

// EventsSchemaV1 identifies one run-event record (documented in
// EXPERIMENTS.md). Every line of an events JSONL file is one Event.
const EventsSchemaV1 = "clustersim/events/v1"

// Event kinds. Point events are span-shaped: point-start opens a span
// that exactly one of point-done / point-fail / watchdog closes
// (carrying the wall duration); the rest are instants. The distributed
// fabric adds its own fabric-* kinds (see internal/fabric), carrying
// the worker identity in the Worker field.
const (
	EventSweepStart  = "sweep-start"
	EventSweepDone   = "sweep-done"
	EventPointStart  = "point-start"
	EventPointDone   = "point-done"
	EventPointReplay = "point-replay"
	EventPointFail   = "point-fail"
	EventWatchdog    = "watchdog"
	EventSignalStop  = "signal-stop"
)

// Span markers for span-shaped events.
const (
	SpanBegin = "begin"
	SpanEnd   = "end"
)

// Event is one structured run event. Field order is fixed by this
// struct (encoding/json emits fields in declaration order), and Seq is
// strictly monotone per log, so an events file is diffable and
// mergeable; both properties are pinned by TestEventLogDeterminism.
// Wall timestamps are host-side only — VirtCycles is the only
// simulation-derived field, and it is read from a finished Result,
// never from live simulation state.
type Event struct {
	Schema     string `json:"schema"`
	Seq        uint64 `json:"seq"`
	WallUnixNS int64  `json:"wallUnixNs"`
	Run        string `json:"run,omitempty"`
	Kind       string `json:"kind"`
	Span       string `json:"span,omitempty"`
	Point      string `json:"point,omitempty"`
	Worker     string `json:"worker,omitempty"`
	App        string `json:"app,omitempty"`
	Cluster    int    `json:"cluster,omitempty"`
	Cache      string `json:"cache,omitempty"`
	VirtCycles int64  `json:"virtCycles,omitempty"`
	DurNS      int64  `json:"durNs,omitempty"`
	Error      string `json:"error,omitempty"`
	Detail     string `json:"detail,omitempty"`
}

// logRingCap bounds the in-memory tail GET /events replays.
const logRingCap = 1024

// Log is an append-only JSONL run-event log plus the in-memory tail
// the /events endpoint serves. Append discipline mirrors
// telemetry.AtomicFile's torn-write guarantee for the append case: the
// file is opened O_APPEND and every event is exactly one Write of one
// complete line, so a reader (or a tail -f) never observes a torn
// record even while the sweep is running. A nil *Log is a no-op sink.
type Log struct {
	mu     sync.Mutex
	w      io.Writer
	closer io.Closer
	run    string
	seq    uint64
	now    func() time.Time
	ring   []Event
	subs   map[int]chan Event
	nextID int
	mirror func(Event)
}

// NewLog writes events to w (which may be nil for a memory-only log
// feeding /events). run labels every record.
func NewLog(w io.Writer, run string) *Log {
	return &Log{
		w:   w,
		run: run,
		// Wall stamps on harness events only; never feeds simulated state.
		now:  func() time.Time { return time.Now() }, //simlint:allow wallclock
		subs: make(map[int]chan Event),
	}
}

// OpenLog appends to the JSONL file at path (created if missing).
func OpenLog(path, run string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l := NewLog(f, run)
	l.closer = f
	return l, nil
}

// SetClock injects a deterministic clock (tests).
func (l *Log) SetClock(now func() time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.now = now
	l.mu.Unlock()
}

// SetMirror registers a synchronous secondary sink invoked under the
// log lock for every emitted event, after stamping. Unlike Subscribe,
// a mirror is lossless — the fleet view depends on seeing every event
// to keep its per-point timelines complete — so it must be fast and
// must never call back into the log. At most one mirror; nil clears it.
func (l *Log) SetMirror(fn func(Event)) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.mirror = fn
	l.mu.Unlock()
}

// Emit stamps (schema, seq, wall time, run) onto e and appends it:
// one marshal, one Write. Marshal errors cannot happen for Event's
// plain field types, so Emit has no error to return; a short write to
// a dying disk surfaces on Close.
func (l *Log) Emit(e Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e.Schema = EventsSchemaV1
	e.Seq = l.seq
	e.WallUnixNS = l.now().UnixNano()
	if e.Run == "" {
		e.Run = l.run
	}
	if l.w != nil {
		line, err := json.Marshal(e)
		if err == nil {
			line = append(line, '\n')
			l.w.Write(line)
		}
	}
	if len(l.ring) == logRingCap {
		copy(l.ring, l.ring[1:])
		l.ring = l.ring[:logRingCap-1]
	}
	l.ring = append(l.ring, e)
	if l.mirror != nil {
		l.mirror(e)
	}
	for _, ch := range l.subs {
		select {
		case ch <- e:
		default: // a stalled follower drops events rather than blocking the sweep
		}
	}
}

// Recent returns a copy of the in-memory tail (oldest first).
func (l *Log) Recent() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.ring))
	copy(out, l.ring)
	return out
}

// Subscribe registers a live follower. The returned cancel func must be
// called when the follower goes away. Followers that fall behind the
// channel buffer lose events instead of stalling the sweep.
func (l *Log) Subscribe() (<-chan Event, func()) {
	if l == nil {
		ch := make(chan Event)
		return ch, func() {}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := l.nextID
	l.nextID++
	ch := make(chan Event, 256)
	l.subs[id] = ch
	return ch, func() {
		l.mu.Lock()
		delete(l.subs, id)
		l.mu.Unlock()
	}
}

// Close closes the underlying file, if any.
func (l *Log) Close() error {
	if l == nil || l.closer == nil {
		return nil
	}
	return l.closer.Close()
}

// ReadEvents decodes an events JSONL stream, validating the schema tag
// on every record (tracetool events and the smoke tests).
func ReadEvents(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var e Event
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
		if e.Schema != EventsSchemaV1 {
			return out, errUnknownSchema(e.Schema)
		}
		out = append(out, e)
	}
}

type errUnknownSchema string

func (e errUnknownSchema) Error() string {
	return "obs: unknown event schema " + string(e) + " (want " + EventsSchemaV1 + ")"
}
