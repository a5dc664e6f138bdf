package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func fakeClock(start time.Time, step time.Duration) func() time.Time {
	at := start
	return func() time.Time {
		at = at.Add(step)
		return at
	}
}

// TestEventLogDeterminism pins the two properties that make events
// files diffable: field order is fixed by the Event struct (so two
// identical runs produce byte-identical logs under a fixed clock), and
// Seq is strictly monotone from 1.
func TestEventLogDeterminism(t *testing.T) {
	emitAll := func(l *Log) {
		l.Emit(Event{Kind: EventSweepStart})
		l.Emit(Event{Kind: EventPointStart, Span: SpanBegin, Point: "fft-c4-inf", App: "fft", Cluster: 4, Cache: "inf"})
		l.Emit(Event{Kind: EventPointDone, Span: SpanEnd, Point: "fft-c4-inf", App: "fft", Cluster: 4, Cache: "inf",
			VirtCycles: 777, DurNS: 1500})
		l.Emit(Event{Kind: EventPointFail, Point: "lu-c1-inf", Error: "boom"})
		l.Emit(Event{Kind: EventSweepDone, Detail: "done"})
	}
	render := func() string {
		var b bytes.Buffer
		l := NewLog(&b, "run-1")
		l.SetClock(fakeClock(time.Unix(1000, 0), time.Second))
		emitAll(l)
		return b.String()
	}
	one, two := render(), render()
	if one != two {
		t.Fatalf("two identical runs differ:\n%s\nvs\n%s", one, two)
	}

	// Byte-exact field order: schema first, then seq, wall stamp, run,
	// kind, and the span/point block — the documented v1 layout.
	first := strings.SplitN(one, "\n", 2)[0]
	want := `{"schema":"clustersim/events/v1","seq":1,"wallUnixNs":1001000000000,"run":"run-1","kind":"sweep-start"}`
	if first != want {
		t.Errorf("first line layout:\n got %s\nwant %s", first, want)
	}

	evs, err := ReadEvents(strings.NewReader(one))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 5 {
		t.Fatalf("read %d events, want 5", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d: seq = %d, want strictly monotone from 1", i, e.Seq)
		}
		if e.Schema != EventsSchemaV1 {
			t.Errorf("event %d: schema = %q", i, e.Schema)
		}
		if e.Run != "run-1" {
			t.Errorf("event %d: run = %q", i, e.Run)
		}
	}
	if evs[2].VirtCycles != 777 || evs[2].DurNS != 1500 {
		t.Errorf("span payload lost: %+v", evs[2])
	}
}

// Every event is exactly one Write of one complete line: a reader
// tailing the file never sees a torn record.
func TestEmitWritesWholeLines(t *testing.T) {
	var w countingWriter
	l := NewLog(&w, "r")
	l.SetClock(fakeClock(time.Unix(0, 0), time.Millisecond))
	l.Emit(Event{Kind: EventSweepStart})
	l.Emit(Event{Kind: EventSweepDone})
	if w.writes != 2 {
		t.Errorf("%d Writes for 2 events, want one per event", w.writes)
	}
	for _, chunk := range w.chunks {
		if !strings.HasSuffix(chunk, "\n") || strings.Count(chunk, "\n") != 1 {
			t.Errorf("chunk is not one complete line: %q", chunk)
		}
	}
}

type countingWriter struct {
	writes int
	chunks []string
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.chunks = append(w.chunks, string(p))
	return len(p), nil
}

func TestRecentRingBounded(t *testing.T) {
	l := NewLog(nil, "r")
	l.SetClock(fakeClock(time.Unix(0, 0), time.Millisecond))
	for i := 0; i < logRingCap+10; i++ {
		l.Emit(Event{Kind: EventPointStart})
	}
	recent := l.Recent()
	if len(recent) != logRingCap {
		t.Fatalf("ring holds %d, want %d", len(recent), logRingCap)
	}
	if recent[0].Seq != 11 || recent[len(recent)-1].Seq != logRingCap+10 {
		t.Errorf("ring window [%d, %d], want oldest dropped", recent[0].Seq, recent[len(recent)-1].Seq)
	}
}

// TestLogMirrorLossless: concurrent emitters push more events than the
// /events ring holds, and the mirror sees every one exactly once, in
// seq order, stamped by the log — the guarantee a consumer of a whole
// log (repobench's per-point timings, the keystone audit) relies on.
func TestLogMirrorLossless(t *testing.T) {
	const emitters, each = 4, logRingCap / 2
	l := NewLog(nil, "coord")
	var mirrored []Event // appended under the log lock
	l.SetMirror(func(e Event) { mirrored = append(mirrored, e) })
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) { //simlint:allow goroutine — test harness
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Emit(Event{Kind: EventPointDone, Detail: fmt.Sprintf("%d/%d", g, i)})
			}
		}(g)
	}
	wg.Wait()
	if len(l.Recent()) != logRingCap {
		t.Fatalf("ring holds %d events, want it full at %d", len(l.Recent()), logRingCap)
	}
	if len(mirrored) != emitters*each {
		t.Fatalf("mirror saw %d events, want %d", len(mirrored), emitters*each)
	}
	seen := map[string]bool{}
	for i, e := range mirrored {
		if e.Seq != uint64(i+1) || e.Run != "coord" || e.Schema != EventsSchemaV1 {
			t.Fatalf("mirrored event %d = %+v, want seq %d stamped by the log", i, e, i+1)
		}
		if seen[e.Detail] {
			t.Fatalf("event %s mirrored twice", e.Detail)
		}
		seen[e.Detail] = true
	}
}

func TestSubscribeDeliversAndCancels(t *testing.T) {
	l := NewLog(nil, "r")
	l.SetClock(fakeClock(time.Unix(0, 0), time.Millisecond))
	ch, cancel := l.Subscribe()
	l.Emit(Event{Kind: EventPointStart, Point: "p"})
	select {
	case e := <-ch:
		if e.Point != "p" {
			t.Errorf("got %+v", e)
		}
	default:
		t.Fatal("subscriber did not receive the event")
	}
	cancel()
	l.Emit(Event{Kind: EventPointDone, Point: "p"})
	select {
	case e := <-ch:
		t.Errorf("cancelled subscriber still received %+v", e)
	default:
	}
}

func TestReadEventsRejectsUnknownSchema(t *testing.T) {
	in := `{"schema":"clustersim/events/v2","seq":1,"kind":"x"}` + "\n"
	if _, err := ReadEvents(strings.NewReader(in)); err == nil {
		t.Fatal("unknown schema accepted")
	}
}

// Nil receivers are no-ops so callers can hook unconditionally.
func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Emit(Event{Kind: EventSweepStart})
	l.SetClock(nil)
	if got := l.Recent(); got != nil {
		t.Errorf("nil log Recent = %v", got)
	}
	ch, cancel := l.Subscribe()
	cancel()
	select {
	case <-ch:
		t.Error("nil log subscription delivered")
	default:
	}
	if err := l.Close(); err != nil {
		t.Errorf("nil log Close = %v", err)
	}
}
