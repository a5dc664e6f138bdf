package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, h http.Handler, target string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	return rec
}

func TestServerMetricsEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("demo_total", "Demo.").Add(7)
	h := NewServer(reg, nil, nil).Handler()

	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != ExpositionContentType {
		t.Errorf("content type %q, want %q", ct, ExpositionContentType)
	}
	st, err := ParseExposition(strings.NewReader(rec.Body.String()))
	if err != nil {
		t.Fatalf("served exposition invalid: %v\n%s", err, rec.Body.String())
	}
	if st.Families != 1 || st.Series != 1 {
		t.Errorf("stats %+v", st)
	}
	if !strings.Contains(rec.Body.String(), "demo_total 7") {
		t.Errorf("body:\n%s", rec.Body.String())
	}
}

func TestServerStatusEndpoint(t *testing.T) {
	sw := NewSweepAt("run-s", nil, nil, fakeClock(time.Unix(3000, 0), time.Second))
	sw.PointStarted(Point{"fft", 2, 0}, "", "")
	sw.PointDone(Point{"fft", 2, 0}, "", time.Second, 9)
	h := NewServer(nil, sw, nil).Handler()

	rec := get(t, h, "/status")
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type %q", ct)
	}
	var doc StatusDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("status not JSON: %v\n%s", err, rec.Body.String())
	}
	if doc.Schema != StatusSchemaV1 || doc.Run != "run-s" || doc.Counts.Done != 1 {
		t.Errorf("doc: %+v", doc)
	}
}

// With no sweep attached, /status serves an explicit idle document
// rather than an error — curl-ability does not depend on wiring.
func TestServerStatusIdleWithoutSweep(t *testing.T) {
	rec := get(t, NewServer(nil, nil, nil).Handler(), "/status")
	var doc StatusDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != StatusSchemaV1 || doc.State != "idle" {
		t.Errorf("idle doc: %+v", doc)
	}
}

func TestServerEventsEndpointFilters(t *testing.T) {
	log := NewLog(nil, "r")
	log.SetClock(fakeClock(time.Unix(0, 0), time.Millisecond))
	log.Emit(Event{Kind: EventPointStart, Point: "a"})
	log.Emit(Event{Kind: EventPointStart, Point: "b"})
	log.Emit(Event{Kind: EventPointDone, Point: "a"})
	h := NewServer(nil, nil, log).Handler()

	rec := get(t, h, "/events")
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Errorf("content type %q", ct)
	}
	all := strings.Count(rec.Body.String(), "\n")
	if all != 3 {
		t.Errorf("%d events unfiltered, want 3:\n%s", all, rec.Body.String())
	}

	rec = get(t, h, "/events?point=a")
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d events for point a, want 2:\n%s", len(lines), rec.Body.String())
	}
	for _, ln := range lines {
		var e Event
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatal(err)
		}
		if e.Point != "a" {
			t.Errorf("filter leaked %+v", e)
		}
	}
}

func TestServerIndexAndMethodDiscipline(t *testing.T) {
	h := NewServer(NewRegistry(), nil, nil).Handler()
	rec := get(t, h, "/")
	for _, path := range []string{"/metrics", "/status", "/events", "/debug/pprof/"} {
		if !strings.Contains(rec.Body.String(), path) {
			t.Errorf("index does not mention %s:\n%s", path, rec.Body.String())
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics = %d, want 405 (endpoints are read-only)", rec.Code)
	}
}

// TestServerShutdownDrainsFollowers pins the graceful path: Shutdown
// with an attached /events?follow=1 stream must end the stream at a
// record boundary (clean EOF, every line valid JSON) and return well
// before its deadline instead of waiting it out.
func TestServerShutdownDrainsFollowers(t *testing.T) {
	log := NewLog(nil, "r")
	log.SetClock(fakeClock(time.Unix(0, 0), time.Millisecond))
	log.Emit(Event{Kind: EventPointStart, Point: "a"})
	run, err := NewServer(nil, nil, log).Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()

	resp, err := http.Get(run.URL() + "/events?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	type streamEnd struct {
		lines []string
		err   error
	}
	ended := make(chan streamEnd, 1)
	go func() { //simlint:allow goroutine — test harness
		body, err := io.ReadAll(resp.Body) // blocks until the server ends the stream
		lines := strings.Split(strings.TrimSpace(string(body)), "\n")
		ended <- streamEnd{lines, err}
	}()

	// Let the follower attach and replay the ring, then shut down.
	time.Sleep(50 * time.Millisecond) //simlint:allow wallclock — test pacing
	log.Emit(Event{Kind: EventPointDone, Point: "a"})
	start := time.Now() //simlint:allow wallclock — test timing
	if err := run.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if waited := time.Since(start); waited > 2*time.Second { //simlint:allow wallclock — test timing
		t.Errorf("Shutdown took %v; followers were not drained, the deadline was", waited)
	}
	end := <-ended
	if end.err != nil {
		t.Fatalf("follower stream severed instead of drained: %v", end.err)
	}
	for _, ln := range end.lines {
		var e Event
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Errorf("stream ended mid-record: %q: %v", ln, err)
		}
	}
	// Shutdown is idempotent.
	if err := run.Shutdown(time.Second); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

func TestServerStartServesAndCloses(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("live_total", "Live.").Inc()
	run, err := NewServer(reg, nil, nil).Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	if !strings.HasPrefix(run.URL(), "http://127.0.0.1:") {
		t.Fatalf("url %q", run.URL())
	}
	resp, err := http.Get(run.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	st, err := ParseExposition(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if st.Series != 1 {
		t.Errorf("stats %+v", st)
	}
	if err := run.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

// TestServerEventsFollowWithPointFilter pins the combined
// /events?point=&follow=1 contract: the filter applies to both the
// replayed ring and the live stream, and the stream still ends cleanly
// on shutdown.
func TestServerEventsFollowWithPointFilter(t *testing.T) {
	log := NewLog(nil, "r")
	log.SetClock(fakeClock(time.Unix(0, 0), time.Millisecond))
	log.Emit(Event{Kind: EventPointStart, Point: "a"})
	log.Emit(Event{Kind: EventPointStart, Point: "b"})
	run, err := NewServer(nil, nil, log).Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()

	resp, err := http.Get(run.URL() + "/events?point=a&follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got := make(chan []Event, 1)
	go func() { //simlint:allow goroutine — test harness
		body, _ := io.ReadAll(resp.Body)
		var evs []Event
		for _, ln := range strings.Split(strings.TrimSpace(string(body)), "\n") {
			var e Event
			if json.Unmarshal([]byte(ln), &e) == nil {
				evs = append(evs, e)
			}
		}
		got <- evs
	}()

	// Live events on both points while the follower is attached.
	time.Sleep(50 * time.Millisecond) //simlint:allow wallclock — test pacing
	log.Emit(Event{Kind: EventPointDone, Point: "b"})
	log.Emit(Event{Kind: EventPointDone, Point: "a"})
	time.Sleep(50 * time.Millisecond) //simlint:allow wallclock — test pacing
	if err := run.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	evs := <-got
	if len(evs) != 2 {
		t.Fatalf("%d events through point filter, want 2 (ring + live): %+v", len(evs), evs)
	}
	for _, e := range evs {
		if e.Point != "a" {
			t.Errorf("combined filter leaked %+v", e)
		}
	}
	if evs[0].Kind != EventPointStart || evs[1].Kind != EventPointDone {
		t.Errorf("stream order: %+v", evs)
	}
}
