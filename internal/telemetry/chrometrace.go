package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace-event export. The output is the JSON-object flavour of
// the Trace Event Format ({"traceEvents": [...]}) understood by
// ui.perfetto.dev and chrome://tracing. One simulated cycle is written
// as one microsecond of trace time.
//
// Track layout:
//   - pid 1 "PEs": one thread per processor; "X" (complete) slices
//     named compute / load-stall / merge-stall / sync-wait that tile
//     the processor's timeline exactly.
//   - pid 2 "cluster caches": one counter track per cluster carrying
//     the interval sampler's deltas (read misses, merges,
//     invalidations per interval).
//   - pid 3 "sync": one thread per synchronisation object; each wait
//     episode is a slice named after the waiting processor.
//   - global "i" instants for marks such as "begin measurement".

const (
	pidPEs      = 1
	pidClusters = 2
	pidSync     = 3
)

// ChromeEvent is one entry of the traceEvents array: ph "X" is a
// complete slice, "i" an instant (S is its scope), "C" a counter
// sample and "M" track-naming metadata. Ts and Dur are trace
// microseconds.
type ChromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []ChromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// WriteChromeEvents is the one Chrome trace-event writer: it encodes
// events as the JSON-object flavour of the format. meta, if non-nil,
// lands in the file's otherData block (app name, config hash, ...).
// WriteChromeTrace and tracetool's fleet export both go through it.
func WriteChromeEvents(w io.Writer, events []ChromeEvent, meta map[string]string) error {
	return json.NewEncoder(w).Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms", OtherData: meta})
}

// WriteChromeTrace serialises the collection as Chrome trace-event
// JSON. meta, if non-nil, lands in the file's otherData block (app
// name, config hash, ...).
func WriteChromeTrace(w io.Writer, c *Collector, meta map[string]string) error {
	var events []ChromeEvent
	ev := func(e ChromeEvent) { events = append(events, e) }

	// Process and thread naming metadata.
	ev(ChromeEvent{Name: "process_name", Ph: "M", Pid: pidPEs,
		Args: map[string]any{"name": "PEs"}})
	ev(ChromeEvent{Name: "process_name", Ph: "M", Pid: pidClusters,
		Args: map[string]any{"name": "cluster caches"}})
	for pe := 0; pe < c.NumPEs(); pe++ {
		ev(ChromeEvent{Name: "thread_name", Ph: "M", Pid: pidPEs, Tid: pe,
			Args: map[string]any{"name": fmt.Sprintf("PE %d", pe)}})
	}
	if len(c.Syncs()) > 0 {
		ev(ChromeEvent{Name: "process_name", Ph: "M", Pid: pidSync,
			Args: map[string]any{"name": "sync"}})
		for _, so := range c.Syncs() {
			name := fmt.Sprintf("%s %q", so.Kind, so.Name)
			if so.Participants > 0 {
				name = fmt.Sprintf("%s (%d-wide)", name, so.Participants)
			}
			ev(ChromeEvent{Name: "thread_name", Ph: "M", Pid: pidSync, Tid: so.ID,
				Args: map[string]any{"name": name}})
		}
	}

	// Per-PE execution-state slices.
	for pe := 0; pe < c.NumPEs(); pe++ {
		for _, s := range c.Slices(pe) {
			ev(ChromeEvent{Name: s.Kind.String(), Ph: "X", Pid: pidPEs, Tid: pe,
				Ts: s.Start, Dur: s.Dur})
		}
	}

	// Synchronisation episodes.
	for _, e := range c.Episodes() {
		if e.Release <= e.Arrival {
			continue
		}
		ev(ChromeEvent{Name: fmt.Sprintf("P%d wait", e.Proc), Ph: "X",
			Pid: pidSync, Tid: int(e.SyncID), Ts: e.Arrival, Dur: e.Release - e.Arrival})
	}

	// Interval-sampled cluster counters.
	for _, s := range c.Samples() {
		for cl, cs := range s.Clusters {
			ev(ChromeEvent{Name: fmt.Sprintf("cluster %d", cl), Ph: "C",
				Pid: pidClusters, Tid: cl, Ts: s.At,
				Args: map[string]any{
					"readMisses":    cs.Refs.ReadMisses,
					"merges":        cs.Refs.Merges,
					"writeMisses":   cs.Refs.WriteMisses,
					"upgrades":      cs.Refs.Upgrades,
					"invalidations": cs.Coh.InvalidationsSent,
				}})
		}
	}

	// Global marks.
	for _, m := range c.Marks() {
		ev(ChromeEvent{Name: m.Name, Ph: "i", Pid: pidPEs, Ts: m.At, S: "g"})
	}

	return WriteChromeEvents(w, events, meta)
}

// TraceSummary is the digest of a Chrome trace file produced by this
// package, as computed by SummarizeChromeTrace.
type TraceSummary struct {
	Events    int
	PEs       int
	LastTs    int64
	ByKind    map[string]int64 // total slice cycles per slice name, PE tracks only
	PETotals  map[int]int64    // summed slice cycles per PE
	Counters  int              // counter samples
	SyncWaits int              // sync episode slices
	Marks     []string
	OtherData map[string]string
}

// SummarizeChromeTrace parses a trace written by WriteChromeTrace (or
// any Trace Event Format JSON object) and aggregates it.
func SummarizeChromeTrace(r io.Reader) (*TraceSummary, error) {
	var tr chromeTrace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tr); err != nil {
		return nil, fmt.Errorf("telemetry: bad trace file: %w", err)
	}
	sum := &TraceSummary{
		ByKind:    make(map[string]int64),
		PETotals:  make(map[int]int64),
		OtherData: tr.OtherData,
	}
	pes := map[int]bool{}
	for _, e := range tr.TraceEvents {
		sum.Events++
		if end := e.Ts + e.Dur; end > sum.LastTs {
			sum.LastTs = end
		}
		switch {
		case e.Ph == "X" && e.Pid == pidPEs:
			pes[e.Tid] = true
			sum.ByKind[e.Name] += e.Dur
			sum.PETotals[e.Tid] += e.Dur
		case e.Ph == "X" && e.Pid == pidSync:
			sum.SyncWaits++
		case e.Ph == "C":
			sum.Counters++
		case e.Ph == "i":
			sum.Marks = append(sum.Marks, e.Name)
		}
	}
	sum.PEs = len(pes)
	return sum, nil
}
