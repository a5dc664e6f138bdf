package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"clustersim/internal/obs"
	"clustersim/internal/telemetry"
)

// eventsCmd renders a run-event log (the JSONL written by experiments
// -events, schema clustersim/events/v1):
//
//	tracetool events [-point NAME] [-kind KIND] [-worker ID] [-f] <events.jsonl>
//	tracetool events [-point NAME] [-kind KIND] [-worker ID] -chrome out.json <events.jsonl>
//
// -point, -kind and -worker filter (a coordinator's log records every
// fleet member's leases and completions, so -worker isolates one
// machine's story);
// -f keeps polling the file and renders new events as the sweep appends
// them (a schema-aware tail -f);
// -chrome writes the selected events as a Chrome trace instead.
func eventsCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("events", flag.ContinueOnError)
	point := fs.String("point", "", "only events of this point (e.g. ocean-c4-16k)")
	kind := fs.String("kind", "", "only events of this kind (e.g. point-done)")
	worker := fs.String("worker", "", "only events of this fleet worker (e.g. w1)")
	follow := fs.Bool("f", false, "keep polling the file and render events as they are appended")
	chrome := fs.String("chrome", "", "write a Chrome trace-event JSON of the selected events to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("events: want one events.jsonl, got %d args", fs.NArg())
	}
	if *chrome != "" && *follow {
		return fmt.Errorf("events: -chrome writes one file and cannot follow (-f)")
	}
	path := fs.Arg(0)
	keep := func(e obs.Event) bool {
		return (*point == "" || e.Point == *point) && (*kind == "" || e.Kind == *kind) &&
			(*worker == "" || e.Worker == *worker)
	}
	if *chrome != "" {
		return eventsChrome(path, *chrome, keep, out)
	}

	var base int64 // first event's wall stamp anchors the offset column
	var lastSeq uint64
	render := func() (int, error) {
		evs, err := readEventsFile(path)
		if err != nil {
			return 0, err
		}
		n := 0
		for _, e := range evs {
			if e.Seq <= lastSeq {
				continue
			}
			lastSeq = e.Seq
			if base == 0 {
				base = e.WallUnixNS
			}
			if !keep(e) {
				continue
			}
			writeEventRow(out, e, base)
			n++
		}
		return n, nil
	}

	if _, err := render(); err != nil {
		return err
	}
	if !*follow {
		return nil
	}
	for {
		// Poll cadence for the live tail; host-side only.
		time.Sleep(500 * time.Millisecond) //simlint:allow wallclock
		if _, err := render(); err != nil {
			return err
		}
	}
}

// readEventsFile decodes and schema-validates one events JSONL file.
// The whole file is re-read per poll: the O_APPEND single-write-per-
// line discipline means a growing file is always a valid prefix, and
// event logs are small (one line per point transition).
func readEventsFile(path string) ([]obs.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	evs, err := obs.ReadEvents(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return evs, nil
}

func writeEventRow(out io.Writer, e obs.Event, base int64) {
	off := time.Duration(e.WallUnixNS - base).Round(time.Millisecond)
	note := e.Detail
	if e.Error != "" {
		note = e.Error
	}
	switch {
	case e.DurNS > 0 && e.VirtCycles > 0:
		note = fmt.Sprintf("wall %v, %d cycles", time.Duration(e.DurNS).Round(time.Millisecond), e.VirtCycles)
	case e.DurNS > 0:
		note = fmt.Sprintf("wall %v  %s", time.Duration(e.DurNS).Round(time.Millisecond), note)
	case e.VirtCycles > 0:
		note = fmt.Sprintf("%d cycles  %s", e.VirtCycles, note)
	}
	if e.Worker != "" {
		fmt.Fprintf(out, "%6d  +%-10v %-16s %-8s %-24s %s\n", e.Seq, off, e.Kind, e.Worker, e.Point, note)
		return
	}
	fmt.Fprintf(out, "%6d  +%-10v %-16s %-24s %s\n", e.Seq, off, e.Kind, e.Point, note)
}

// eventsChrome exports the selected events of a log as a Chrome
// trace-event file: one track ("thread") for the sweep's own events and
// one per fleet worker. An event that carries a wall duration (a
// point-done, on a coordinator with the worker's measured cost) becomes
// a slice ending at its stamp, so every computed point is one slice on
// the track of the worker that computed it; the rest are instants.
func eventsChrome(path, outFile string, keep func(obs.Event) bool, out io.Writer) error {
	evs, err := readEventsFile(path)
	if err != nil {
		return err
	}
	if len(evs) == 0 {
		return fmt.Errorf("%s: empty events log", path)
	}
	base := evs[0].WallUnixNS
	us := func(ns int64) int64 { return (ns - base) / 1e3 }
	tracks := []string{"sweep"}
	tids := map[string]int{"": 0}
	var ces []telemetry.ChromeEvent
	for _, e := range evs {
		if !keep(e) {
			continue
		}
		tid, ok := tids[e.Worker]
		if !ok {
			tid = len(tracks)
			tids[e.Worker] = tid
			tracks = append(tracks, e.Worker)
		}
		args := map[string]any{"kind": e.Kind}
		if e.Detail != "" {
			args["detail"] = e.Detail
		}
		if e.Error != "" {
			args["error"] = e.Error
		}
		ce := telemetry.ChromeEvent{Name: e.Kind, Ph: "i", S: "t", Pid: 1, Tid: tid, Ts: us(e.WallUnixNS), Args: args}
		switch {
		case e.Point != "" && e.DurNS > 0:
			ce.Name, ce.Ph, ce.S = e.Point, "X", ""
			ce.Ts, ce.Dur = us(e.WallUnixNS-e.DurNS), e.DurNS/1e3
		case e.Point != "":
			ce.Name = e.Point + " " + e.Kind
		}
		ces = append(ces, ce)
	}
	// Name the tracks: metadata events Chrome reads for thread labels.
	all := make([]telemetry.ChromeEvent, 0, len(tracks)+len(ces))
	for i, label := range tracks {
		all = append(all, telemetry.ChromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: i,
			Args: map[string]any{"name": label}})
	}
	all = append(all, ces...)
	if err := telemetry.AtomicFile(outFile, func(w io.Writer) error {
		return telemetry.WriteChromeEvents(w, all, nil)
	}); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d trace events (%d tracks) to %s\n", len(ces), len(tracks), outFile)
	return nil
}

// metricsCmd validates a Prometheus text exposition — a saved GET
// /metrics response, or stdin with "-" — and reports its shape. CI's
// observability smoke pipes the scraped endpoint through this:
//
//	curl -s localhost:9090/metrics | tracetool metrics -
func metricsCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("metrics: want one exposition file (or - for stdin), got %d args", fs.NArg())
	}
	var r io.Reader
	name := fs.Arg(0)
	if name == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	st, err := obs.ParseExposition(r)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	fmt.Fprintf(out, "%s: valid exposition: %d metric families, %d series\n", name, st.Families, st.Series)
	return nil
}
