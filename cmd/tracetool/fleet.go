package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"clustersim/internal/obs/fleet"
	"clustersim/internal/telemetry"
)

// fleetCmd renders fleet observability artifacts:
//
//	tracetool fleet <fleet.json>                       render a GET /fleet doc
//	tracetool fleet -chrome out.json <events.jsonl>    Chrome trace, one track per worker
//
// The fleet doc (schema clustersim/fleet/v1) is the coordinator's
// aggregated status; the events JSONL is the coordinator's log
// (-events), the fleet's one timeline. One point's story is
// `tracetool events -point NAME` over that log. The Chrome export
// opens in chrome://tracing or Perfetto: coordinator events on their
// own track, each worker's on its own, computed points as slices.
func fleetCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	chrome := fs.String("chrome", "", "write a Chrome trace-event JSON of the fleet timeline to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("fleet: want one input file, got %d args", fs.NArg())
	}
	if *chrome != "" {
		return fleetChrome(fs.Arg(0), *chrome, out)
	}
	return fleetDoc(fs.Arg(0), out)
}

// fleetDoc validates and renders a saved GET /fleet document.
func fleetDoc(path string, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var doc fleet.Doc
	dec := json.NewDecoder(f)
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != fleet.SchemaV1 {
		return fmt.Errorf("%s: unknown fleet schema %q (want %s)", path, doc.Schema, fleet.SchemaV1)
	}
	fmt.Fprintf(out, "fleet %s (schema %s)\n", doc.Run, doc.Schema)
	t := doc.Totals
	fmt.Fprintf(out, "totals: %d workers (%d live), %d points (%d assigned): %d done, %d replayed, %d failed; %d events\n",
		t.Workers, t.Live, t.Points, t.Assigned, t.Done, t.Replayed, t.Failed, t.Events)
	eta := doc.ETA
	if eta.HaveRemaining {
		fmt.Fprintf(out, "eta: %d/%d points, mean %v/point, ~%v remaining\n",
			eta.DonePoints, eta.TotalPoints,
			time.Duration(eta.MeanPointMS)*time.Millisecond,
			time.Duration(eta.RemainingMS)*time.Millisecond)
	} else {
		fmt.Fprintf(out, "eta: %d/%d points\n", eta.DonePoints, eta.TotalPoints)
	}
	fmt.Fprintf(out, "%-10s %-5s %-6s %-8s %5s %8s %6s %4s\n",
		"worker", "alive", "leases", "hb-age", "done", "replayed", "failed", "dups")
	for _, w := range doc.Workers {
		alive, hb := "no", "-"
		if w.Alive {
			alive = "yes"
			hb = (time.Duration(w.HeartbeatAgeMS) * time.Millisecond).String()
		}
		fmt.Fprintf(out, "%-10s %-5s %-6d %-8s %5d %8d %6d %4d\n",
			w.Worker, alive, w.LeasesHeld, hb, w.Done, w.Replayed, w.Failed, w.Duplicates)
	}
	return nil
}

// fleetChrome exports a coordinator events JSONL as a Chrome
// trace-event file: one track ("thread") per fleet identity — the
// coordinator plus each worker. An event that carries a wall duration
// (a fabric-result's worker-measured durNs, a local point-done) becomes
// a slice ending at its stamp, so every computed point is one slice on
// the track of the worker that computed it; the rest are instants.
func fleetChrome(path, outFile string, out io.Writer) error {
	evs, err := readEventsFile(path)
	if err != nil {
		return err
	}
	if len(evs) == 0 {
		return fmt.Errorf("%s: empty events log", path)
	}
	base := evs[0].WallUnixNS
	us := func(ns int64) int64 { return (ns - base) / 1e3 }
	tracks := []string{"coordinator"}
	tids := map[string]int{"": 0}
	var ces []telemetry.ChromeEvent
	for _, e := range evs {
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
