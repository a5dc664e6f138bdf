package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"clustersim/internal/obs"
)

// eventsCmd renders a run-event log (the JSONL written by experiments
// -events, schema clustersim/events/v1):
//
//	tracetool events [-point NAME] [-kind KIND] [-worker ID] [-f] <events.jsonl>
//
// -point, -kind and -worker filter (a coordinator's log records every
// fleet member's assignments and results, so -worker isolates one
// machine's story);
// -f keeps polling the file and renders new events as the sweep appends
// them (a schema-aware tail -f).
func eventsCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("events", flag.ContinueOnError)
	point := fs.String("point", "", "only events of this point (e.g. ocean-c4-16k)")
	kind := fs.String("kind", "", "only events of this kind (e.g. point-done)")
	worker := fs.String("worker", "", "only events of this fleet worker (e.g. w1)")
	follow := fs.Bool("f", false, "keep polling the file and render events as they are appended")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("events: want one events.jsonl, got %d args", fs.NArg())
	}
	path := fs.Arg(0)

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
			if *point != "" && e.Point != *point {
				continue
			}
			if *kind != "" && e.Kind != *kind {
				continue
			}
			if *worker != "" && e.Worker != *worker {
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
