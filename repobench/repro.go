package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"clustersim/internal/apps"
	"clustersim/internal/experiments"
	"clustersim/internal/obs"
)

// The repro-resume workload is `experiments -procs 16 -size test
// -sample 5000 -profile DIR -critpath DIR -state DIR all`, run twice
// over one journal: a fresh pass, then a resume pass.
const (
	reproProcs       = 16
	reproSampleEvery = 5000
)

var reproSize = apps.SizeTest

// allExperiments is cmd/experiments' expansion of "all", in its order:
// later experiments replay points computed by earlier ones.
var allExperiments = []string{"table1", "table2", "table3", "table4", "table5",
	"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table6", "table7",
	"ext-assoc", "ext-org", "ext-scaling", "ext-faults"}

// runExperiment is cmd/experiments' dispatch of one experiment name.
func runExperiment(s *experiments.Suite, name string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiment panicked: %v", r)
		}
	}()
	opt := s.Opt
	switch name {
	case "table1":
		return experiments.Table1(opt)
	case "table2":
		return experiments.Table2(opt)
	case "table3":
		return s.PrintTable3()
	case "table4":
		return experiments.Table4(opt)
	case "table5":
		return s.PrintTable5()
	case "table6":
		return s.PrintTable6()
	case "table7":
		return s.PrintTable7()
	case "fig2":
		return s.PrintFig2()
	case "fig3":
		return experiments.Fig3(opt)
	case "fig4", "fig5", "fig6", "fig7", "fig8":
		n, _ := strconv.Atoi(strings.TrimPrefix(name, "fig"))
		return s.PrintFigFinite(n)
	case "ext-assoc":
		return experiments.ExtAssociativity(opt)
	case "ext-org":
		return experiments.ExtOrganizations(opt)
	case "ext-scaling":
		return experiments.ExtScaling(opt)
	case "ext-faults":
		return experiments.ExtFaults(opt)
	}
	return fmt.Errorf("unknown experiment %q", name)
}

// passStats is one pass over allExperiments in one Suite.
type passStats struct {
	wall     time.Duration
	perExp   []time.Duration // indexed like allExperiments
	table    []byte          // rendered text, as cmd/experiments prints it
	fresh    int
	replayed int
}

func (b *bench) reproOptions(j *experiments.Journal, sweep *obs.Sweep) experiments.Options {
	opt := experiments.DefaultOptions()
	opt.Procs = reproProcs
	opt.Size = reproSize
	opt.SampleEvery = reproSampleEvery
	opt.ProfileDir = filepath.Join(b.work, "state", "profile")
	opt.CritpathDir = filepath.Join(b.work, "state", "critpath")
	opt.Journal = j
	opt.Obs = sweep
	return opt
}

// reproPass runs every experiment once in one fresh Suite.
func (b *bench) reproPass(opt experiments.Options, label string) passStats {
	var out bytes.Buffer
	opt.Out = &out
	s := experiments.NewSuite(opt)
	st := passStats{perExp: make([]time.Duration, len(allExperiments))}
	pass := b.spans.begin("experiments."+label, -1)
	for i, name := range allExperiments {
		if i > 0 {
			out.WriteString("\n")
		}
		sp := b.spans.begin("experiments."+label+"."+name, pass)
		err := runExperiment(s, name)
		st.perExp[i] = b.spans.end(sp)
		if err != nil {
			b.check.fail(label+" "+name, err)
		}
	}
	st.wall = b.spans.end(pass)
	st.table, st.fresh, st.replayed = out.Bytes(), s.Fresh(), s.Replayed()
	return st
}

// reproRun is the workload body: a fresh pass that journals every
// Suite point, then resumes resume passes over the same journal, each a
// new Suite. It checks every rendered table and every journalled point,
// and returns the fresh pass, the resume passes and the journal's
// records.
func (b *bench) reproRun(fresh, resume *obs.Sweep, resumes int) (f passStats, rs []passStats, recs []experiments.PointRecord, err error) {
	dir := filepath.Join(b.work, "state", "journal")
	j, err := experiments.OpenJournal(dir)
	if err != nil {
		return f, nil, nil, err
	}
	f = b.reproPass(b.reproOptions(j, fresh), "fresh")
	b.check.ok("table:repro", textDigest(f.table))
	b.check.ok("count:repro.points", strconv.Itoa(f.fresh))
	for i := 0; i < resumes; i++ {
		p := b.reproPass(b.reproOptions(j, resume), "resume")
		b.check.ok("table:repro", textDigest(p.table))
		b.check.invariant("fresh and resume tables are byte-identical", bytes.Equal(f.table, p.table))
		b.check.invariant("resume simulates nothing the journal holds", p.fresh == 0 && p.replayed == f.fresh)
		rs = append(rs, p)
	}
	recs, err = readJournal(dir)
	if err != nil {
		return f, rs, nil, err
	}
	b.check.invariant("journal holds every fresh point", len(recs) == f.fresh)
	for _, rec := range recs {
		b.check.ok(pointKey(rec.App, rec.Size, reproProcs, rec.ClusterSize, rec.CacheKB), resultDigest(rec.Result))
	}
	return f, rs, recs, nil
}

// readJournal decodes every point record in a journal directory, in
// file-name order.
func readJournal(dir string) ([]experiments.PointRecord, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var recs []experiments.PointRecord
	for _, name := range names {
		if strings.HasSuffix(name, ".failed.json") {
			continue
		}
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		var rec experiments.PointRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("journal record %s: %w", filepath.Base(name), err)
		}
		if rec.Result == nil {
			return nil, fmt.Errorf("journal record %s has no result", filepath.Base(name))
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// setupRepro resets the journal and artifact directories and runs one
// small warm-up point.
func (b *bench) setupRepro() error {
	if err := b.resetState(); err != nil {
		return err
	}
	return b.warmUp("fft", 0)
}

func reproTimed(b *bench) (map[string]metric, error) {
	setupS, err := b.timedSetup(b.setupRepro)
	if err != nil {
		return nil, err
	}
	f, rs, recs, err := b.reproRun(nil, nil, timedResumes)
	if err != nil {
		return nil, err
	}
	var n uint64
	for _, rec := range recs {
		n += refs(rec.Result)
	}
	var resumes []float64
	for _, r := range rs {
		resumes = append(resumes, r.wall.Seconds())
	}
	m := map[string]metric{
		"refs_per_s": {float64(n) / f.wall.Seconds(), "1/s"},
		"sweep_s":    {f.wall.Seconds(), "s"},
		"resume_s":   {median(resumes), "s"},
	}
	return m, b.endToEnd(m, setupS)
}

func reproTraced(b *bench) (map[string]metric, error) {
	if err := b.setupRepro(); err != nil {
		return nil, err
	}
	m := map[string]metric{}
	return m, b.sharedLayers(m, true)
}

// experimentLayers runs the repro workload with the obs sweep tracker
// attached and reports the experiments layer: points computed and
// replayed, per-point wall, one span per experiment per pass, and the
// journal's store and load latency.
func (b *bench) experimentLayers(m map[string]metric) error {
	log := obs.NewLog(nil, "repobench")
	var pointS []float64
	log.SetMirror(func(e obs.Event) {
		if e.Kind == obs.EventPointDone {
			pointS = append(pointS, float64(e.DurNS)/1e9)
		}
	})
	fresh := obs.NewSweep("repobench-fresh", obs.NewRegistry(), log)
	resume := obs.NewSweep("repobench-resume", obs.NewRegistry(), log)
	for _, sw := range []*obs.Sweep{fresh, resume} {
		sw.SetIdentity("all", reproProcs, reproSize.String())
	}
	f, rs, recs, err := b.reproRun(fresh, resume, 1)
	if err != nil {
		return err
	}
	r := rs[0]
	fresh.Finish(0)
	resume.Finish(0)
	m["experiments.points_fresh"] = metric{float64(f.fresh), "count"}
	m["experiments.points_replayed"] = metric{float64(r.replayed), "count"}
	m["experiments.point_s.p50"] = metric{median(pointS), "s"}
	m["experiments.point_s.p90"] = metric{quantile(pointS, 0.9), "s"}
	m["experiments.point_s.n"] = metric{float64(len(pointS)), "count"}
	m["experiments.fresh_s"] = metric{f.wall.Seconds(), "s"}
	m["experiments.resume_s"] = metric{r.wall.Seconds(), "s"}
	for i, name := range allExperiments {
		m["experiments.fresh."+name+"_s"] = metric{f.perExp[i].Seconds(), "s"}
		m["experiments.resume."+name+"_s"] = metric{r.perExp[i].Seconds(), "s"}
	}

	// Journal latency: store every record into a second journal and
	// load every record back from the first, one span per call.
	src, err := experiments.OpenJournal(filepath.Join(b.work, "state", "journal"))
	if err != nil {
		return err
	}
	dst, err := experiments.OpenJournal(filepath.Join(b.work, "state", "journal-copy"))
	if err != nil {
		return err
	}
	var stores, loads []float64
	for _, rec := range recs {
		sp := b.spans.begin("experiments.journal.store", -1)
		err := dst.Store(rec)
		stores = append(stores, b.spans.end(sp).Seconds()*1e3)
		if err != nil {
			return err
		}
		sp = b.spans.begin("experiments.journal.load", -1)
		res, ok, err := src.Load(rec.App, rec.Size, rec.ClusterSize, rec.CacheKB, rec.ConfigHash)
		loads = append(loads, b.spans.end(sp).Seconds()*1e3)
		if err != nil {
			return err
		}
		b.check.invariant("journal load finds every stored record", ok && res != nil)
	}
	m["experiments.journal_store_ms.p50"] = metric{median(stores), "ms"}
	m["experiments.journal_load_ms.p50"] = metric{median(loads), "ms"}
	return nil
}
