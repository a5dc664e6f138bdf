// Telemetry walkthrough: attach a collector to a run, sample counters
// on an interval grid, and export both observability artifacts — a
// Perfetto-compatible Chrome trace and a JSON run manifest.
//
// The kernel alternates compute phases with scans of a shared table,
// separated by barriers, so the exported trace shows the phase
// structure directly: compute slices, load-stall slices where the scan
// misses, merge-stall slices where cluster-mates overlap fetches, and
// sync-wait slices at each barrier.
//
// Run with:
//
//	go run ./examples/telemetry
//
// then open the printed trace file at https://ui.perfetto.dev.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"clustersim/internal/core"
	"clustersim/internal/telemetry"
)

func main() {
	cfg := core.DefaultConfig()
	cfg.Procs = 8
	cfg.ClusterSize = 4
	cfg.CacheKBPerProc = 4

	// 1. Attach a collector and a 2000-cycle sampling grid.
	col := telemetry.New()
	cfg.Telemetry = col
	cfg.SampleEvery = 2000

	m, err := core.NewMachine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	table := m.Alloc(32*1024, "table")
	bar := m.NewBarrier()

	res, err := m.Run(func(p *core.Proc) {
		for phase := 0; phase < 3; phase++ {
			p.Compute(core.Clock(200 * (1 + p.ID()%3))) // uneven work -> sync waits
			for a := table; a < table+32*1024; a += 64 {
				p.Read(a)
			}
			bar.Wait(p)
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. The collector now holds the run's full observability record.
	fmt.Printf("run: exec %d cycles over %d PEs, %d clusters\n",
		res.ExecTime, col.NumPEs(), col.NumClusters())
	sched := col.Sched()
	fmt.Printf("scheduler: %d token handoffs, ready-set depth max %d / mean %.1f\n",
		sched.Handoffs, sched.MaxReadyDepth, sched.MeanReadyDepth())
	totals := col.SliceTotals(0)
	fmt.Printf("PE 0 timeline: compute %d  load-stall %d  merge-stall %d  sync-wait %d (sum = final clock %d)\n",
		totals[telemetry.SliceCompute], totals[telemetry.SliceLoadStall],
		totals[telemetry.SliceMergeStall], totals[telemetry.SliceSyncWait],
		totals[0]+totals[1]+totals[2]+totals[3])
	fmt.Printf("sampled intervals: %d; sync episodes: %d\n",
		len(col.Samples()), len(col.Episodes()))

	dir, err := os.MkdirTemp("", "clustersim-telemetry-")
	if err != nil {
		log.Fatal(err)
	}

	// 3. Export the Chrome trace (one track per PE, counter tracks per
	// cluster cache, one track per sync object).
	hash, err := telemetry.HashConfig(cfg)
	if err != nil {
		log.Fatal(err)
	}
	tracePath := filepath.Join(dir, "run.trace.json")
	tf, err := os.Create(tracePath)
	if err != nil {
		log.Fatal(err)
	}
	if err := telemetry.WriteChromeTrace(tf, col, map[string]string{
		"app": "telemetry-example", "configHash": hash,
	}); err != nil {
		log.Fatal(err)
	}
	tf.Close()
	fmt.Printf("\nwrote %s — open it at https://ui.perfetto.dev\n", tracePath)

	// 4. Export the JSON run manifest: Config + Result + a
	// deterministic config hash + simulator self-metrics. Two runs of
	// the same config always hash identically, so manifests diff
	// cleanly across code changes.
	var manifest bytes.Buffer
	if err := telemetry.WriteManifest(&manifest, telemetry.Manifest{
		App:       "telemetry-example",
		Config:    cfg,
		Result:    res,
		Telemetry: col.SelfReport(),
	}); err != nil {
		log.Fatal(err)
	}
	manifestPath := filepath.Join(dir, "run.manifest.json")
	if err := os.WriteFile(manifestPath, manifest.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d bytes); configHash %s\n", manifestPath, manifest.Len(), hash)

	// 5. Round-trip: the manifest reads back losslessly.
	doc, err := telemetry.ReadManifest(bytes.NewReader(manifest.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("manifest round-trip: schema %s, hash matches: %v\n",
		doc.Schema, doc.ConfigHash == hash)
}
