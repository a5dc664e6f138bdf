package perf

import (
	"runtime"
	"runtime/metrics"
)

// Host identifies the machine and Go runtime a run executed on and the
// runtime's health figures over the run: the run manifest's `host`
// block. Everything here is host-side reporting — none of it feeds the
// simulation, so two runs differing only in this block are still the
// "same" run (scripts diff manifests with the host block stripped; see
// the golden manifest test).
type Host struct {
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numCpu"`

	// Filled by Monitor.Report for a monitored run; zero otherwise.
	WallNS         int64  `json:"wallNs"`
	HeapPeakBytes  uint64 `json:"heapPeakBytes"`
	GCPauseTotalNS int64  `json:"gcPauseTotalNs"`
	NumGC          uint32 `json:"numGc"`
	GoroutinePeak  int    `json:"goroutinePeak"`
}

// ReadHost snapshots the static host identity.
func ReadHost() Host {
	return Host{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// hostGaugeNames are the runtime/metrics gauges the monitor tracks
// peaks of during a run.
var hostGaugeNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/sched/goroutines:goroutines",
}

// ReadHostGauges samples the current live-heap bytes and goroutine
// count through runtime/metrics: the monitor tracks their peaks, and
// the obs /status endpoint reports them as live health figures.
func ReadHostGauges() (heapBytes uint64, goroutines int) {
	samples := make([]metrics.Sample, len(hostGaugeNames))
	for i, n := range hostGaugeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindUint64 {
		heapBytes = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		goroutines = int(samples[1].Value.Uint64())
	}
	return heapBytes, goroutines
}
