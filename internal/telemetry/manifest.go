package telemetry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
)

// SchemaV1 identifies the run-manifest document layout.
const SchemaV1 = "clustersim/run-manifest/v1"

// Manifest is the JSON run manifest: everything needed to identify,
// diff and script over a simulation run. Config and Result are written
// as-is (core.Config and *core.Result in practice; the types are `any`
// here because core depends on this package, not the reverse).
type Manifest struct {
	Schema     string        `json:"schema"`
	App        string        `json:"app,omitempty"`
	Size       string        `json:"size,omitempty"`
	ConfigHash string        `json:"configHash"`
	Config     any           `json:"config"`
	Result     any           `json:"result"`
	Memory     *MemoryReport `json:"memory,omitempty"`
	Profile    any           `json:"profile,omitempty"`
	// Critpath is the critical-path analyzer's summary block
	// (*critpath.Summary in practice): phase count, balanced-ideal
	// execution time and the top contended lock.
	Critpath  any         `json:"critpath,omitempty"`
	Telemetry *SelfReport `json:"telemetry,omitempty"`
	// Host is the host-side block (perf.Host in practice): Go version,
	// GOOS/GOARCH, GOMAXPROCS, wall duration, peak heap. It describes the
	// machine the simulator ran on, never the simulated machine — scripts
	// diffing manifests for reproducibility must strip it first.
	Host any `json:"host,omitempty"`
}

// MemoryReport is the manifest's address-space block: the total
// simulated footprint and the named-region table, so scripts can map
// profile addresses back to the structures the application declared.
type MemoryReport struct {
	FootprintBytes uint64       `json:"footprintBytes"`
	Regions        []RegionInfo `json:"regions,omitempty"`
}

// RegionInfo is one named allocation, in allocation order.
type RegionInfo struct {
	Name string `json:"name"`
	Base uint64 `json:"base"`
	Size uint64 `json:"size"`
}

// SelfReport is the simulator's self-metrics block of a manifest.
type SelfReport struct {
	Handoffs        uint64            `json:"handoffs"`
	MaxReadyDepth   int               `json:"maxReadyDepth"`
	MeanReadyDepth  float64           `json:"meanReadyDepth"`
	MaxQuantumSkew  Clock             `json:"maxQuantumSkew"`
	Slices          int               `json:"slices"`
	SyncEpisodes    int               `json:"syncEpisodes"`
	CoherenceEvents uint64            `json:"coherenceEvents"`
	MissClasses     map[string]uint64 `json:"missClasses,omitempty"`
	Samples         int               `json:"samples"`
	Series          []SamplePoint     `json:"series,omitempty"`
}

// SamplePoint is one machine-wide interval of the sampled time series.
type SamplePoint struct {
	At            Clock  `json:"at"`
	Reads         uint64 `json:"reads"`
	Writes        uint64 `json:"writes"`
	ReadMisses    uint64 `json:"readMisses"`
	Merges        uint64 `json:"merges"`
	WriteMisses   uint64 `json:"writeMisses"`
	Upgrades      uint64 `json:"upgrades"`
	Invalidations uint64 `json:"invalidations"`
}

// SelfReport summarises the collection for a manifest. Safe on a nil
// collector (returns nil), so callers can pass their collector through
// unconditionally.
func (c *Collector) SelfReport() *SelfReport {
	if c == nil {
		return nil
	}
	r := &SelfReport{
		Handoffs:        c.sched.Handoffs,
		MaxReadyDepth:   c.sched.MaxReadyDepth,
		MeanReadyDepth:  c.sched.MeanReadyDepth(),
		MaxQuantumSkew:  c.sched.MaxSkew,
		SyncEpisodes:    len(c.episodes),
		CoherenceEvents: c.CoherenceEvents(),
		Samples:         len(c.samples),
	}
	if t := c.MissClassTotals(); len(t) > 0 {
		r.MissClasses = t
	}
	for pe := range c.pes {
		r.Slices += c.pes[pe].n
	}
	for _, s := range c.samples {
		t := s.Total()
		r.Series = append(r.Series, SamplePoint{
			At:            s.At,
			Reads:         t.Refs.Reads,
			Writes:        t.Refs.Writes,
			ReadMisses:    t.Refs.ReadMisses,
			Merges:        t.Refs.Merges,
			WriteMisses:   t.Refs.WriteMisses,
			Upgrades:      t.Refs.Upgrades,
			Invalidations: t.Coh.InvalidationsSent,
		})
	}
	return r
}

// HashConfig returns a deterministic content hash of a configuration:
// sha256 over its canonical JSON encoding (struct field order is fixed,
// so encoding/json is canonical for struct values). Two runs of the
// same configuration always produce the same hash.
func HashConfig(cfg any) (string, error) {
	b, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("telemetry: config not hashable: %w", err)
	}
	h := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(h[:]), nil
}

// WriteManifest writes m as indented JSON, filling Schema and
// ConfigHash if they are unset.
func WriteManifest(w io.Writer, m Manifest) error {
	if m.Schema == "" {
		m.Schema = SchemaV1
	}
	if m.ConfigHash == "" {
		h, err := HashConfig(m.Config)
		if err != nil {
			return err
		}
		m.ConfigHash = h
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// ManifestDoc is the read-side view of a manifest: Config and Result
// stay raw so callers can unmarshal them into the concrete types they
// know about.
type ManifestDoc struct {
	Schema     string          `json:"schema"`
	App        string          `json:"app"`
	Size       string          `json:"size"`
	ConfigHash string          `json:"configHash"`
	Config     json.RawMessage `json:"config"`
	Result     json.RawMessage `json:"result"`
	Memory     *MemoryReport   `json:"memory"`
	Profile    json.RawMessage `json:"profile"`
	Critpath   json.RawMessage `json:"critpath"`
	Telemetry  *SelfReport     `json:"telemetry"`
	Host       json.RawMessage `json:"host"`
}

// ReadManifest parses one manifest document.
func ReadManifest(r io.Reader) (*ManifestDoc, error) {
	var d ManifestDoc
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("telemetry: bad manifest: %w", err)
	}
	if d.Schema != SchemaV1 {
		return nil, fmt.Errorf("telemetry: unknown manifest schema %q", d.Schema)
	}
	return &d, nil
}
