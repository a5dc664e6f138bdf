// Package fabric is the fault-tolerant distributed sweep layer: a
// coordinator/worker protocol that fans the experiments suite's
// simulation points out across machines and survives a hostile network.
//
// The design is robustness-first. Every sweep point is deterministic —
// the same PointSpec produces a byte-identical core.Result on any
// worker — so every recovery path is provably safe:
//
//   - A dead worker's leases are re-assigned (capped exponential
//     backoff); if the "dead" worker was merely partitioned and its
//     Result arrives late, the duplicate completion is asserted
//     byte-identical and dropped (last write wins, and must agree).
//   - An idle worker can steal an in-flight lease (speculative
//     duplicate execution) to absorb uneven point costs; the same
//     duplicate-completion argument makes stealing always safe.
//   - A restarted worker replays its local journal instead of
//     recomputing, so a crash loses at most the point in flight.
//   - A coordinator with no live workers degrades to local execution,
//     so the sweep always completes.
//
// Two transports implement the same Conn/Listener contract: a real TCP
// codec (wire.go, length-delimited JSON frames carrying versioned
// clustersim/fabric/v1 messages) and an in-memory simulated network
// (simnet.go) whose seed-deterministic fault injection — message drop,
// duplication, delay, partition, abrupt worker crash — lets the entire
// failure matrix run hermetically in one test process.
//
// The fabric is wall-clock-side harness machinery: it schedules which
// host simulates which point, and never reaches into simulated state.
// Results, tables and config hashes are byte-identical to a local run
// (pinned by the experiments keystone test).
package fabric

import (
	"fmt"

	"clustersim/internal/core"
	"clustersim/internal/fault"
	"clustersim/internal/obs"
)

// ProtoV1 is the wire-protocol version tag every message carries. A
// peer speaking any other version is rejected at decode time, so
// version skew surfaces as a handshake error, not silent corruption.
const ProtoV1 = "clustersim/fabric/v1"

// Message types of the v1 protocol (documented in EXPERIMENTS.md).
const (
	// MsgHello is the worker's first message: its identity.
	MsgHello = "hello"
	// MsgSteal is the worker asking for work — on joining, after each
	// finished point, and (the eponymous case) when the pending queue
	// is empty and the coordinator may duplicate an in-flight lease.
	MsgSteal = "steal"
	// MsgAssign leases one point to a worker.
	MsgAssign = "assign"
	// MsgHeartbeat is the worker's periodic liveness beacon.
	MsgHeartbeat = "heartbeat"
	// MsgResult completes (or fails) a lease.
	MsgResult = "result"
	// MsgDrain tells a worker the sweep is complete: disconnect.
	MsgDrain = "drain"
)

// PointSpec describes one sweep point completely enough for any worker
// to rebuild the exact core.Config. ConfigHash is the coordinator's
// hash of that config; a worker recomputes it and refuses a mismatch,
// so version skew between fleet binaries is caught before it can fork
// an experiment.
type PointSpec struct {
	App         string        `json:"app"`
	Size        string        `json:"size"`
	ClusterSize int           `json:"clusterSize"`
	CacheKB     int           `json:"cacheKB"` // 0 = infinite
	Procs       int           `json:"procs"`
	Quantum     int64         `json:"quantum,omitempty"`
	Sanitize    bool          `json:"sanitize,omitempty"`
	Faults      *fault.Config `json:"faults,omitempty"`
	ConfigHash  string        `json:"configHash"`
}

// Key is the point's unique identity within one sweep: the journal key
// fields. Two specs with equal keys must produce byte-identical
// results — the invariant behind every duplicate-completion recovery.
func (p PointSpec) Key() string {
	return fmt.Sprintf("%s-%s-c%d-%dk-%s", p.App, p.Size, p.ClusterSize, p.CacheKB, p.ConfigHash)
}

// Point is the spec's sweep point, the key the coordinator's sweep
// tracks it under.
func (p PointSpec) Point() obs.Point {
	return obs.Point{App: p.App, Cluster: p.ClusterSize, CacheKB: p.CacheKB}
}

// Name is the point's display name (app-cN-cache).
func (p PointSpec) Name() string { return p.Point().Name() }

// Msg is the single wire envelope of the v1 protocol. Type selects
// which optional fields are meaningful. Decoding ignores unknown
// fields, so frames from a v1 peer that sends fields this build lacks
// (older builds also sent trace, obsAddr and spans) still decode.
type Msg struct {
	V    string `json:"v"`    // always ProtoV1
	Type string `json:"type"` // one of the Msg* constants

	// Worker is the sender's stable identity (hello, heartbeat, steal,
	// result). A restarted worker reuses its ID to reclaim its place.
	Worker string `json:"worker,omitempty"`

	// Lease identifies one assignment (assign, result). Lease IDs are
	// unique per coordinator run, so a late Result for a superseded
	// lease is still attributable.
	Lease uint64 `json:"lease,omitempty"`

	// Point is the leased spec (assign).
	Point *PointSpec `json:"point,omitempty"`

	// Result is the completed point (result, success).
	Result *core.Result `json:"result,omitempty"`

	// Error is the failure report (result, failure): the annotated
	// panic or engine error text.
	Error string `json:"error,omitempty"`

	// Resumed marks a Result that was replayed from the worker's local
	// journal rather than recomputed (a restarted worker resuming).
	Resumed bool `json:"resumed,omitempty"`

	// Detail carries free-form context (drain reason, hello metadata).
	Detail string `json:"detail,omitempty"`

	// WallNS is the worker-measured wall-clock cost of a freshly
	// computed point (result, success, not resumed). It becomes the
	// coordinator's point-done durNs: the sweep ETA's cost sample and
	// the point's slice in the Chrome export. Never enters Result JSON.
	WallNS int64 `json:"wallNs,omitempty"`
}

// Runner executes one point. The experiments package supplies the real
// implementation, which runs the spec as an ordinary suite point (the
// suite's journal replay, failure records, panic isolation, watchdog
// and artifacts); fabric tests inject fakes. A Runner must be
// deterministic: equal specs yield byte-identical results. resumed
// reports that the result was replayed from a local journal instead of
// recomputed.
type Runner func(PointSpec) (res *core.Result, resumed bool, err error)
