package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"clustersim/internal/core"
	"clustersim/internal/obs"
	"clustersim/internal/telemetry"
)

// Journal schemas. A point record is one finished simulation result; a
// failure record is one point that panicked or timed out, kept so a
// resumed suite can skip (or, with RetryFailed, re-attempt) it.
const (
	PointSchemaV1   = "clustersim/point/v1"
	FailureSchemaV1 = "clustersim/point-failure/v1"
)

// PointRecord is one journalled simulation point. The key fields (app,
// size, cluster size, cache and config hash) are stored alongside the
// result so a record is self-describing and a resumed suite can verify
// it belongs to the configuration being replayed.
type PointRecord struct {
	Schema      string       `json:"schema"`
	App         string       `json:"app"`
	Size        string       `json:"size"`
	ClusterSize int          `json:"clusterSize"`
	CacheKB     int          `json:"cacheKB"` // 0 = infinite
	ConfigHash  string       `json:"configHash"`
	Result      *core.Result `json:"result"`
}

// FailureRecord marks a point that did not finish: the engine's
// annotated panic text (app, PE id, virtual time) or the watchdog's
// timeout report.
type FailureRecord struct {
	Schema      string `json:"schema"`
	App         string `json:"app"`
	Size        string `json:"size"`
	ClusterSize int    `json:"clusterSize"`
	CacheKB     int    `json:"cacheKB"`
	ConfigHash  string `json:"configHash"`
	Error       string `json:"error"`
}

// Journal is the per-point run journal of a suite: one JSON file per
// simulation point in a state directory, written atomically, keyed by
// (app, size, cluster size, cache, config hash). An interrupted or
// crashed suite resumes by replaying the journalled points and
// simulating only the missing ones; because a Result round-trips
// through JSON losslessly, the resumed suite's tables are byte-
// identical to an uninterrupted run's.
type Journal struct {
	dir string
}

// OpenJournal opens (creating if needed) the journal in dir.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{dir: dir}, nil
}

// Dir returns the journal's state directory.
func (j *Journal) Dir() string { return j.dir }

// pointPath names a point's file. The problem size and the config hash
// are both in the key: size is passed to runners outside the config, so
// the hash alone does not pin it. The hash is truncated for legible
// filenames; the full hash inside the record is what Load verifies.
func (j *Journal) pointPath(app, size string, clusterSize, cacheKB int, hash string) string {
	short := strings.TrimPrefix(hash, "sha256:")
	if len(short) > 12 {
		short = short[:12]
	}
	return filepath.Join(j.dir,
		fmt.Sprintf("%s-%s-c%d-%s-%s.json", app, size, clusterSize, obs.CacheLabel(cacheKB), short))
}

func (j *Journal) failurePath(app, size string, clusterSize, cacheKB int, hash string) string {
	p := j.pointPath(app, size, clusterSize, cacheKB, hash)
	return strings.TrimSuffix(p, ".json") + ".failed.json"
}

// Store journals one finished point atomically.
func (j *Journal) Store(rec PointRecord) error {
	if rec.Schema == "" {
		rec.Schema = PointSchemaV1
	}
	path := j.pointPath(rec.App, rec.Size, rec.ClusterSize, rec.CacheKB, rec.ConfigHash)
	// Durable, not merely atomic: the journal is what a crashed worker
	// or suite resumes from, so the record must survive power loss —
	// file data is fsynced before the rename and the directory entry
	// after it. See "Crash consistency" in DESIGN.md §8.
	err := telemetry.AtomicFileDurable(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		return enc.Encode(rec)
	})
	if err != nil {
		return fmt.Errorf("journal: store %s: %w", filepath.Base(path), err)
	}
	// A success supersedes any earlier failure of the same point (e.g. a
	// RetryFailed re-run after a watchdog abort).
	os.Remove(j.failurePath(rec.App, rec.Size, rec.ClusterSize, rec.CacheKB, rec.ConfigHash))
	return nil
}

// Load replays one journalled point. ok is false when the point has not
// been journalled (or the file belongs to a different configuration);
// an unreadable or mismatched record is an error, not a silent re-run,
// so corrupted state directories surface instead of quietly forking the
// experiment.
func (j *Journal) Load(app, size string, clusterSize, cacheKB int, hash string) (*core.Result, bool, error) {
	path := j.pointPath(app, size, clusterSize, cacheKB, hash)
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("journal: %w", err)
	}
	var rec PointRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, false, fmt.Errorf("journal: corrupt record %s: %w", filepath.Base(path), err)
	}
	if rec.Schema != PointSchemaV1 {
		return nil, false, fmt.Errorf("journal: %s: unknown schema %q", filepath.Base(path), rec.Schema)
	}
	if rec.ConfigHash != hash || rec.App != app || rec.Size != size ||
		rec.ClusterSize != clusterSize || rec.CacheKB != cacheKB {
		return nil, false, fmt.Errorf("journal: %s does not match the requested point (recorded %s %s c%d %s %s)",
			filepath.Base(path), rec.App, rec.Size, rec.ClusterSize, obs.CacheLabel(rec.CacheKB), rec.ConfigHash)
	}
	if rec.Result == nil {
		return nil, false, fmt.Errorf("journal: %s has no result", filepath.Base(path))
	}
	return rec.Result, true, nil
}

// StoreFailure journals one failed point atomically.
func (j *Journal) StoreFailure(rec FailureRecord) error {
	if rec.Schema == "" {
		rec.Schema = FailureSchemaV1
	}
	path := j.failurePath(rec.App, rec.Size, rec.ClusterSize, rec.CacheKB, rec.ConfigHash)
	err := telemetry.AtomicFileDurable(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rec)
	})
	if err != nil {
		return fmt.Errorf("journal: store failure %s: %w", filepath.Base(path), err)
	}
	return nil
}

// LoadFailure replays one journalled failure, if any.
func (j *Journal) LoadFailure(app, size string, clusterSize, cacheKB int, hash string) (*FailureRecord, bool, error) {
	path := j.failurePath(app, size, clusterSize, cacheKB, hash)
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("journal: %w", err)
	}
	var rec FailureRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, false, fmt.Errorf("journal: corrupt failure record %s: %w", filepath.Base(path), err)
	}
	if rec.Schema != FailureSchemaV1 {
		return nil, false, fmt.Errorf("journal: %s: unknown schema %q", filepath.Base(path), rec.Schema)
	}
	return &rec, true, nil
}
