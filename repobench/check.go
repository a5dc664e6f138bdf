package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"sort"
	"syscall"

	"clustersim/internal/core"
)

// checker compares every output the run produces against the digests
// recorded in expected.json, and counts what it compared and what
// differed. In record mode it stores the digests instead.
type checker struct {
	path      string
	expected  map[string]string
	record    bool
	attempted int
	failed    int
}

func loadChecker(path string, record bool) (*checker, error) {
	c := &checker{path: path, expected: map[string]string{}, record: record}
	if _, err := os.Stat(path); os.IsNotExist(err) && record {
		return c, nil
	}
	return c, c.reload()
}

// reload reads the expected digests again; timed runs repeat it as
// part of set-up. Record mode keeps what it has collected.
func (c *checker) reload() error {
	if c.record && len(c.expected) > 0 {
		return nil
	}
	b, err := os.ReadFile(c.path)
	if os.IsNotExist(err) && c.record {
		return nil
	}
	if err != nil {
		return fmt.Errorf("expected digests: %w", err)
	}
	expected := map[string]string{}
	if err := json.Unmarshal(b, &expected); err != nil {
		return fmt.Errorf("expected digests %s: %w", c.path, err)
	}
	c.expected = expected
	return nil
}

// invariant counts one checked property of the run.
func (c *checker) invariant(what string, holds bool) {
	c.attempted++
	if !holds {
		c.failed++
		fmt.Fprintf(os.Stderr, "repobench: check failed: %s\n", what)
	}
}

// ok records one checked output: digest is what this run produced for
// key.
func (c *checker) ok(key, digest string) {
	c.attempted++
	if c.record {
		c.expected[key] = digest
		return
	}
	if want, found := c.expected[key]; !found || want != digest {
		c.failed++
		fmt.Fprintf(os.Stderr, "repobench: output check failed for %s: digest %s, expected %q\n", key, digest, want)
	}
}

// fail counts an output that could not be produced at all (an error,
// a panic, a verification failure, or a broken invariant).
func (c *checker) fail(what string, err error) {
	c.attempted++
	c.failed++
	fmt.Fprintf(os.Stderr, "repobench: %s: %v\n", what, err)
}

func (c *checker) save() error {
	b, err := json.MarshalIndent(c.expected, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(c.path, append(b, '\n'), 0o644)
}

// pointKey names one simulation point in expected.json.
func pointKey(app, size string, procs, cluster, cacheKB int) string {
	return fmt.Sprintf("point:%s/%s/p%d/c%d/%s", app, size, procs, cluster, cacheName(cacheKB))
}

func cacheName(kb int) string {
	if kb == 0 {
		return "inf"
	}
	return fmt.Sprintf("%dk", kb)
}

// resultDigest hashes the simulated statistics of one point: the
// execution time, every processor's time breakdown and reference
// counters, and every cluster's protocol counters. The fields are
// listed explicitly rather than hashing the Result's JSON, so a change
// to the Result's shape that keeps these numbers passes the check.
func resultDigest(r *core.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "exec %d\n", r.ExecTime)
	for i, p := range r.Procs {
		fmt.Fprintf(h, "proc %d time %d %d %d %d\n", i, p.CPU, p.LoadStall, p.MergeStall, p.SyncWait)
		fmt.Fprintf(h, "proc %d refs %d %d %d %d %d %d %d %d %d\n", i,
			p.Reads, p.Writes, p.ReadHits, p.WriteHits, p.ReadMisses, p.WriteMisses,
			p.Upgrades, p.Merges, p.WriteMerges)
		fmt.Fprintf(h, "proc %d service %d %d %d %d %d\n", i,
			p.LocalClean, p.LocalDirty, p.RemoteClean, p.RemoteDirty, p.IntraCluster)
	}
	for i, c := range r.Clusters {
		fmt.Fprintf(h, "cluster %d %d %d %d %d %d %d %d\n", i,
			c.InvalidationsSent, c.InvalidationsReceived, c.ReplacementHints, c.Writebacks,
			c.Nacks, c.AckDelays, c.FaultCycles)
	}
	return sum(h)
}

func textDigest(b []byte) string {
	h := sha256.New()
	h.Write(b)
	return sum(h)
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:20] }

// refs is a result's simulated reference count: reads plus writes.
func refs(r *core.Result) uint64 {
	a := r.Aggregate()
	return a.Reads + a.Writes
}

// median returns the middle value (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
