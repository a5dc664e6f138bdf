package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module with one dirty simulation
// package (a time.Now call in internal/core) and one clean package.
func writeModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module clustersim\n\ngo 1.21\n",
		"internal/core/clock.go": `package core

import "time"

// Stamp leaks wall-clock time into the simulation.
func Stamp() int64 { return time.Now().UnixNano() }
`,
		"internal/util/util.go": `package util

// Add is determinism-safe.
func Add(a, b int) int { return a + b }
`,
	}
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func run(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = realMain(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestExitCodes(t *testing.T) {
	root := writeModule(t)

	code, out, _ := run(t, "-C", root)
	if code != exitFindings {
		t.Fatalf("dirty module: exit %d, want %d", code, exitFindings)
	}
	if !strings.Contains(out, "wallclock") || !strings.Contains(out, "clock.go") {
		t.Errorf("finding not printed:\n%s", out)
	}

	code, out, _ = run(t, "-C", root, "./internal/util")
	if code != exitOK {
		t.Fatalf("clean package: exit %d, want %d\n%s", code, exitOK, out)
	}

	code, _, stderr := run(t, "-C", root, "-bogus-flag")
	if code != exitUsage {
		t.Fatalf("bad flag: exit %d, want %d (%s)", code, exitUsage, stderr)
	}
	code, _, stderr = run(t, "-C", filepath.Join(root, "no/such/dir"))
	if code != exitUsage {
		t.Fatalf("bad dir: exit %d, want %d (%s)", code, exitUsage, stderr)
	}
	code, _, stderr = run(t, "-C", root, "-disable", "nosuchrule")
	if code != exitUsage || !strings.Contains(stderr, "unknown rule") {
		t.Fatalf("unknown -disable rule: exit %d (%s)", code, stderr)
	}

	code, _, _ = run(t, "-C", root, "-disable", "wallclock")
	if code != exitOK {
		t.Fatalf("-disable wallclock: exit %d, want %d", code, exitOK)
	}
}

func TestQuietAndDirectoryArgs(t *testing.T) {
	root := writeModule(t)

	code, out, stderr := run(t, "-C", root, "-q", "./internal/core")
	if code != exitFindings {
		t.Fatalf("exit %d, want %d", code, exitFindings)
	}
	if strings.Contains(out, "wallclock") {
		t.Errorf("-q must suppress finding lines:\n%s", out)
	}
	if !strings.Contains(stderr, "1 finding(s)") {
		t.Errorf("count summary missing: %s", stderr)
	}

	// A bare directory argument (no /... wildcard) works too.
	code, _, _ = run(t, "-C", root, "internal/core")
	if code != exitFindings {
		t.Fatalf("bare dir arg: exit %d, want %d", code, exitFindings)
	}
}

func TestSARIFFlag(t *testing.T) {
	root := writeModule(t)
	sarifFile := filepath.Join(t.TempDir(), "out.sarif")

	code, _, _ := run(t, "-C", root, "-sarif", sarifFile)
	if code != exitFindings {
		t.Fatalf("exit %d, want %d", code, exitFindings)
	}
	data, err := os.ReadFile(sarifFile)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("not a single-run SARIF 2.1.0 log: version=%q runs=%d", log.Version, len(log.Runs))
	}
	res := log.Runs[0].Results
	if len(res) != 1 || res[0].RuleID != "wallclock" {
		t.Fatalf("results = %+v", res)
	}
	if uri := res[0].Locations[0].PhysicalLocation.ArtifactLocation.URI; uri != "internal/core/clock.go" {
		t.Errorf("artifact URI = %q, want module-relative path", uri)
	}

	// "-" streams the log to stdout instead of finding lines.
	code, out, _ := run(t, "-C", root, "-sarif", "-")
	if code != exitFindings {
		t.Fatalf("exit %d, want %d", code, exitFindings)
	}
	if !strings.Contains(out, `"$schema"`) || strings.Contains(out, "clock.go:6") {
		t.Errorf("-sarif - must print only the SARIF log:\n%s", out)
	}
}
