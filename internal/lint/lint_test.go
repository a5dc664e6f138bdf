package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// dirSpec binds one testdata corpus directory to the synthetic import
// path it is checked under.
type dirSpec struct {
	dir  string
	path string
}

// fixtureCases lists the corpus: each case's directories are loaded in
// order with one Loader (so later fixtures can import earlier ones —
// how the cross-package contract rules are exercised) and checked
// together with CheckModule. goroutine_engine checks the goroutine
// fixture's shape under the engine's own path, which is not exempt.
var fixtureCases = []struct {
	name string
	dirs []dirSpec
}{
	{"wallclock", []dirSpec{{"wallclock", "clustersim/internal/core"}}},
	{"randseed", []dirSpec{{"randseed", "clustersim/internal/apps/randfix"}}},
	{"maprange", []dirSpec{{"maprange", "clustersim/internal/coherence"}}},
	{"goroutine", []dirSpec{{"goroutine", "clustersim/internal/coherence"}}},
	{"goroutine_engine", []dirSpec{{"goroutine_engine", "clustersim/internal/engine"}}},
	{"floatclock", []dirSpec{{"floatclock", "clustersim/internal/core"}}},
	{"syncname", []dirSpec{{"syncname", "clustersim/internal/apps/syncfix"}}},
	{"hashexclude", []dirSpec{
		{"hashexclude_obs", "clustersim/internal/telemetry"},
		{"hashexclude", "clustersim/internal/core"},
	}},
	{"hashexclude_good", []dirSpec{
		{"hashexclude_obs", "clustersim/internal/telemetry"},
		{"hashexclude_good", "clustersim/internal/core"},
	}},
	{"hashexclude_noset", []dirSpec{{"hashexclude_noset", "clustersim/internal/core"}}},
	{"readonly", []dirSpec{
		{"readonly_state", "clustersim/internal/stats"},
		{"readonly", "clustersim/internal/perf"},
	}},
	{"unusedallow", []dirSpec{{"unusedallow", "clustersim/internal/harness"}}},
}

var wantMarker = regexp.MustCompile(`// want:([a-z]+)`)

// expectedFindings scans fixture directories for "// want:<rule>"
// markers and returns the expected finding multiset keyed
// "file:line:rule".
func expectedFindings(t *testing.T, dirs []dirSpec) map[string]int {
	t.Helper()
	want := make(map[string]int)
	for _, ds := range dirs {
		dir := filepath.Join("testdata", "src", ds.dir)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				for _, m := range wantMarker.FindAllStringSubmatch(line, -1) {
					want[fmt.Sprintf("%s:%d:%s", e.Name(), i+1, m[1])]++
				}
			}
		}
	}
	return want
}

// loadFixture loads a case's directories, in order, with one Loader.
func loadFixture(t *testing.T, dirs []dirSpec) []*Package {
	t.Helper()
	loader := &Loader{}
	var pkgs []*Package
	for _, ds := range dirs {
		pkg, err := loader.LoadDir(filepath.Join("testdata", "src", ds.dir), ds.path)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// TestFixtureCorpus proves each rule fires on its known-bad fixtures at
// exactly the marked lines and stays silent on the known-good ones
// (which also exercise every directive placement). The unused-allow
// audit runs throughout, so every directive in the corpus must either
// suppress a finding or carry a want:unusedallow marker.
func TestFixtureCorpus(t *testing.T) {
	fired := make(map[string]bool)
	for _, tc := range fixtureCases {
		t.Run(tc.name, func(t *testing.T) {
			pkgs := loadFixture(t, tc.dirs)
			got := make(map[string]int)
			for _, f := range CheckModule(pkgs, nil) {
				got[fmt.Sprintf("%s:%d:%s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Rule)]++
				fired[f.Rule] = true
			}
			want := expectedFindings(t, tc.dirs)
			for k, n := range want {
				if got[k] != n {
					t.Errorf("expected %d finding(s) at %s, got %d", n, k, got[k])
				}
			}
			for k, n := range got {
				if want[k] != n {
					t.Errorf("unexpected finding(s) at %s (%d)", k, n)
				}
			}
		})
	}
	for _, r := range Rules {
		if !fired[r] {
			t.Errorf("rule %s never fired across the corpus", r)
		}
	}
}

// TestRuleDisabledSilences proves the corpus markers depend on their
// rules: with a rule disabled, its fixture case reports none of the
// findings the want-markers demand.
func TestRuleDisabledSilences(t *testing.T) {
	cases := map[string]string{ // rule -> fixture case name
		RuleSyncName:    "syncname",
		RuleHashExclude: "hashexclude",
		RuleReadonly:    "readonly",
		RuleUnusedAllow: "unusedallow",
	}
	byName := make(map[string][]dirSpec)
	for _, tc := range fixtureCases {
		byName[tc.name] = tc.dirs
	}
	for rule, caseName := range cases {
		t.Run(rule, func(t *testing.T) {
			dirs := byName[caseName]
			markers := 0
			for k, n := range expectedFindings(t, dirs) {
				if strings.HasSuffix(k, ":"+rule) {
					markers += n
				}
			}
			if markers == 0 {
				t.Fatalf("fixture %s carries no want:%s markers", caseName, rule)
			}
			pkgs := loadFixture(t, dirs)
			opts := &Options{Disabled: map[string]bool{rule: true, RuleUnusedAllow: true}}
			for _, f := range CheckModule(pkgs, opts) {
				if f.Rule == rule {
					t.Errorf("disabled rule still fired: %s", f)
				}
			}
		})
	}
}

// TestTreeClean runs the full linter — contract rules and unused-allow
// audit included — over the module itself, including test files: the
// tree must stay clean with an empty baseline (this is the in-test twin
// of `make lint`).
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module against GOROOT source")
	}
	pkgs, err := (&Loader{Tests: true}).Load("../..", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range CheckModule(pkgs, nil) {
		t.Errorf("%s", f)
	}
}

// TestSeededObserverMutation is the end-to-end acceptance check for the
// readonly contract: planting a stats write in an observer package —
// against the real stats package source — must produce a readonly
// finding. Every package in the observer set is seeded in turn, so a
// package silently dropping out of the set fails the test.
func TestSeededObserverMutation(t *testing.T) {
	for _, pkg := range []string{"perf", "obs", "sanitizer"} {
		t.Run(pkg, func(t *testing.T) {
			root := t.TempDir()
			if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module clustersim\n\ngo 1.21\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, sub := range []string{"internal/stats", "internal/" + pkg} {
				if err := os.MkdirAll(filepath.Join(root, sub), 0o755); err != nil {
					t.Fatal(err)
				}
			}
			realStats, err := os.ReadFile(filepath.Join("..", "stats", "stats.go"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(root, "internal/stats/stats.go"), realStats, 0o644); err != nil {
				t.Fatal(err)
			}
			seed := `package ` + pkg + `

import "clustersim/internal/stats"

// Skew tampers with a processor's breakdown from observer code.
func Skew(b *stats.Breakdown) {
	b.CPU += 1
}
`
			if err := os.WriteFile(filepath.Join(root, "internal/"+pkg+"/seed.go"), []byte(seed), 0o644); err != nil {
				t.Fatal(err)
			}
			pkgs, err := (&Loader{}).Load(root, []string{"./..."})
			if err != nil {
				t.Fatal(err)
			}
			var hits []Finding
			for _, f := range CheckModule(pkgs, nil) {
				if f.Rule == RuleReadonly {
					hits = append(hits, f)
				}
			}
			if len(hits) != 1 || !strings.Contains(hits[0].Msg, "stats.Breakdown") {
				t.Fatalf("seeded stats write in internal/%s: want one readonly finding on stats.Breakdown, got %v", pkg, hits)
			}
		})
	}
}

func TestDirectiveRules(t *testing.T) {
	cases := []struct {
		text string
		want []string
	}{
		{"//simlint:allow wallclock", []string{"wallclock"}},
		{"//simlint:allow wallclock rand", []string{"wallclock", "rand"}},
		{"//simlint:allow readonly — observer-owned scratch copy", []string{"readonly"}},
		{"//simlint:allow syncname hashexclude", []string{"syncname", "hashexclude"}},
		{"//simlint:allow", nil},            // no rules named
		{"//simlint:allow not-a-rule", nil}, // commentary only
		{"// simlint:allow wallclock", nil}, // space breaks the directive
		{"// just a comment", nil},
	}
	for _, tc := range cases {
		if got := directiveRules(tc.text); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("directiveRules(%q) = %v, want %v", tc.text, got, tc.want)
		}
	}
}

func TestIsSimulationPackage(t *testing.T) {
	cases := map[string]bool{
		"clustersim/internal/engine":     true,
		"clustersim/internal/coherence":  true,
		"clustersim/internal/apps/radix": true,
		"clustersim/internal/telemetry":  false,
		"clustersim/cmd/clustersim":      false,
		"clustersim/internal/enginex":    false,
	}
	for path, want := range cases {
		if got := IsSimulationPackage(path); got != want {
			t.Errorf("IsSimulationPackage(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestIsObserverPackage(t *testing.T) {
	cases := map[string]bool{
		"clustersim/internal/telemetry":     true,
		"clustersim/internal/profile":       true,
		"clustersim/internal/perf":          true,
		"clustersim/internal/critpath":      true,
		"clustersim/internal/critpath/sub":  true,
		"clustersim/internal/sanitizer":     true,
		"clustersim/internal/obs":           true,
		"clustersim/internal/core":          false,
		"clustersim/internal/telemetryfake": false,
		"clustersim/internal/observatory":   false,
	}
	for path, want := range cases {
		if got := IsObserverPackage(path); got != want {
			t.Errorf("IsObserverPackage(%q) = %v, want %v", path, got, want)
		}
	}
}
