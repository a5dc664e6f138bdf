// Package lint implements simlint, the project's custom static-analysis
// pass for determinism and contract invariants. The simulator's headline
// guarantee — ties in virtual time are broken by processor ID, so
// simulations are bit-reproducible — and every reference stream the
// analytical models consume depend on source-level discipline that the
// compiler does not enforce. simlint does, mechanically, using only the
// standard library's go/parser, go/ast, go/token and go/types (no
// x/tools).
//
// Syntactic determinism rules (v1):
//
//	wallclock  — time.Now/Since/Sleep and friends: wall-clock time must
//	             never feed simulated state. Sanctioned uses (progress
//	             reporting, run manifests) carry a directive.
//	rand       — math/rand constructors must be seeded with a
//	             compile-time constant or a processor-ID-derived
//	             expression; the globally seeded top-level functions are
//	             banned outright (they are randomly seeded since Go 1.20).
//	maprange   — a range over a map must not write order-dependent
//	             results: no appends to slices declared outside the loop,
//	             no plain assignments to outer state, no float
//	             accumulation. Integer += accumulation (commutative) and
//	             map writes keyed by the range key are allowed.
//	goroutine  — go statements need a directive everywhere: the engine
//	             runs every simulated processor as an iter.Pull
//	             coroutine resumed one at a time from Run, so no
//	             simulation package starts a goroutine, and only harness
//	             code (servers, workers, signal handling) may.
//	floatclock — floating-point values must not accumulate into Clock or
//	             counter fields: int64(f)/Clock(f) inside a += or a
//	             self-referencing assignment silently injects rounding
//	             drift into virtual time.
//
// Type-aware contract rules (v2), which read go/types information that
// crosses package boundaries:
//
//	hashexclude — every core.Config field outside the config hash must
//	              carry `json:"-"` and be listed in HashExcludedFields;
//	              attachment points (pointer, interface or func fields)
//	              must be either hash-excluded or explicit `,omitempty`
//	              opt-ins, and observer-typed fields must always be
//	              excluded. A new attachment point can therefore never
//	              silently change the hash contract or leak into Result
//	              JSON.
//	readonly    — observer packages (internal/telemetry, internal/profile,
//	              internal/perf, internal/critpath, internal/sanitizer,
//	              internal/obs) must not mutate core simulation state: no
//	              assignments through pointers to state-package types,
//	              and no calls to their mutating
//	              (pointer-receiver, non-accessor) methods. Mutating
//	              methods are computed by a fixed point over method
//	              bodies, so an accessor that merely reads stays callable.
//	syncname    — every NewBarrierN/NewLock/NewFlag call site must pass a
//	              non-empty name, and must not repeat a constant name
//	              within one function: the duplicate-name runtime panic
//	              in core.defineSync becomes a compile-time finding.
//	unusedallow — a //simlint:allow directive that no longer suppresses
//	              any finding is itself reported, so stale exemptions
//	              cannot accumulate (the unused-allow audit; disable it
//	              like any rule, through Options.Disabled).
//
// A finding is silenced by the directive comment
//
//	//simlint:allow <rule> [<rule>...] [— free-text justification]
//
// placed on the offending line, on the line directly above it, or in the
// doc comment of the enclosing function declaration (which silences the
// rule for the whole function). Tokens after the first non-rule word are
// commentary.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Rule names, as used in findings and //simlint:allow directives.
const (
	RuleWallclock   = "wallclock"
	RuleRand        = "rand"
	RuleMapRange    = "maprange"
	RuleGoroutine   = "goroutine"
	RuleFloatClock  = "floatclock"
	RuleHashExclude = "hashexclude"
	RuleReadonly    = "readonly"
	RuleSyncName    = "syncname"
	RuleUnusedAllow = "unusedallow"
)

// RuleInfo describes one rule for reporting surfaces (SARIF, docs).
type RuleInfo struct {
	Name    string
	Summary string
}

// RuleIndex lists every rule simlint implements, in reporting order.
var RuleIndex = []RuleInfo{
	{RuleWallclock, "wall-clock reads (time.Now/Since/...) must not feed simulated state"},
	{RuleRand, "math/rand must be seeded with a constant or a processor-ID-derived value"},
	{RuleMapRange, "map iteration order must not leak into results"},
	{RuleGoroutine, "the simulation starts no goroutines; harness go statements carry a directive"},
	{RuleFloatClock, "floating-point values must not accumulate into virtual-time counters"},
	{RuleHashExclude, "core.Config fields outside the config hash must be json:\"-\" and declared in HashExcludedFields"},
	{RuleReadonly, "observer packages must not mutate core simulation state"},
	{RuleSyncName, "barriers, locks and flags need non-empty, non-duplicate names"},
	{RuleUnusedAllow, "//simlint:allow directives that suppress nothing are stale"},
}

// Rules lists every rule name simlint implements.
var Rules = ruleNames()

func ruleNames() []string {
	out := make([]string, len(RuleIndex))
	for i, r := range RuleIndex {
		out[i] = r.Name
	}
	return out
}

var knownRules = func() map[string]bool {
	m := make(map[string]bool, len(RuleIndex))
	for _, r := range RuleIndex {
		m[r.Name] = true
	}
	return m
}()

// KnownRule reports whether name is an implemented rule.
func KnownRule(name string) bool { return knownRules[name] }

// Options tunes a CheckModule run.
type Options struct {
	// Disabled names rules to skip entirely (used by tests to prove the
	// fixture corpus depends on each rule). Disabling unusedallow skips
	// the unused-allow audit.
	Disabled map[string]bool
}

func (o *Options) disabled(rule string) bool {
	return o != nil && o.Disabled[rule]
}

// Finding is one rule violation.
type Finding struct {
	Rule string
	Pos  token.Position
	Msg  string
}

// String formats a finding the way compilers do: file:line:col: message.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Package is one type-checked package ready for linting. The loader
// produces these from the module tree; tests build them from fixture
// corpora with synthetic import paths.
type Package struct {
	Path  string // import path, e.g. "clustersim/internal/engine"
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info // best-effort: stdlib imports may be stubbed
}

// simulationPackages are the import-path segments under
// clustersim/internal/ whose state is part of the simulation proper.
// Rule docs refer to these; wallclock/rand/maprange/goroutine/floatclock
// apply to every scanned package (the determinism argument extends to
// the harness).
var simulationPackages = []string{
	"engine", "core", "cache", "coherence", "directory", "memory", "apps",
}

// observerPackages are the import-path segments under
// clustersim/internal/ that attach to a machine purely to watch it: the
// readonly rule forbids them from mutating simulation state, which is
// what makes "observed runs are byte-identical to unobserved ones" a
// checkable contract rather than a convention.
var observerPackages = []string{
	"telemetry", "profile", "perf", "critpath", "sanitizer", "obs",
}

func pathInSet(path string, segs []string) bool {
	for _, seg := range segs {
		prefix := "clustersim/internal/" + seg
		if path == prefix || strings.HasPrefix(path, prefix+"/") {
			return true
		}
	}
	return false
}

// IsSimulationPackage reports whether the import path belongs to the
// simulation proper (engine, core, cache, coherence, directory, memory,
// apps and their subpackages).
func IsSimulationPackage(path string) bool {
	return pathInSet(path, simulationPackages)
}

// IsObserverPackage reports whether the import path is one of the
// observer packages bound by the readonly contract.
func IsObserverPackage(path string) bool {
	return pathInSet(path, observerPackages)
}

// isStatePackage reports whether types from the import path count as
// simulation state for the readonly rule: the simulation packages plus
// internal/stats, whose counters the paper's breakdowns are made of.
func isStatePackage(path string) bool {
	return IsSimulationPackage(path) || path == "clustersim/internal/stats" ||
		strings.HasPrefix(path, "clustersim/internal/stats/")
}

// directive is one //simlint:allow comment, tracked for the
// unused-allow audit: each named rule remembers whether it silenced at
// least one finding.
type directive struct {
	pos   token.Position
	rules []string
	used  map[string]bool
}

// fileAllows records which (line, rule) pairs of one file are silenced,
// and by which directive.
type fileAllows struct {
	byLine     map[int]map[string][]*directive
	directives []*directive
}

func (fa *fileAllows) add(line int, d *directive) {
	m := fa.byLine[line]
	if m == nil {
		m = make(map[string][]*directive)
		fa.byLine[line] = m
	}
	for _, r := range d.rules {
		m[r] = append(m[r], d)
	}
}

// allow reports whether a finding of rule at line is silenced, marking
// every matching directive as used.
func (fa *fileAllows) allow(line int, rule string) bool {
	ds := fa.byLine[line][rule]
	for _, d := range ds {
		d.used[rule] = true
	}
	return len(ds) > 0
}

// directiveRules parses "//simlint:allow wallclock rand — reason" into
// its rule list, or nil if the comment is not a directive. Parsing stops
// at the first token that is not a known rule name: everything after is
// commentary.
func directiveRules(text string) []string {
	const prefix = "//simlint:allow"
	if !strings.HasPrefix(text, prefix) {
		return nil
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, prefix))
	if rest == "" {
		return nil
	}
	var rules []string
	for _, tok := range strings.Fields(rest) {
		if !knownRules[tok] {
			break
		}
		rules = append(rules, tok)
	}
	return rules
}

// collectAllows builds the silence table for one file: each directive
// covers its own line and the next; a directive in a function's doc
// comment covers the whole function body.
func collectAllows(fset *token.FileSet, file *ast.File) *fileAllows {
	fa := &fileAllows{byLine: make(map[int]map[string][]*directive)}
	docDirectives := make(map[*ast.Comment]bool)
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		for _, c := range fd.Doc.List {
			rules := directiveRules(c.Text)
			if rules == nil {
				continue
			}
			docDirectives[c] = true
			d := &directive{pos: fset.Position(c.Pos()), rules: rules, used: make(map[string]bool)}
			fa.directives = append(fa.directives, d)
			from := fset.Position(fd.Pos()).Line
			to := fset.Position(fd.End()).Line
			for line := from; line <= to; line++ {
				fa.add(line, d)
			}
		}
	}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if docDirectives[c] {
				continue
			}
			rules := directiveRules(c.Text)
			if rules == nil {
				continue
			}
			d := &directive{pos: fset.Position(c.Pos()), rules: rules, used: make(map[string]bool)}
			fa.directives = append(fa.directives, d)
			line := fset.Position(c.Pos()).Line
			fa.add(line, d)
			fa.add(line+1, d)
		}
	}
	return fa
}

// CheckModule runs every rule over the packages as one unit — the
// cross-package contract rules (readonly's mutating-method fixed point,
// hashexclude's field-type resolution) see the whole set — and returns
// the findings that are not silenced by directives, sorted by position.
// Unless the unusedallow rule is disabled, directives that silenced
// nothing are reported under it.
func CheckModule(pkgs []*Package, opts *Options) []Finding {
	mod := newModule(pkgs)
	allowsByFile := make(map[string]*fileAllows)
	var raw []Finding
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			name := pkg.Fset.Position(file.Pos()).Filename
			allowsByFile[name] = collectAllows(pkg.Fset, file)
			fc := &fileChecker{pkg: pkg, mod: mod, file: file, imports: importNames(file), opts: opts}
			raw = append(raw, fc.check()...)
		}
		raw = append(raw, checkHashExclude(pkg, opts)...)
	}
	var out []Finding
	for _, f := range raw {
		if fa := allowsByFile[f.Pos.Filename]; fa != nil && fa.allow(f.Pos.Line, f.Rule) {
			continue
		}
		out = append(out, f)
	}
	if !opts.disabled(RuleUnusedAllow) {
		out = append(out, auditAllows(allowsByFile)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// auditAllows reports every directive rule that silenced no finding: a
// stale exemption either outlived the code it excused or names the
// wrong rule, and both deserve removal.
func auditAllows(allowsByFile map[string]*fileAllows) []Finding {
	var out []Finding
	for _, fa := range allowsByFile {
		for _, d := range fa.directives {
			for _, r := range d.rules {
				if d.used[r] {
					continue
				}
				out = append(out, Finding{ //simlint:allow maprange — caller sorts all findings
					Rule: RuleUnusedAllow,
					Pos:  d.pos,
					Msg: fmt.Sprintf("//simlint:allow %s suppresses no finding; remove the stale directive "+
						"(or fix its rule name)", r),
				})
			}
		}
	}
	return out
}

// Check runs every rule over one package in isolation. Cross-package
// rules degrade to whatever type information the package carries;
// prefer CheckModule for whole-module runs.
func Check(pkg *Package) []Finding {
	return CheckModule([]*Package{pkg}, &Options{Disabled: map[string]bool{RuleUnusedAllow: true}})
}

// importNames maps the identifiers a file uses for its imports to import
// paths, honouring renames ("crand" -> "crypto/rand"). Dot and blank
// imports are skipped: neither produces a selector the rules match on.
func importNames(file *ast.File) map[string]string {
	out := make(map[string]string)
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			name = path[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == "." || name == "_" {
			continue
		}
		out[name] = path
	}
	return out
}
