package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks the module's packages without x/tools:
// module-internal imports are resolved from the packages the loader has
// already checked (in dependency order); standard-library imports are
// compiled from GOROOT source via go/importer's "source" mode; anything
// unresolvable degrades to a stub package and the resulting type errors
// are swallowed — the rules only need best-effort type information.
type Loader struct {
	// Tests includes _test.go files in the scan (off by default: the
	// corpus of interest is the simulator itself).
	Tests bool

	fset    *token.FileSet
	modRoot string
	modPath string
	std     types.Importer
	checked map[string]*types.Package
}

// Load expands the patterns (plain directories or "dir/..." wildcards,
// relative to dir) and returns the type-checked packages in dependency
// order, ready for Check.
func (l *Loader) Load(dir string, patterns []string) ([]*Package, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	l.fset = token.NewFileSet()
	l.modRoot = root
	l.modPath = modPath
	l.std = importer.ForCompiler(l.fset, "source", nil)
	l.checked = make(map[string]*types.Package)

	dirs, err := expandPatterns(dir, patterns)
	if err != nil {
		return nil, err
	}
	units, byPath, err := l.parseDirs(dirs)
	if err != nil {
		return nil, err
	}
	order, err := topoSort(units, byPath)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, u := range order {
		out = append(out, l.typeCheck(u))
	}
	return out, nil
}

// ModRoot returns the module root directory of the last Load, the base
// that findings' absolute file names are made relative to in SARIF
// output.
func (l *Loader) ModRoot() string { return l.modRoot }

// LoadDir parses one directory as a single package under the given
// import path — the fixture-corpus entry point used by the lint tests,
// where the path is synthetic (e.g. an engine path for goroutine-rule
// fixtures). Successive LoadDir calls on one Loader see each other's
// packages: a fixture loaded under a state-package path is importable
// by a later observer fixture, which is how the cross-package contract
// rules are tested without loading the real module.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if l.fset == nil {
		l.fset = token.NewFileSet()
		l.std = importer.ForCompiler(l.fset, "source", nil)
		l.checked = make(map[string]*types.Package)
		l.modPath = importPath
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	u := &unit{path: importPath, name: "", primary: true}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		file, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		u.files = append(u.files, file)
	}
	if len(u.files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	return l.typeCheck(u), nil
}

// unit is one to-be-checked package: the files of one package clause in
// one directory.
type unit struct {
	path    string // import path (shared by test variants in the same dir)
	name    string // package clause
	primary bool   // the package other packages import under this path
	files   []*ast.File
	imports []string // module-internal imports, sorted
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: no module line in %s/go.mod", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		d = parent
	}
}

// expandPatterns resolves "p/..." wildcards and plain directories into a
// sorted list of directories containing Go files.
func expandPatterns(base string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "" {
				pat = "."
			}
		}
		start, err := filepath.Abs(filepath.Join(base, pat))
		if err != nil {
			return nil, err
		}
		info, err := os.Stat(start)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("lint: pattern %q is not a directory", pat)
		}
		if !recursive {
			add(start)
			continue
		}
		err = filepath.WalkDir(start, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != start && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// parseDirs parses every selected directory into units and indexes the
// primary unit of each import path.
func (l *Loader) parseDirs(dirs []string) ([]*unit, map[string]*unit, error) {
	var units []*unit
	byPath := make(map[string]*unit)
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.modRoot, dir)
		if err != nil {
			return nil, nil, err
		}
		path := l.modPath
		if rel != "." {
			path = l.modPath + "/" + filepath.ToSlash(rel)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, nil, err
		}
		groups := make(map[string]*unit)
		var names []string
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
				continue
			}
			if !l.Tests && strings.HasSuffix(name, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil,
				parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, fmt.Errorf("lint: %w", err)
			}
			pkgName := file.Name.Name
			u := groups[pkgName]
			if u == nil {
				u = &unit{path: path, name: pkgName}
				groups[pkgName] = u
				names = append(names, pkgName)
			}
			u.files = append(u.files, file)
		}
		sort.Strings(names)
		primary := primaryName(names)
		for _, n := range names {
			u := groups[n]
			u.primary = n == primary
			u.imports = l.internalImports(u.files)
			units = append(units, u)
			if u.primary {
				byPath[u.path] = u
			}
		}
	}
	return units, byPath, nil
}

// primaryName picks which package clause in a directory is the one other
// packages import: the non-test clause, preferring the only candidate.
func primaryName(names []string) string {
	for _, n := range names {
		if !strings.HasSuffix(n, "_test") {
			return n
		}
	}
	if len(names) > 0 {
		return names[0]
	}
	return ""
}

// internalImports collects the module-internal import paths of a unit,
// sorted and deduplicated.
func (l *Loader) internalImports(files []*ast.File) []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range files {
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p != l.modPath && !strings.HasPrefix(p, l.modPath+"/") {
				continue
			}
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sort.Strings(out)
	return out
}

// topoSort orders units so every module-internal dependency is checked
// before its importers; test variants follow their primary unit.
func topoSort(units []*unit, byPath map[string]*unit) ([]*unit, error) {
	const (
		unvisited = iota
		visiting
		done
	)
	state := make(map[*unit]int)
	var order []*unit
	var visit func(u *unit, chain []string) error
	visit = func(u *unit, chain []string) error {
		switch state[u] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %s (chain %v)", u.path, chain)
		}
		state[u] = visiting
		for _, dep := range u.imports {
			d, ok := byPath[dep]
			if !ok || d == u {
				continue // outside the scanned set, or a test variant's own package
			}
			if err := visit(d, append(chain, u.path)); err != nil {
				return err
			}
		}
		state[u] = done
		order = append(order, u)
		return nil
	}
	for _, u := range units {
		if !u.primary {
			continue
		}
		if err := visit(u, nil); err != nil {
			return nil, err
		}
	}
	for _, u := range units {
		if state[u] != done { // test variants and anything unreachable
			state[u] = done
			order = append(order, u)
		}
	}
	return order, nil
}

// typeCheck runs go/types over one unit with the lenient importer. Type
// errors are swallowed: stubbed imports make some expressions invalid,
// and the rules cope with partial information.
func (l *Loader) typeCheck(u *unit) *Package {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer:         l,
		Error:            func(error) {}, // best-effort checking
		FakeImportC:      true,
		IgnoreFuncBodies: false,
	}
	pkg, _ := conf.Check(u.path, l.fset, u.files, info)
	if u.primary && pkg != nil {
		l.checked[u.path] = pkg
	}
	return &Package{Path: u.path, Fset: l.fset, Files: u.files, Info: info}
}

// Import resolves one import for go/types: module-internal packages come
// from the already-checked set, the standard library is compiled from
// source, and anything else becomes an empty stub.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.checked[path]; ok {
		return p, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		// Inside the module but not scanned (or not yet checked):
		// stub it so the importer never recurses unpredictably.
		return stubPackage(path), nil
	}
	if p, err := l.std.Import(path); err == nil {
		return p, nil
	}
	return stubPackage(path), nil
}

func stubPackage(path string) *types.Package {
	name := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		name = path[i+1:]
	}
	p := types.NewPackage(path, name)
	p.MarkComplete()
	return p
}
