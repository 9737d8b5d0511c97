// Package lint holds whole-repository static checks that run as tests.
//
// TestUnusedAPI is a dead-API ratchet. It type-checks every non-test file
// of the root module and of bench/ together, marks what is reachable from
// the programs' entry points, and fails on any package-level func, method,
// type or const outside bench/ that nothing reaches unless
// testdata/unused.txt lists it with a reason. A listed symbol that is
// reached, or that no longer exists, fails it too, so the list only
// shrinks.
package lint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchOnly is the unused.txt reason for a symbol that only bench/ may
// reference: bench/ changes only with the benchmark, so an API it still
// calls stays until the benchmark moves off it.
const benchOnly = "bench-only"

// companions are the paper-reproduction packages no engine package may
// import: only examples/* and cmd/hypre drive them.
var companions = []string{"core", "cpnet", "ctxpref", "prefsql"}

// module is one Go module to load: its directory and its import path.
type module struct{ dir, path string }

// pkg is one type-checked package: its non-test files only.
type pkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// program is every package of the loaded modules. Packages outside them
// (the standard library) come from compiled export data.
type program struct {
	fset *token.FileSet
	dirs map[string]string // import path → directory
	pkgs map[string]*pkg
	std  types.Importer
}

// load parses and type-checks every non-test package under the modules.
// A directory holding its own go.mod is a different module and is skipped,
// as are testdata and hidden directories.
func load(t *testing.T, mods ...module) *program {
	t.Helper()
	prog := &program{
		fset: token.NewFileSet(),
		dirs: map[string]string{},
		pkgs: map[string]*pkg{},
		std:  importer.Default(),
	}
	for _, m := range mods {
		err := filepath.WalkDir(m.dir, func(dir string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if dir != m.dir {
				if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			rel, err := filepath.Rel(m.dir, dir)
			if err != nil {
				return err
			}
			prog.dirs[pathJoin(m.path, filepath.ToSlash(rel))] = dir
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for path := range prog.dirs {
		if _, err := prog.load(path); err != nil {
			t.Fatal(err)
		}
	}
	return prog
}

func pathJoin(mod, rel string) string {
	if rel == "." {
		return mod
	}
	return mod + "/" + rel
}

// Import type-checks a package of the loaded modules on first use and
// takes any other package from the standard library's export data.
func (prog *program) Import(path string) (*types.Package, error) {
	if _, ok := prog.dirs[path]; !ok {
		return prog.std.Import(path)
	}
	p, err := prog.load(path)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("%s: no non-test Go files", path)
	}
	return p.types, nil
}

// load returns the package at path, nil if its directory has no non-test
// Go files.
func (prog *program) load(path string) (*pkg, error) {
	if p, ok := prog.pkgs[path]; ok {
		return p, nil
	}
	dir := prog.dirs[path]
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		f, err := parser.ParseFile(prog.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		prog.pkgs[path] = nil
		return nil, nil
	}
	p := &pkg{path: path, files: files, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	p.types, err = (&types.Config{Importer: prog}).Check(path, prog.fset, files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	prog.pkgs[path] = p
	return p, nil
}

// symbol is one package-level declaration.
type symbol struct {
	obj   types.Object
	key   string // import path + "." + name; a method adds its receiver type
	pos   token.Position
	lines int
	refs  []types.Object // the package-level objects its declaration names
	root  bool
	live  bool
}

// analysis is the program's symbols with liveness marked, and the files
// that reference each object.
type analysis struct {
	syms   map[types.Object]*symbol
	usedIn map[types.Object]map[string]bool
}

// analyze marks every symbol reachable from the roots: main, init, every
// package-level var and every blank declaration. A method is also live
// when its receiver type is live and its method set implements an
// interface that names it, which is how fmt, sort and container/heap call
// methods nothing names. A use of a generic function or method counts for
// its origin.
func analyze(prog *program) *analysis {
	a := &analysis{syms: map[types.Object]*symbol{}, usedIn: map[types.Object]map[string]bool{}}
	var roots []*symbol
	add := func(p *pkg, obj types.Object, node ast.Node, doc *ast.CommentGroup, root bool) {
		if obj == nil { // a blank func or an init: kept, never named
			obj, root = types.NewLabel(node.Pos(), p.types, "_"), true
		}
		s := &symbol{obj: obj, root: root || obj.Name() == "_"}
		start := node.Pos()
		if doc != nil {
			start = doc.Pos()
		}
		s.pos = prog.fset.Position(node.Pos())
		s.lines = prog.fset.Position(node.End()).Line - prog.fset.Position(start).Line + 1
		s.key = p.path + "." + obj.Name()
		if recv := recvNamed(obj); recv != nil {
			s.key = p.path + "." + recv.Obj().Name() + "." + obj.Name()
		}
		s.refs = refsIn(prog.fset, p.info, node, a.usedIn)
		a.syms[obj] = s
		if s.root {
			roots = append(roots, s)
		}
	}
	for _, p := range prog.pkgs {
		if p == nil {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					name := d.Name.Name
					root := d.Recv == nil && (name == "init" || name == "main" && p.types.Name() == "main")
					add(p, p.info.Defs[d.Name], d, d.Doc, root)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						doc := d.Doc
						if len(d.Specs) > 1 {
							doc = nil
						}
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Doc != nil {
								doc = s.Doc
							}
							add(p, p.info.Defs[s.Name], s, doc, false)
						case *ast.ValueSpec:
							if s.Doc != nil {
								doc = s.Doc
							}
							for _, n := range s.Names {
								add(p, p.info.Defs[n], s, doc, d.Tok == token.VAR)
							}
						}
					}
				}
			}
		}
	}

	ifaces := interfaces(prog)
	var work []*symbol
	mark := func(s *symbol) {
		if s != nil && !s.live {
			s.live = true
			work = append(work, s)
		}
	}
	for _, s := range roots {
		mark(s)
	}
	for {
		for len(work) > 0 {
			s := work[len(work)-1]
			work = work[:len(work)-1]
			for _, r := range s.refs {
				mark(a.syms[r])
			}
		}
		for _, s := range a.syms {
			if s.live {
				continue
			}
			recv := recvNamed(s.obj)
			if recv == nil || recv.TypeParams().Len() > 0 || !a.syms[recv.Obj()].live {
				continue
			}
			ptr := types.NewPointer(recv)
			for _, it := range ifaces[s.obj.Name()] {
				if types.Implements(ptr, it) {
					mark(s)
					break
				}
			}
		}
		if len(work) == 0 {
			return a
		}
	}
}

// recvNamed is the receiver's named type when obj is a method, else nil.
func recvNamed(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// refsIn lists the package-level objects node names, each through its
// generic origin, and records the file of every use in usedIn.
func refsIn(fset *token.FileSet, info *types.Info, node ast.Node, usedIn map[types.Object]map[string]bool) []types.Object {
	var refs []types.Object
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		case nil:
			return true
		}
		refs = append(refs, obj)
		if usedIn[obj] == nil {
			usedIn[obj] = map[string]bool{}
		}
		usedIn[obj][fset.Position(id.Pos()).Filename] = true
		return true
	})
	return refs
}

// interfaces indexes by method name every non-generic interface the
// program can see: those its packages declare or spell, those of every
// package they import, and error.
func interfaces(prog *program) map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	addType := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] || !it.IsMethodSet() {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			out[name] = append(out[name], it)
		}
	}
	addScope := func(p *types.Package) {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			addType(tn.Type())
		}
	}
	addType(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		addScope(p)
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range prog.pkgs {
		if p == nil {
			continue
		}
		walk(p.types)
		for _, tv := range p.info.Types {
			if tv.IsType() {
				addType(tv.Type)
			}
		}
	}
	return out
}

// dead lists the keys of the symbols nothing reaches, other than vars and
// those under skip (a directory prefix), sorted.
func (a *analysis) dead(skip string) map[string]*symbol {
	out := map[string]*symbol{}
	for _, s := range a.syms {
		if s.live {
			continue
		}
		if _, ok := s.obj.(*types.Var); ok {
			continue
		}
		if skip != "" && strings.HasPrefix(s.pos.Filename, skip) {
			continue
		}
		out[s.key] = s
	}
	return out
}

// entry is one line of unused.txt: a symbol key and why it stays.
type entry struct {
	key, reason string
	line        int
}

func readList(t *testing.T, path string) []entry {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []entry
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		reason = strings.TrimSpace(reason)
		if reason == "" {
			t.Errorf("%s:%d: %s has no reason", path, n, key)
		}
		out = append(out, entry{key: key, reason: reason, line: n})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestUnusedAPI(t *testing.T) {
	root := repoRoot(t)
	bench := filepath.Join(root, "bench")
	prog := load(t, module{root, "hypre"}, module{bench, "hypre/bench"})
	a := analyze(prog)
	dead := a.dead(bench + string(filepath.Separator))
	byKey := map[string]*symbol{}
	for _, s := range a.syms {
		byKey[s.key] = s
	}

	listPath := filepath.Join("testdata", "unused.txt")
	list := readList(t, listPath)
	listed := map[string]bool{}
	for _, e := range list {
		if listed[e.key] {
			t.Errorf("%s:%d: %s listed twice", listPath, e.line, e.key)
		}
		listed[e.key] = true
		s := byKey[e.key]
		switch {
		case s == nil:
			t.Errorf("%s:%d: %s no longer exists; drop the line", listPath, e.line, e.key)
		case strings.HasPrefix(e.reason, benchOnly):
			checkBenchOnly(t, a, s, bench, listPath, e.line)
		case s.live:
			t.Errorf("%s:%d: %s is reachable now; drop the line", listPath, e.line, e.key)
		}
	}

	var keys []string
	for k := range dead {
		if !listed[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := dead[k]
		t.Errorf("%s:%d: %s (%d lines) is reached by nothing outside tests: delete it, or list it in %s with a reason",
			s.pos.Filename, s.pos.Line, k, s.lines, listPath)
	}
	checkBenchOnlyTests(t, root, bench, byKey, list)
}

// checkBenchOnly fails unless s is referenced, and only from bench/.
func checkBenchOnly(t *testing.T, a *analysis, s *symbol, bench, listPath string, line int) {
	t.Helper()
	files := a.usedIn[s.obj]
	if len(files) == 0 {
		t.Errorf("%s:%d: %s is %s but nothing references it; delete it", listPath, line, s.key, benchOnly)
	}
	for f := range files {
		if !strings.HasPrefix(f, bench+string(filepath.Separator)) {
			t.Errorf("%s:%d: %s is %s but %s references it", listPath, line, s.key, benchOnly, filepath.Dir(f))
		}
	}
}

// checkBenchOnlyTests fails when a test file outside bench/ names a
// bench-only symbol: the type-checked program holds no test files.
func checkBenchOnlyTests(t *testing.T, root, bench string, byKey map[string]*symbol, list []entry) {
	t.Helper()
	names := map[string]string{}
	for _, e := range list {
		if s := byKey[e.key]; s != nil && strings.HasPrefix(e.reason, benchOnly) {
			names[s.obj.Name()] = e.key
		}
	}
	if len(names) == 0 {
		return
	}
	fset := token.NewFileSet()
	walkGo(t, root, bench, func(path string) {
		if !strings.HasSuffix(path, "_test.go") {
			return
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if key, ok := names[sel.Sel.Name]; ok {
					t.Errorf("%s: names %s, which is %s", fset.Position(sel.Pos()), key, benchOnly)
				}
			}
			return true
		})
	})
}

// walkGo calls fn for every .go file under root, skipping the directory
// skip, testdata and hidden directories.
func walkGo(t *testing.T, root, skip string, fn func(path string)) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == skip || d.Name() == "testdata" || path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			fn(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCompanionImports keeps the paper-reproduction companions out of the
// engine: outside the companions themselves, only examples/* and
// cmd/hypre may import them, test files included.
func TestCompanionImports(t *testing.T) {
	root := repoRoot(t)
	forbidden := map[string]bool{}
	for _, c := range companions {
		forbidden["hypre/internal/"+c] = true
	}
	allowed := func(rel string) bool {
		if strings.HasPrefix(rel, "examples/") || rel == "cmd/hypre" {
			return true
		}
		for _, c := range companions {
			if rel == "internal/"+c {
				return true
			}
		}
		return false
	}
	fset := token.NewFileSet()
	walkGo(t, root, "", func(path string) {
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			t.Fatal(err)
		}
		if allowed(filepath.ToSlash(rel)) {
			return
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if p := strings.Trim(imp.Path.Value, `"`); forbidden[p] {
				t.Errorf("%s imports %s: engine packages must not depend on the paper-reproduction companions", fset.Position(imp.Pos()), p)
			}
		}
	})
}

// TestUnusedFixture runs the checker on testdata/fixture, whose comments
// say which symbols are dead and why.
func TestUnusedFixture(t *testing.T) {
	prog := load(t, module{filepath.Join("testdata", "fixture"), "fixture"})
	a := analyze(prog)
	var got []string
	for k := range a.dead("") {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{
		"fixture.Counter.Reset",             // exported method nothing calls
		"fixture.Stack.Pop",                 // generic method no instantiation calls
		"fixture.chainHead",                 // two-link dead chain: head...
		"fixture.chainTail",                 // ...and the tail only the head calls
		"fixture.ghost",                     // unused type
		"fixture.unusedHelper",              // unexported func
		"fixture/sub.Bump.Unused",           // method of a live type in another package
		"fixture/sub.Limit",                 // unused const
		"fixture/sub.NeverCalled",           // exported func of an imported package
		"fixture/sub.orphanStringer",        // unused type...
		"fixture/sub.orphanStringer.String", // ...whose Stringer method dies with it
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("dead symbols:\n got %q\nwant %q", got, want)
	}
}
