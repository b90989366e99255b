package regcast_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// callerAllowlist names the non-test functions that no program reaches but a
// test needs as an oracle or a fixture, each with the test that needs it.
// Functions reached only from an entry here are kept too (zQuantile behind
// HalfWidth). An entry that a program starts to reach, or whose function is
// deleted, fails the test, so the list cannot go stale.
var callerAllowlist = map[string]string{
	"regcast/internal/graph.Ring":                     "fixture of the graph, phonecall, core, baseline, spectral and overlay tests",
	"(*regcast/internal/graph.Graph).DiameterExact":   "TestDiameterLowerBound's oracle",
	"(*regcast/internal/graph.Graph).EdgesWithin":     "the oracle in internal/graph/structure_test.go",
	"regcast/internal/stats.Summarize":                "TestAccumulatorMatchesSummarize's oracle",
	"(*regcast/internal/stats.Accumulator).HalfWidth": "stats tests; ROADMAP 2(a) sizes replication counts with it",
	"(*regcast/internal/core.FourChoice).Variant":     "core tests observe the chosen algorithm through it",
	"(*regcast/internal/p2p/replica.Store).Entries":   "replica tests observe the store through it",
	"(*regcast/internal/transport.FaultPlan).Trace":   "TestFaultPlanDeterministicSchedule and TestChaosRunReproducibleFromSeed observe the fault decisions through it",
}

// TestEveryFunctionHasACaller type-checks the non-test files of both modules
// (the root module and bench/) and walks the call graph from the roots a
// program can enter by: main and init, package-level var and const
// initialisers, the exported API of package regcast, and every method whose
// name some interface declares (named or literal, the standard library's
// included). A function outside that closure and off callerAllowlist is code
// only its own tests reach, and fails the test.
func TestEveryFunctionHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules from source")
	}
	if raceEnabled {
		t.Skip("type-checks both modules from source; slow under -race")
	}

	fset := token.NewFileSet()
	w := &reachWalk{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*types.Package{},
		ifaces:  map[string]bool{"Error": true}, // the universe's error
		byName:  map[string]*types.Func{},
		callees: map[*types.Func][]*types.Func{},
	}
	for _, dir := range []string{".", "bench"} {
		for _, p := range goListDeps(t, dir) {
			if w.pkgs[p.path] == nil {
				w.check(t, p)
			}
		}
	}
	reached := w.reach(w.roots)
	var allow []*types.Func
	for name := range callerAllowlist {
		fn := w.byName[name]
		switch {
		case fn == nil:
			t.Errorf("allowlisted %s no longer exists: drop its entry", name)
		case reached[fn]:
			t.Errorf("allowlisted %s is reached by a program now: drop its entry", name)
		default:
			allow = append(allow, fn)
		}
	}
	kept := w.reach(append(append([]*types.Func(nil), w.roots...), allow...))

	var dead []string
	for _, fn := range w.decls {
		if !kept[fn] {
			dead = append(dead, fset.Position(fn.Pos()).String()+": "+fn.FullName())
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no caller outside tests: %s", d)
	}
	t.Logf("%d functions, %d roots, %d reached, %d allowlisted", len(w.decls), len(w.roots), len(reached), len(allow))
}

type listedPkg struct {
	path, dir string
	files     []string
}

// goListDeps lists the non-standard packages ./... depends on in the module
// rooted at dir, dependencies first.
func goListDeps(t *testing.T, dir string) []listedPkg {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-f",
		`{{if not .Standard}}{{.ImportPath}}{{"\t"}}{{.Dir}}{{"\t"}}{{join .GoFiles " "}}{{end}}`, "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPkg
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Split(line, "\t"); len(f) == 3 {
			pkgs = append(pkgs, listedPkg{path: f[0], dir: f[1], files: strings.Fields(f[2])})
		}
	}
	return pkgs
}

type reachWalk struct {
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*types.Package
	ifaces  map[string]bool // every interface method name seen
	decls   []*types.Func   // every declared function, methods included
	byName  map[string]*types.Func
	roots   []*types.Func
	callees map[*types.Func][]*types.Func
}

func (w *reachWalk) Import(path string) (*types.Package, error) {
	if p := w.pkgs[path]; p != nil {
		return p, nil
	}
	p, err := w.std.Import(path)
	if err == nil {
		w.pkgs[path] = p
		w.scopeInterfaces(p.Scope())
	}
	return p, err
}

// scopeInterfaces records the method names of the interfaces a package
// declares, so methods satisfying fmt.Stringer or sort.Interface count as
// called.
func (w *reachWalk) scopeInterfaces(s *types.Scope) {
	for _, name := range s.Names() {
		if tn, ok := s.Lookup(name).(*types.TypeName); ok {
			w.addInterface(tn.Type())
		}
	}
}

func (w *reachWalk) addInterface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			w.ifaces[it.Method(i).Name()] = true
		}
	}
}

func (w *reachWalk) check(t *testing.T, p listedPkg) {
	t.Helper()
	var files []*ast.File
	for _, name := range p.files {
		f, err := parser.ParseFile(w.fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: w}
	pkg, err := conf.Check(p.path, w.fset, files, info)
	if err != nil {
		t.Fatalf("type-check %s: %v", p.path, err)
	}
	w.pkgs[p.path] = pkg
	for _, tv := range info.Types {
		if tv.IsType() {
			w.addInterface(tv.Type)
		}
	}
	w.scopeInterfaces(pkg.Scope())

	// uses lists the functions a subtree refers to, by call or by value.
	uses := func(n ast.Node) []*types.Func {
		var fns []*types.Func
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := info.Uses[id].(*types.Func); ok {
					fns = append(fns, fn.Origin())
				}
			}
			return true
		})
		return fns
	}
	// initRoot stands for the package's var and const initialisers.
	initRoot := types.NewFunc(token.NoPos, pkg, "init·vars", nil)
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fn := info.Defs[d.Name].(*types.Func)
				w.callees[fn] = uses(d)
				if d.Recv == nil && (d.Name.Name == "init" || (d.Name.Name == "main" && pkg.Name() == "main")) {
					w.roots = append(w.roots, fn)
					continue
				}
				w.decls = append(w.decls, fn)
				w.byName[fn.FullName()] = fn
			case *ast.GenDecl:
				if d.Tok == token.VAR || d.Tok == token.CONST {
					w.callees[initRoot] = append(w.callees[initRoot], uses(d)...)
				}
			}
		}
	}
	w.roots = append(w.roots, initRoot)
	if p.path == "regcast" {
		w.exportedRoots(pkg)
	}
}

// exportedRoots makes the facade's exported functions, and the exported
// methods of the types it declares, roots.
func (w *reachWalk) exportedRoots(pkg *types.Package) {
	s := pkg.Scope()
	for _, name := range s.Names() {
		switch obj := s.Lookup(name).(type) {
		case *types.Func:
			if obj.Exported() {
				w.roots = append(w.roots, obj)
			}
		case *types.TypeName:
			if !obj.Exported() || obj.IsAlias() {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(obj.Type()))
			for i := 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj().(*types.Func); m.Exported() {
					w.roots = append(w.roots, m.Origin())
				}
			}
		}
	}
}

// reach returns the closure of roots under callees, where every method named
// by some interface is a root too.
func (w *reachWalk) reach(roots []*types.Func) map[*types.Func]bool {
	seen := map[*types.Func]bool{}
	stack := append([]*types.Func(nil), roots...)
	for _, fn := range w.decls {
		if sig := fn.Type().(*types.Signature); sig.Recv() != nil && w.ifaces[fn.Name()] {
			stack = append(stack, fn)
		}
	}
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[fn] {
			continue
		}
		seen[fn] = true
		stack = append(stack, w.callees[fn]...)
	}
	return seen
}
