package regcast_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
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

// setterAllowlist names the exported fields that no program writes but a test
// needs set, each with the test that needs it. An entry that a program starts
// to write, or whose field is deleted, fails the test. Keep it at most three
// entries long.
var setterAllowlist = map[string]string{}

// TestEveryFunctionHasACaller walks the call graph of both modules (the root
// module and bench/) from the roots a program can enter by: main and init,
// package-level var and const initialisers, the exported API of package
// regcast, and every method whose name some interface declares (named or
// literal, the standard library's included). A function outside that closure
// and off callerAllowlist is code only its own tests reach, and fails the
// test.
func TestEveryFunctionHasACaller(t *testing.T) {
	w := loadReach(t)
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
			dead = append(dead, w.fset.Position(fn.Pos()).String()+": "+fn.FullName())
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no caller outside tests: %s", d)
	}
	t.Logf("%d functions, %d roots, %d reached, %d allowlisted", len(w.decls), len(w.roots), len(reached), len(allow))
}

// TestEveryFieldHasASetter holds the second half of the caller rule: a
// settable value that no program sets is a constant. Every exported field of
// an exported struct type in the root module's non-test code must be written
// by a function that main, init or a var initialiser of either module reaches
// (callerAllowlist entries count, so stats.Summarize sets Summary's fields).
// The facade's exported API is no root here, or every With* option would
// count as a setter. A write is a keyed (or positional) composite-literal
// field, an assignment, ++ or --, taking the field's address (a flag
// binding), or a method call on the field (an atomic counter's Add).
func TestEveryFieldHasASetter(t *testing.T) {
	if len(setterAllowlist) > 3 {
		t.Errorf("setterAllowlist has %d entries; make the values constants instead", len(setterAllowlist))
	}
	w := loadReach(t)
	roots := append([]*types.Func(nil), w.progRoots...)
	for name := range callerAllowlist {
		if fn := w.byName[name]; fn != nil {
			roots = append(roots, fn)
		}
	}
	written := map[*types.Var]bool{}
	for fn := range w.reach(roots) {
		for _, f := range w.writes[fn] {
			written[f] = true
		}
	}
	for name := range setterAllowlist {
		f := w.fields[name]
		switch {
		case f == nil:
			t.Errorf("allowlisted field %s no longer exists: drop its entry", name)
		case written[f]:
			t.Errorf("allowlisted field %s is set by a program now: drop its entry", name)
		}
	}
	var unset []string
	set := 0
	for name, f := range w.fields {
		switch {
		case written[f]:
			set++
		case setterAllowlist[name] == "":
			unset = append(unset, w.fset.Position(f.Pos()).String()+": "+name)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("no setter outside tests: %s", u)
	}
	t.Logf("%d fields, %d written by a program, %d allowlisted", len(w.fields), set, len(setterAllowlist))
}

var sharedReach struct {
	once sync.Once
	w    *reachWalk
	err  error
}

// loadReach type-checks the non-test files of both modules once per test
// binary and returns the walk both reachability tests read.
func loadReach(t *testing.T) *reachWalk {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks both modules from source")
	}
	if raceEnabled {
		t.Skip("type-checks both modules from source; slow under -race")
	}
	sharedReach.once.Do(func() { sharedReach.w, sharedReach.err = newReachWalk() })
	if sharedReach.err != nil {
		t.Fatal(sharedReach.err)
	}
	return sharedReach.w
}

func newReachWalk() (*reachWalk, error) {
	fset := token.NewFileSet()
	w := &reachWalk{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*types.Package{},
		ifaces:  map[string]bool{"Error": true}, // the universe's error
		byName:  map[string]*types.Func{},
		callees: map[*types.Func][]*types.Func{},
		writes:  map[*types.Func][]*types.Var{},
		fields:  map[string]*types.Var{},
	}
	for _, dir := range []string{".", "bench"} {
		pkgs, err := goListDeps(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if w.pkgs[p.path] == nil {
				if err := w.check(p); err != nil {
					return nil, err
				}
			}
		}
	}
	w.roots = append(w.roots, w.progRoots...)
	return w, nil
}

type listedPkg struct {
	path, module, dir string
	files             []string
}

// goListDeps lists the non-standard packages ./... depends on in the module
// rooted at dir, dependencies first.
func goListDeps(dir string) ([]listedPkg, error) {
	cmd := exec.Command("go", "list", "-deps", "-f",
		`{{if not .Standard}}{{.ImportPath}}{{"\t"}}{{.Module.Path}}{{"\t"}}{{.Dir}}{{"\t"}}{{join .GoFiles " "}}{{end}}`, "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPkg
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Split(line, "\t"); len(f) == 4 {
			pkgs = append(pkgs, listedPkg{path: f[0], module: f[1], dir: f[2], files: strings.Fields(f[3])})
		}
	}
	return pkgs, nil
}

type reachWalk struct {
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*types.Package
	ifaces  map[string]bool // every interface method name seen
	decls   []*types.Func   // every declared function, methods included
	byName  map[string]*types.Func
	roots   []*types.Func // progRoots and the facade's exported API
	callees map[*types.Func][]*types.Func

	progRoots []*types.Func                // main, init and var initialisers
	writes    map[*types.Func][]*types.Var // the fields each function writes
	fields    map[string]*types.Var        // the root module's exported fields, by pkg.Type.Field
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

func (w *reachWalk) check(p listedPkg) error {
	var files []*ast.File
	for _, name := range p.files {
		f, err := parser.ParseFile(w.fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
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
		return fmt.Errorf("type-check %s: %v", p.path, err)
	}
	w.pkgs[p.path] = pkg
	for _, tv := range info.Types {
		if tv.IsType() {
			w.addInterface(tv.Type)
		}
	}
	w.scopeInterfaces(pkg.Scope())

	// refs lists the functions a subtree refers to, by call or by value, and
	// the fields it writes.
	refs := func(n ast.Node) (fns []*types.Func, writes []*types.Var) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if fn, ok := info.Uses[n].(*types.Func); ok {
					fns = append(fns, fn.Origin())
				}
			case *ast.CompositeLit:
				st, _ := info.Types[n].Type.Underlying().(*types.Struct)
				for i, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						writes = appendField(writes, info, kv.Key)
					} else if st != nil {
						writes = append(writes, st.Field(i).Origin())
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					writes = appendField(writes, info, lhs)
				}
			case *ast.IncDecStmt:
				writes = appendField(writes, info, n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					writes = appendField(writes, info, n.X)
				}
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if m, ok := info.Uses[sel.Sel].(*types.Func); ok && m.Type().(*types.Signature).Recv() != nil {
						writes = appendField(writes, info, sel.X)
					}
				}
			}
			return true
		})
		return fns, writes
	}
	// initRoot stands for the package's var and const initialisers.
	initRoot := types.NewFunc(token.NoPos, pkg, "init·vars", nil)
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fn := info.Defs[d.Name].(*types.Func)
				w.callees[fn], w.writes[fn] = refs(d)
				if d.Recv == nil && (d.Name.Name == "init" || (d.Name.Name == "main" && pkg.Name() == "main")) {
					w.progRoots = append(w.progRoots, fn)
					continue
				}
				w.decls = append(w.decls, fn)
				w.byName[fn.FullName()] = fn
			case *ast.GenDecl:
				if d.Tok == token.VAR || d.Tok == token.CONST {
					fns, writes := refs(d)
					w.callees[initRoot] = append(w.callees[initRoot], fns...)
					w.writes[initRoot] = append(w.writes[initRoot], writes...)
				}
			}
		}
	}
	w.progRoots = append(w.progRoots, initRoot)
	if p.module == "regcast" {
		w.exportedFields(pkg)
	}
	if p.path == "regcast" {
		w.exportedRoots(pkg)
	}
	return nil
}

// appendField appends the field an lvalue x.F, x.F[i], *x.F or (x.F)
// names, if it names one.
func appendField(writes []*types.Var, info *types.Info, x ast.Expr) []*types.Var {
	for {
		switch e := x.(type) {
		case *ast.ParenExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		case *ast.SelectorExpr:
			x = e.Sel
		case *ast.Ident:
			if v, ok := info.Uses[e].(*types.Var); ok && v.IsField() {
				writes = append(writes, v.Origin())
			}
			return writes
		default:
			return writes
		}
	}
}

// exportedFields records the exported fields of the exported struct types
// a package declares. An embedded field lends its type's methods and is no
// settable value of its own, so it is left out.
func (w *reachWalk) exportedFields(pkg *types.Package) {
	s := pkg.Scope()
	for _, name := range s.Names() {
		tn, ok := s.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || tn.IsAlias() {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					w.fields[pkg.Path()+"."+name+"."+f.Name()] = f
				}
			}
		}
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
