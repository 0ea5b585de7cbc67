package blueprint

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// censusKept is the allow-list of TestCallerCensus: funcs and methods of the
// program that no non-test file and nothing under benchmark/ refers to, and
// that stay anyway. Each entry says why — the section of the paper whose
// capability only tests exercise so far, or the suite that needs the seam.
// An entry that gains a caller, or whose name goes away, fails the test, so
// this table is always exactly the set of such names.
var censusKept = map[string]string{
	// Capabilities of the paper that only tests exercise so far.
	"planner.TaskPlanner.PlanIncremental":  "§V-F incremental planning: the next step is planned from the last step's outputs",
	"planner.IncrementalPlan.Intent":       "§V-F incremental planning",
	"planner.IncrementalPlan.Remaining":    "§V-F incremental planning",
	"planner.IncrementalPlan.Veto":         "§V-F incremental planning: an agent excluded from the remaining steps after a failure or a thumbs-down",
	"planner.IncrementalPlan.Next":         "§V-F incremental planning",
	"planner.IncrementalPlan.Materialize":  "§V-F incremental planning: the steps emitted so far, as a plan the coordinator runs",
	"registry.DataRegistry.Grant":          "§VII governance: an asset restricted to the listed agents",
	"registry.DataRegistry.Revoke":         "§VII governance",
	"registry.DataRegistry.ClearGrants":    "§VII governance",
	"registry.DataRegistry.DiscoverFor":    "§VII governance: discovery filtered to what the asking agent may use",
	"registry.AgentRegistry.Update":        "§V-C registry lifecycle: a new version of an agent's entry",
	"registry.AgentRegistry.Derive":        "§V-C registry lifecycle: an agent derived from a registered one",
	"registry.AgentRegistry.Deregister":    "§V-C registry lifecycle",
	"registry.AgentRegistry.UsageCount":    "§V-C usage-informed search: the usage RecordUsage logs, read back",
	"registry.AgentRegistry.SearchKeyword": "§V-C keyword search beside the vector search the planner uses",
	"registry.DataRegistry.Update":         "§V-D registry lifecycle: a new version of an asset's entry",
	"registry.DataRegistry.Children":       "§V-D the asset hierarchy, walked down from a parent",
	"session.Session.Extend":               "§V-E nested session scopes (SESSION:ID:PROFILE)",
	"session.Session.RemoveAgent":          "§V-E an agent leaves a session (REMOVE_AGENT): the deployment leaves, and stops with its last session",
	"session.Session.Agents":               "§V-E session membership",
	"session.Session.Agent":                "§V-E session membership: the deployment the session joined, which other sessions share",
	"session.Session.Members":              "§V-E session membership, replayed from the one ADD_AGENT / REMOVE_AGENT record per change on the session stream",
	"session.Session.Display":              "§V-E the display stream's messages; the program waits on it by offset instead",
	"session.Session.History":              "§V-E every message of the scope, in order",
	"streams.Store.List":                   "§V-A streams are first-class data resources: enumerate them",
	"streams.Store.CloseStream":            "§V-A a stream ends with an EOS sentinel",

	// Safety and fault-suite hooks.
	"durability.Engine.Sync":          "safety: makes every appended record durable; Append's doc names it as the barrier",
	"resilience.NewInjector":          "chaos suite: builds the seeded fault plan a test activates",
	"resilience.Activate":             "chaos suite: turns a fault plan on at every injection site",
	"resilience.Deactivate":           "chaos suite: turns the fault plan off",
	"resilience.Injector.OnCrash":     "chaos suite: how an injected crash reaches the test's simulated process death",
	"resilience.Injector.Stats":       "chaos suite: asserts the fault plan fired",
	"resilience.OverloadError.Unwrap": "errors.Is(err, ErrOverloaded) reaches it through an anonymous interface inside package errors",

	// Load drivers: today only the overload and flight-recorder tests and
	// the overload benchmark drive the program with them.
	"workload.OpenLoop":                 "the open-loop overload workload planned for the repo benchmark (ROADMAP.md)",
	"workload.Replay":                   "the open-loop overload workload: the schedule fired without waiting on completions",
	"workload.NewHTTPDriver":            "a client ledger to reconcile with /metrics, /slo and /slow (ROADMAP.md)",
	"workload.HTTPDriver.CreateSession": "the client ledger",
	"workload.HTTPDriver.Ask":           "the client ledger: one ask as the client saw it",
	"workload.HTTPDriver.ScrapeMetrics": "the client ledger: /metrics read as a dashboard reads it",

	// The fake clock: a test advances it instead of sleeping.
	"clock.NewFake":        "a clock that moves only when a test advances it, handed to what the test builds",
	"clock.Clock.Advance":  "moves the fake clock: a deadline, backoff, open period, TTL or window passes at once",
	"clock.Clock.Sleeping": "waits until code under test sleeps on the fake clock, and reads what it asked for",

	// Causal signals a test waits on or reads instead of sleeping.
	"blueprint.Session.PlanResults": "root tests wait for and read the plans a session ran",
	"memo.Store.Len":                "memo and durability tests read the resident entry count",
	"planner.Plan.ToJSON":           "the map form a logged plan has: the plan/payload duality tests build it",

	// internal/relational was sized to its producers in PR 21; these seams
	// feed its differential, property and durability suites.
	"relational.DB.Table":                "durability and profile tests read a recovered table's schema",
	"relational.DB.Insert":               "rows_test loads rows without SQL text",
	"relational.DB.ResetCacheStats":      "statement-cache tests count from zero",
	"relational.DB.SetStmtCacheCapacity": "statement-cache eviction tests",
	"relational.Stmt.SQL":                "stmt_test reads a prepared statement's text back",
}

// censusRefs counts the references to one declared name: prog from non-test
// files (benchmark/ and examples/ included), test from _test.go files.
type censusRefs struct{ prog, test int }

// census type-checks every package of the module from source and counts, for
// each name declared in it, the identifiers that resolve to it. Declarations
// are keyed by file:line:col, which is the same for the plain package an
// importer sees and for the package checked again beside its _test.go files.
type census struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string][]*ast.File // directory, relative to root -> parsed files
	pkgs  map[string]*types.Package
	refs  map[string]*censusRefs
	decls map[string]types.Object   // key -> func, method, type, const, var or field of the program
	ifcs  map[*types.Interface]bool // every interface type with methods that the module or its imports name
}

func (c *census) key(pos token.Pos) string {
	p := c.fset.Position(pos)
	rel, _ := filepath.Rel(c.root, p.Filename)
	return rel + ":" + strconv.Itoa(p.Line) + ":" + strconv.Itoa(p.Column)
}

func isTestFile(name string) bool { return strings.HasSuffix(name, "_test.go") }

// Import serves the module's own packages from the parsed non-test files and
// everything else (the standard library) from GOROOT source.
func (c *census) Import(path string) (*types.Package, error) {
	if path != "blueprint" && !strings.HasPrefix(path, "blueprint/") {
		return c.std.Import(path)
	}
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(path, "blueprint"), "/")
	if dir == "" {
		dir = "."
	}
	var files []*ast.File
	for _, f := range c.dirs[dir] {
		if !isTestFile(c.fset.File(f.Pos()).Name()) {
			files = append(files, f)
		}
	}
	p, err := c.check(path, files, false)
	c.pkgs[path] = p
	return p, err
}

// check type-checks one set of files as a package. With count set it also
// records every reference and every declaration the files hold.
func (c *census) check(path string, files []*ast.File, count bool) (*types.Package, error) {
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: c}
	p, err := conf.Check(path, c.fset, files, info)
	if err != nil || !count {
		return p, err
	}
	for _, tv := range info.Types {
		if ifc, ok := tv.Type.Underlying().(*types.Interface); ok && ifc.NumMethods() > 0 {
			c.ifcs[ifc] = true
		}
	}
	for _, f := range files {
		name := c.fset.File(f.Pos()).Name()
		rel, _ := filepath.Rel(c.root, name)
		inProgram := !isTestFile(name) && !strings.HasPrefix(rel, "benchmark"+string(filepath.Separator)) &&
			!strings.HasPrefix(rel, "examples"+string(filepath.Separator))
		for _, d := range f.Decls {
			var self types.Object
			if fd, ok := d.(*ast.FuncDecl); ok {
				self = info.Defs[fd.Name]
			}
			ast.Inspect(d, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if obj := info.Defs[id]; obj != nil && inProgram && censusDeclares(obj) {
					c.decls[c.key(obj.Pos())] = obj
				}
				obj := info.Uses[id]
				if obj == nil || obj.Pkg() == nil || !obj.Pos().IsValid() || (self != nil && obj.Pos() == self.Pos()) {
					return true
				}
				k := c.key(obj.Pos())
				r := c.refs[k]
				if r == nil {
					r = &censusRefs{}
					c.refs[k] = r
				}
				if isTestFile(name) {
					r.test++
				} else {
					r.prog++
				}
				return true
			})
		}
	}
	return p, nil
}

// censusDeclares reports whether obj is a name the census counts: a
// package-level func, type, const or var, a method, or a struct field.
func censusDeclares(obj types.Object) bool {
	switch o := obj.(type) {
	case *types.Func:
		return o.Name() != "main" && o.Name() != "init" && o.Name() != "_"
	case *types.Var:
		return o.Name() != "_" && (o.IsField() || o.Parent() == o.Pkg().Scope())
	case *types.TypeName, *types.Const:
		return obj.Name() != "_" && obj.Parent() == obj.Pkg().Scope()
	}
	return false
}

// viaInterface reports whether some interface type the module or the
// standard library names has a method called like fn that fn's receiver
// satisfies: such a method is reached by dynamic dispatch, which no
// identifier shows.
func (c *census) viaInterface(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
		return false // a generic receiver has no method set to test; none is unreferenced
	}
	for ifc := range c.ifcs {
		for i := 0; i < ifc.NumMethods(); i++ {
			if ifc.Method(i).Name() == fn.Name() && (types.Implements(t, ifc) || types.Implements(types.NewPointer(t), ifc)) {
				return true
			}
		}
	}
	return false
}

// censusName is how a func or method is written in censusKept and in a
// failure: pkg.Func or pkg.Type.Method.
func censusName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name += n.Obj().Name() + "."
		}
	}
	return name + fn.Name()
}

// TestCallerCensus is the rule "a name stays only if something other than its
// own test reads it", checked: every func and method declared in non-test Go
// outside benchmark/ and examples/ is referred to from a non-test file or from
// benchmark/, is reached through an interface its receiver implements, or is
// in censusKept with its reason. It logs the same count for every kind of
// declared name (types, consts, vars and struct fields included).
func TestCallerCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library it imports from source")
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	c := &census{
		root:  root,
		fset:  token.NewFileSet(),
		dirs:  map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		refs:  map[string]*censusRefs{},
		decls: map[string]types.Object{},
		ifcs:  map[*types.Interface]bool{},
	}
	c.std = importer.ForCompiler(c.fset, "source", nil)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); !ok || err != nil {
			return err // a file for another build
		}
		f, err := parser.ParseFile(c.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, _ := filepath.Rel(root, filepath.Dir(path))
		c.dirs[dir] = append(c.dirs[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each directory is checked as its importers see it (non-test files),
	// then counted: the package beside its in-package tests, and the external
	// _test package if there is one.
	for dir, files := range c.dirs {
		path := "blueprint"
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		var own, ext []*ast.File
		for _, f := range files {
			if strings.HasSuffix(f.Name.Name, "_test") {
				ext = append(ext, f)
			} else {
				own = append(own, f)
			}
		}
		if _, err := c.check(path, own, true); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(ext) > 0 {
			if _, err := c.check(path+"_test", ext, true); err != nil {
				t.Fatalf("%s_test: %v", path, err)
			}
		}
	}
	for _, p := range c.pkgs {
		for _, imp := range append(p.Imports(), p) {
			for _, n := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(n).(*types.TypeName); ok {
					if ifc, ok := tn.Type().Underlying().(*types.Interface); ok && ifc.NumMethods() > 0 {
						c.ifcs[ifc] = true
					}
				}
			}
		}
	}

	var unread, dynamic, nothing, testOnly int
	var failures []string
	seen := map[string]bool{}
	for k, obj := range c.decls {
		r := c.refs[k]
		if r == nil {
			r = &censusRefs{}
		}
		fn, isFunc := obj.(*types.Func)
		if isFunc {
			name := censusName(fn)
			if _, kept := censusKept[name]; kept {
				seen[name] = true
				if r.prog > 0 {
					failures = append(failures, k+" "+name+": on the allow-list but has a caller outside tests")
				}
			}
		}
		if r.prog > 0 {
			continue
		}
		unread++
		switch {
		case isFunc && c.viaInterface(fn):
			dynamic++
			continue
		case r.test == 0:
			nothing++
		default:
			testOnly++
		}
		if !isFunc {
			continue
		}
		if name := censusName(fn); censusKept[name] == "" {
			failures = append(failures, k+" "+name+": no caller outside tests ("+strconv.Itoa(r.test)+" in tests)")
		}
	}
	for name := range censusKept {
		if !seen[name] {
			failures = append(failures, name+": on the allow-list but not declared")
		}
	}
	t.Logf("census: %d names declared; %d with no reference from a non-test file or benchmark/: %d methods reached through an interface, %d nothing refers to, %d only tests refer to",
		len(c.decls), unread, dynamic, nothing, testOnly)
	sort.Strings(failures)
	for _, f := range failures {
		t.Error(f)
	}
}
