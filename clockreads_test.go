package blueprint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// clockKept is the allow-list of TestClockReads: where non-test Go outside
// benchmark/ and cmd/ reads the machine's clock directly instead of the
// System's (internal/clock). A key is a function as the census writes it
// (pkg.Func, pkg.Type.Method), or a directory ending in "/" for everything
// under it. Each entry says why. An entry whose read is gone fails the test,
// so this table is always exactly the set of such places.
var clockKept = map[string]string{
	"internal/clock/": "the real clock: the nil *Clock reads the machine's time here",

	// Harnesses that time what they measure, outside any System.
	"internal/experiments/": "the paper-figure harness times the runs it reports on the wall clock",
	"internal/workload/":    "the load harness: an open-loop schedule fires on the wall clock its latencies are measured against",

	// The durability engine runs on real time: it is opened before the
	// System's layers and keeps no clock.
	"durability.Engine.Recover":           "recovery timing, reported in Stats",
	"durability.Engine.Snapshot":          "the last snapshot's wall time, reported in Stats",
	"durability.Engine.StartAutoSnapshot": "the auto-snapshot loop's ticker",
	"durability.Engine.flushLoop":         "the group-commit fsync loop's ticker",

	// The telemetry plane is process-global until it is scoped per System
	// (ROADMAP.md), so its stamps are wall-clock stamps.
	"obs.Tracer.newSpan":         "a span's start stamp, on the process-global tracer",
	"obs.Span.End":               "a span's duration, on the process-global tracer",
	"obs.EventLog.Append":        "an event's time stamp, on the process-global event log",
	"obs.Histogram.ObserveSince": "a latency observation into a process-global histogram",
	"relational.DB.runLogged":    "ObserveSince(time.Now()) on the process-global SQL latency histogram",
}

// clockReads are the reads TestClockReads looks for, by package path.
var clockReads = map[string]map[string]bool{
	"time": {"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
		"AfterFunc": true, "NewTimer": true, "NewTicker": true, "Tick": true},
	"context": {"WithTimeout": true, "WithDeadline": true},
}

// TestClockReads is the rule "every time-based decision reads the System's
// clock", checked: it parses every non-test Go file outside benchmark/ and
// cmd/ and fails on a direct read of the machine's clock — time.Now, Since,
// Until, Sleep, After, AfterFunc, NewTimer, NewTicker or Tick, or
// context.WithTimeout or WithDeadline — outside clockKept.
func TestClockReads(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	reads := map[string]int{} // allow-list entry -> reads it admits
	var failures []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata" || rel == "benchmark" || rel == "cmd") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || isTestFile(path) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imported := map[string]map[string]bool{} // local name -> the reads of its package
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if sel := clockReads[p]; sel != nil {
				name := p
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imported[name] = sel
			}
		}
		if len(imported) == 0 {
			return nil
		}
		for _, decl := range f.Decls {
			fn := f.Name.Name + ".var"
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = f.Name.Name + "." + recvName(fd) + fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				x, ok := sel.X.(*ast.Ident)
				if !ok || !imported[x.Name][sel.Sel.Name] {
					return true
				}
				key := fn
				if _, kept := clockKept[key]; !kept {
					key = ""
					for k := range clockKept {
						if strings.HasSuffix(k, "/") && strings.HasPrefix(rel, k) {
							key = k
						}
					}
				}
				if key == "" {
					failures = append(failures, fset.Position(sel.Pos()).String()+": "+fn+" reads "+x.Name+"."+sel.Sel.Name+" instead of the System's clock")
				} else {
					reads[key]++
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range clockKept {
		if reads[key] == 0 {
			failures = append(failures, key+": on the allow-list but reads no clock")
		}
	}
	sort.Strings(failures)
	for _, f := range failures {
		t.Error(f)
	}
	t.Logf("clock reads: %d allow-list entries", len(clockKept))
}

// recvName is "Type." for a method, as censusName writes it, and "" for a
// func.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "."
	}
	return ""
}
