// Determinism check: no map iteration order may reach the simulated
// machine or a command's output. Go randomises map order per range, so
// a range over a map in the simulator or a command is a latent source
// of run-to-run drift that the archived outputs only catch when an
// archived run happens to take the path. This test type-checks the
// simulator packages and every command from source and fails on each
// range over a map that does not carry an "// order-free: <reason>"
// comment, on the line above the loop or at the end of its first line.
//
// Run: go test -run TestMapRangesAreOrderFree .
package main

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// orderScope lists the directories whose non-test code must not depend
// on map order: the simulator packages, then every command.
func orderScope(t *testing.T) []string {
	dirs := []string{"cache", "memory", "hw", "kernel", "core", "channel", "workload", "experiments", "mi", "trace"}
	for i, d := range dirs {
		dirs[i] = filepath.Join("internal", d)
	}
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cmds {
		if c.IsDir() {
			dirs = append(dirs, filepath.Join("cmd", c.Name()))
		}
	}
	return dirs
}

const orderFreeTag = "order-free:"

func TestMapRangesAreOrderFree(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	for _, dir := range orderScope(t) {
		for _, pos := range unannotatedMapRanges(t, fset, imp, dir) {
			t.Errorf("%s: range over a map without an %q comment; iterate in a fixed order, or state why the order cannot matter", pos, "// "+orderFreeTag)
		}
	}
}

// unannotatedMapRanges type-checks the non-test files of one package
// directory and returns the position of every range over a map that
// lacks an order-free annotation.
func unannotatedMapRanges(t *testing.T, fset *token.FileSet, imp types.Importer, dir string) []token.Position {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue)}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(dir, fset, files, info); err != nil {
		t.Fatalf("type-check %s: %v", dir, err)
	}
	var found []token.Position
	for _, f := range files {
		tagged := orderFreeLines(fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := info.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			pos := fset.Position(rs.For)
			if !tagged[pos.Line] && !tagged[pos.Line-1] {
				found = append(found, pos)
			}
			return true
		})
	}
	return found
}

// orderFreeLines returns the last line of every comment group in f
// that carries the order-free tag with a non-empty reason.
func orderFreeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if reason, ok := strings.CutPrefix(text, orderFreeTag); ok && strings.TrimSpace(reason) != "" {
				lines[fset.Position(cg.End()).Line] = true
			}
		}
	}
	return lines
}
