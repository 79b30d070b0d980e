package cqbound

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoAtomicOrAnd keeps the sync/atomic bitwise functions (atomic.OrUint32,
// atomic.AndInt64, …) out of program code. Local builds use go1.24.0
// (GOTOOLCHAIN=local), and a program built with it that branched on the
// value atomic.OrUint32 returned was seen to segfault; CI's go-version
// "1.24" resolves to a later patch release, so CI would not catch such a
// crash. Code that needs such an update writes a CompareAndSwap loop
// instead. Test files are not scanned, and neither are
// the methods of the atomic types, which this syntactic check cannot tell
// apart from other methods named Or or And.
func TestNoAtomicOrAnd(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch path {
			case ".git", ".bench_build":
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		name := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "sync/atomic" {
				name = "atomic"
				if imp.Name != nil {
					name = imp.Name.Name
				}
			}
		}
		if name == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == name &&
				(strings.HasPrefix(sel.Sel.Name, "Or") || strings.HasPrefix(sel.Sel.Name, "And")) {
				t.Errorf("%s: %s.%s: set bits with a CompareAndSwap loop instead", fset.Position(sel.Pos()), name, sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
