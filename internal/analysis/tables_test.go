package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The locksend and commdiverge analyzers match collective.Communicator
// methods by name from hand-written tables, so a method added to or removed
// from internal/collective drifts out of them silently. These tests re-derive
// the method set from the collective sources and hold the tables to it.

// bookkeeping are the (op, step) Communicator methods that only resolve a
// tag and never touch the transport.
var bookkeeping = map[string]bool{"Tag": true}

// communicatorMethods parses internal/collective's non-test sources and
// returns every exported *Communicator method with its flattened parameter
// list as (name, type) pairs.
func communicatorMethods(t *testing.T) map[string][][2]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "collective", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	methods := make(map[string][][2]string)
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !fd.Name.IsExported() {
				continue
			}
			star, ok := fd.Recv.List[0].Type.(*ast.StarExpr)
			if !ok {
				continue
			}
			if id, ok := star.X.(*ast.Ident); !ok || id.Name != "Communicator" {
				continue
			}
			var params [][2]string
			for _, field := range fd.Type.Params.List {
				typ := ""
				if id, ok := field.Type.(*ast.Ident); ok {
					typ = id.Name
				}
				for _, name := range field.Names {
					params = append(params, [2]string{name.Name, typ})
				}
			}
			methods[fd.Name.Name] = params
		}
	}
	if len(methods) == 0 {
		t.Fatal("no Communicator methods found in internal/collective")
	}
	return methods
}

// tableKeys returns the string keys of the map literal assigned to the
// package-level variable name in the Go source file at path.
func tableKeys(t *testing.T, path, name string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if len(vs.Names) != 1 || vs.Names[0].Name != name || len(vs.Values) != 1 {
				continue
			}
			lit, ok := vs.Values[0].(*ast.CompositeLit)
			if !ok {
				t.Fatalf("%s: %s is not a map literal", path, name)
			}
			var keys []string
			for _, elt := range lit.Elts {
				key, err := strconv.Unquote(elt.(*ast.KeyValueExpr).Key.(*ast.BasicLit).Value)
				if err != nil {
					t.Fatal(err)
				}
				keys = append(keys, key)
			}
			return keys
		}
	}
	t.Fatalf("%s: no package-level var %s", path, name)
	return nil
}

// TestLocksendCoversEveryCollective: every exported Communicator method
// addressed by (op string, step int, ...) rendezvouses with peers, so
// locksend must treat it as blocking.
func TestLocksendCoversEveryCollective(t *testing.T) {
	blocking := make(map[string]bool)
	for _, k := range tableKeys(t, filepath.Join("locksend", "locksend.go"), "communicatorMethods") {
		blocking[k] = true
	}
	for name, p := range communicatorMethods(t) {
		if len(p) < 2 || p[0] != [2]string{"op", "string"} || p[1] != [2]string{"step", "int"} || bookkeeping[name] {
			continue
		}
		if !blocking[name] {
			t.Errorf("Communicator.%s takes (op, step) but is missing from locksend.communicatorMethods", name)
		}
	}
}

// TestAnalyzerTablesNameLiveMethods: a table key naming a deleted method is
// dead weight that hides which methods really are covered.
func TestAnalyzerTablesNameLiveMethods(t *testing.T) {
	methods := communicatorMethods(t)
	for _, table := range []struct{ path, name string }{
		{filepath.Join("locksend", "locksend.go"), "communicatorMethods"},
		{filepath.Join("commdiverge", "commdiverge.go"), "collectiveMethods"},
	} {
		for _, key := range tableKeys(t, table.path, table.name) {
			if _, ok := methods[key]; !ok {
				t.Errorf("%s.%s names Communicator.%s, which does not exist", filepath.Dir(table.path), table.name, key)
			}
		}
	}
}
