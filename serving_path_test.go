package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestServingPathBuildsNoNodeGraph keeps node graphs out of the live
// store, the server and the cluster: they build, merge and read encoded
// bytes only (BuildIndexed, MergeViews, CubeView). It fails when a non-test
// file of those packages names New, NewFromAggregates or a Decode, each of
// which materializes a *Cube graph, or an ablation option: the serving
// path never writes an ablated segment, whose sharing a merge would not
// reproduce.
func TestServingPathBuildsNoNodeGraph(t *testing.T) {
	banned := map[string]bool{
		"New": true, "NewFromAggregates": true,
		"Decode": true, "DecodeBytes": true,
		"WithoutSuffixCoalescing": true, "WithoutHashConsing": true,
	}
	for _, dir := range []string{"internal/cubestore", "internal/serve", "internal/cluster"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			name := "" // the file's local name for the dwarf package
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "repro/internal/dwarf" {
					name = "dwarf"
					if imp.Name != nil {
						name = imp.Name.Name
					}
				}
			}
			if name == "" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == name && banned[sel.Sel.Name] {
					t.Errorf("%s names dwarf.%s: the serving path builds and reads encoded bytes only", path, sel.Sel.Name)
				}
				return true
			})
		}
	}
}
