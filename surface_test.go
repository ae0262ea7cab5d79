package repro

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// survivorsFile lists the exported identifiers of internal/ that no non-test
// file outside their own package names, one "pkg.Name  reason" per line.
// pkg is the package's directory below internal/, e.g. "sweep/shard".
const survivorsFile = "testdata/exported_surface.txt"

// survivorReasons are the reasons an identifier may stay exported although
// no other package's non-test code names it.
var survivorReasons = map[string]bool{
	"type in exported signature": true, // godoc and callers must be able to name it
	"names an Example function":  true, // ExampleT needs an exported T
	"test seam":                  true, // tests substitute their own implementation
	"cross-package test helper":  true, // tests in other packages call it
}

// TestExportedSurface keeps internal/'s exported package-level surface
// (funcs, types, vars and consts; not methods or fields) as large as what
// other packages name. An identifier counts as named when a non-test .go
// file outside its package, anywhere in the repository including bench/
// and build-tagged files, selects it through that package's import name.
// Every other exported identifier must be listed in survivorsFile with one
// of survivorReasons, and every entry there must still be exported and
// still unnamed, so the list cannot go stale.
func TestExportedSurface(t *testing.T) {
	exported, named := scanSurface(t, ".")
	survivors := readSurvivors(t, survivorsFile)

	for _, id := range sortedKeys(exported) {
		if !named[id] && survivors[id] == "" {
			t.Errorf("%s is exported but no other package's non-test code names it: unexport it, or list it in %s with a reason", id, survivorsFile)
		}
	}
	for _, id := range sortedKeys(survivors) {
		switch {
		case !exported[id]:
			t.Errorf("%s: stale entry, internal/ exports no such identifier", id)
		case named[id]:
			t.Errorf("%s: stale entry, another package names it now", id)
		}
	}
	n := 0
	for id := range exported {
		if named[id] {
			n++
		}
	}
	t.Logf("%d exported identifiers: %d named by other packages, %d survivors", len(exported), n, len(exported)-n)
}

// scanSurface parses every .go file below root, skipping testdata and
// hidden directories. It returns the exported package-level identifiers
// declared in non-test files of internal/ and those of them that a non-test
// file selects through an import, both keyed "pkg.Name".
func scanSurface(t *testing.T, root string) (exported, named map[string]bool) {
	t.Helper()
	exported, named = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if pkg, ok := strings.CutPrefix(filepath.ToSlash(filepath.Dir(p)), "internal/"); ok {
			for _, name := range exportedDecls(f) {
				exported[pkg+"."+name] = true
			}
		}
		imports := map[string]string{} // import name -> package dir below internal/
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			pkg, ok := strings.CutPrefix(ip, "repro/internal/")
			if !ok {
				continue
			}
			name := path.Base(pkg)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = pkg
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					named[imports[x.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return exported, named
}

// exportedDecls returns the exported package-level funcs, types, vars and
// consts that f declares.
func exportedDecls(f *ast.File) []string {
	var names []string
	add := func(id *ast.Ident) {
		if id.IsExported() {
			names = append(names, id.Name)
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id)
					}
				}
			}
		}
	}
	return names
}

// readSurvivors reads the survivors list: "pkg.Name  reason" per line,
// blank lines and "#" comments ignored.
func readSurvivors(t *testing.T, file string) map[string]string {
	t.Helper()
	fh, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(fh)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		id, reason, _ := strings.Cut(text, " ")
		reason = strings.TrimSpace(reason)
		switch {
		case !survivorReasons[reason]:
			t.Errorf("%s:%d: %s: reason %q is not one of the allowed reasons", file, line, id, reason)
		case out[id] != "":
			t.Errorf("%s:%d: %s listed twice", file, line, id)
		}
		out[id] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
