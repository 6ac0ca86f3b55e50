package neurolpm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportExemptions names the exported functions and methods that may lack a
// shipped caller outside their own package, each with its one-line reason,
// at most six of them. Keys are "dir.Name" for a function and
// "dir.Type.Name" for a method, dir being the package's slash-separated
// directory under the module root. Whole packages that are test seams on
// purpose are in seamPackages instead.
var exportExemptions = map[string]string{
	"internal/telemetry.NewRegistry": "the test-isolation seam: every package's tests build a private registry with it",
}

// seamPackages are packages that exist to be called by tests: the fault
// injector and the shard-count harness.
var seamPackages = map[string]bool{
	"internal/fault":     true,
	"internal/planetest": true,
}

// TestShippedExportsHaveShippedCallers holds every exported function and
// method in internal/ and cmd/ to a caller in a non-test file of another
// package: code only tests call belongs in the tests, and code only its own
// package calls is unexported.
func TestShippedExportsHaveShippedCallers(t *testing.T) {
	if len(exportExemptions) > 6 {
		t.Errorf("%d named exemptions, at most 6: give the code a shipped caller or move it into the tests", len(exportExemptions))
	}
	missing, err := exportsWithoutCallers(".", "neurolpm", exportExemptions)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range missing {
		t.Errorf("%s has no caller in a non-test file outside its package: move it into the tests, unexport it, or delete it", m)
	}
}

// TestExportCheckFlagsTestOnlyCallers runs the check over a fixture module
// holding one function only a test calls, one method only an interface
// names and one function another package calls.
func TestExportCheckFlagsTestOnlyCallers(t *testing.T) {
	missing, err := exportsWithoutCallers(filepath.Join("testdata", "exports"), "fixture", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/a.OnlyTested"}
	if strings.Join(missing, ",") != strings.Join(want, ",") {
		t.Fatalf("flagged %v, want %v", missing, want)
	}
}

// TestEngineLinksNoWebServer holds the engine library, the experiments and
// lpmbench off net/http and expvar: of the module's packages they reach,
// none imports either. The web server is internal/serve's, for lpmserve.
func TestEngineLinksNoWebServer(t *testing.T) {
	seen := map[string]bool{}
	var walk func(dir string)
	walk = func(dir string) {
		if seen[dir] {
			return
		}
		seen[dir] = true
		imports, err := packageImports(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range imports {
			if path == "expvar" || path == "net/http" || strings.HasPrefix(path, "net/http/") {
				t.Errorf("%s imports %s", dir, path)
			}
			if rel, ok := strings.CutPrefix(path, "neurolpm/"); ok {
				walk(rel)
			}
		}
	}
	for _, root := range []string{".", "internal/core", "internal/experiments", "cmd/lpmbench"} {
		walk(root)
	}
}

// packageImports lists the imports of dir's non-test files.
func packageImports(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var out []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			out = append(out, path)
		}
	}
	return out, nil
}

// exportsWithoutCallers parses every non-test Go file under root, module
// being the import path of root, and returns the exported functions and
// methods declared in internal/ or cmd/ that no non-test file of another
// package names, sorted. A function counts as named where another package
// selects it through its import; a method where another package selects its
// name on any value, or where any non-test interface declares its name.
// Matching methods by name alone can miss an unused one that shares a name
// with a used one; it never flags a used one.
func exportsWithoutCallers(root, module string, exempt map[string]string) ([]string, error) {
	type decl struct{ dir, key string }
	var decls []decl
	funcRefs := map[string]bool{}       // "dir.Name" selected from another package
	methodRefs := map[string][]string{} // method name -> dirs selecting it
	ifaceMethods := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		imported := map[string]string{} // local name -> dir under root
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			target, ok := strings.CutPrefix(p, module+"/")
			if !ok {
				continue
			}
			name := target[strings.LastIndex(target, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imported[name] = target
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if target, ok := imported[x.Name]; ok {
						funcRefs[target+"."+n.Sel.Name] = true
						return true
					}
				}
				methodRefs[n.Sel.Name] = append(methodRefs[n.Sel.Name], dir)
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						ifaceMethods[name.Name] = true
					}
				}
			}
			return true
		})
		if !(strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")) || seamPackages[dir] {
			return nil
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := fn.Name.Name
			if fn.Recv != nil {
				recv := receiverType(fn.Recv.List[0].Type)
				if !ast.IsExported(recv) {
					continue
				}
				key = recv + "." + key
			}
			decls = append(decls, decl{dir, key})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var missing []string
	for _, d := range decls {
		name := d.dir + "." + d.key
		if _, ok := exempt[name]; ok {
			continue
		}
		if dot := strings.LastIndex(d.key, "."); dot >= 0 {
			method := d.key[dot+1:]
			if ifaceMethods[method] || selectedElsewhere(methodRefs[method], d.dir) {
				continue
			}
		} else if funcRefs[name] {
			continue
		}
		missing = append(missing, name)
	}
	sort.Strings(missing)
	return missing, nil
}

// selectedElsewhere reports whether any of dirs is not own.
func selectedElsewhere(dirs []string, own string) bool {
	for _, d := range dirs {
		if d != own {
			return true
		}
	}
	return false
}

// receiverType names a method's receiver type, without pointer or type
// parameters.
func receiverType(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}
