package neurolpm

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportExemptions names the exported functions, methods, consts and vars
// that may lack a shipped caller outside their own package, each with its
// one-line reason, at most six of them. Keys are "dir.Name" for a function,
// const or var and "dir.Type.Name" for a method, dir being the package's
// slash-separated directory under the module root. Whole packages that are
// test seams on purpose are in seamPackages instead.
var exportExemptions = map[string]string{
	"internal/telemetry.NewRegistry": "the test-isolation seam: every package's tests build a private registry with it",
}

// seamPackages are packages that exist to be called by tests: the fault
// injector and the shard-count harness.
var seamPackages = map[string]bool{
	"internal/fault":     true,
	"internal/planetest": true,
}

// TestShippedExportsHaveShippedCallers holds every exported function, method
// and package-level const and var in internal/ and cmd/ to a use in a
// non-test file of another package: code only tests call belongs in the tests, and code only its own
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

// TestExportCheckFlagsTestOnlyCallers runs the check over a fixture module:
// it flags a function only a test calls, methods that only share a name
// with a called method or a selected field and a const no other package
// reads, and passes a method called through an interface or on an
// atomic.Pointer's Load and a var another package reads.
func TestExportCheckFlagsTestOnlyCallers(t *testing.T) {
	missing, err := exportsWithoutCallers(filepath.Join("testdata", "exports"), "fixture", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/a.Histogram.Reset", "internal/a.OnlyTested", "internal/a.Table.Bytes", "internal/a.Unread"}
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

// exportsWithoutCallers type-checks every non-test Go file under root that
// the build context matches, module being the import path of root, and
// returns the exported functions, methods and package-level consts and vars
// declared in internal/ or cmd/ that no non-test file of another package
// uses, sorted. A name is used where go/types resolves an identifier of
// another package to it; a method also where its receiver type implements an interface that
// declares it: one declared under root, error, or fmt.Stringer.
func exportsWithoutCallers(root, module string, exempt map[string]string) ([]string, error) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path -> non-test files
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		pkgPath := strings.TrimSuffix(module+"/"+filepath.ToSlash(rel), "/.")
		files[pkgPath] = append(files[pkgPath], f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	std := importer.ForCompiler(fset, "gc", nil)
	pkgs := map[string]*types.Package{}
	called := map[types.Object]bool{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if p, ok := pkgs[path]; ok {
			return p, nil
		}
		if _, ok := files[path]; !ok {
			return std.Import(path)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		p, err := (&types.Config{Importer: imp}).Check(path, fset, files[path], info)
		if err != nil {
			return nil, err
		}
		pkgs[path] = p
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if obj.Pkg() != p {
				called[obj] = true
			}
		}
		return p, nil
	}
	for path := range files {
		if _, err := imp(path); err != nil {
			return nil, err
		}
	}
	fmtPkg, err := imp("fmt")
	if err != nil {
		return nil, err
	}
	ifaces := []*types.Interface{
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
		fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface),
	}
	for _, p := range pkgs {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	implemented := func(m *types.Func, t types.Type) bool {
		for _, it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, m.Name()); obj != nil &&
				(types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
		return false
	}
	var missing []string
	flag := func(key string) {
		if _, ok := exempt[key]; !ok {
			missing = append(missing, key)
		}
	}
	for path, p := range pkgs {
		dir := strings.TrimPrefix(path, module+"/")
		if !(strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")) || seamPackages[dir] {
			continue
		}
		for _, name := range p.Scope().Names() {
			switch obj := p.Scope().Lookup(name).(type) {
			case *types.Func, *types.Const, *types.Var:
				if obj.Exported() && !called[obj] {
					flag(dir + "." + name)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !obj.Exported() || !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !called[m] && !implemented(m, named) {
						flag(dir + "." + name + "." + m.Name())
					}
				}
			}
		}
	}
	sort.Strings(missing)
	return missing, nil
}

// importerFunc is a types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
