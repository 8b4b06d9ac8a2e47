package conferr

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// reachAllowlist names the exported functions and methods in internal/
// and the root package that no program code reaches but that stay, each
// with its reason. A key is the package path, then the receiver type
// for a method, then the name. The root package's public surface is
// listed in README's "Public API" section.
var reachAllowlist = map[string]string{
	// The net/http oracles probe_contract_test.go compares the
	// hand-rolled probes against.
	"conferr/internal/suts/nginx.ReferenceTests": "oracle for the fast probes",
	"conferr/internal/suts/httpd.ReferenceTests": "oracle for the fast probes",
	// Public surface: the only route to the paper's §2.2
	// borrowed-directive generator.
	"conferr.BorrowGenerator": "public surface: §2.2 generator",
	// Tree navigation, comparison and failure dumps that the tests of
	// the view, format, plugin, template and engine packages share.
	"conferr/internal/confnode.Node.ChildByName": "shared test helper",
	"conferr/internal/confnode.Node.CountKind":   "shared test helper",
	"conferr/internal/confnode.Node.Dump":        "shared test helper",
	"conferr/internal/confnode.Node.Equal":       "shared test helper",
	"conferr/internal/confnode.Set.Dump":         "shared test helper",
	"conferr/internal/confnode.Set.Equal":        "shared test helper",
	// Groups a faultload by class for the plugin packages' tests.
	"conferr/internal/scenario.ByClass": "shared test helper",
}

// packageAllowlist names the internal packages that neither the root
// package, a command nor an example imports.
var packageAllowlist = map[string]string{
	"conferr/internal/benchfixture": "test support for the benchmarks",
}

const modulePath = "conferr"

// module is every package of this module and of bench/ (its own module,
// which names this one by a replace directive), type-checked from their
// non-test files; bench/ is loaded with its tests.
type module struct {
	fset *token.FileSet
	root string
	std  types.ImporterFrom
	pkgs map[string]*modPackage
}

type modPackage struct {
	path  string
	types *types.Package
	info  *types.Info
	files []*ast.File
}

func (m *module) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, m.root, 0)
}

func (m *module) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return m.std.ImportFrom(path, dir, mode)
	}
	p, err := m.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (m *module) load(path string) (*modPackage, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(m.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	names := bp.GoFiles
	if path == modulePath+"/bench" {
		names = append(slices.Clone(names), bp.TestGoFiles...)
	}
	p := &modPackage{path: path, info: &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}}
	for _, name := range names {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: m}
	if p.types, err = conf.Check(path, m.fset, p.files, p.info); err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p, nil
}

// loadModule type-checks every package directory under root.
func loadModule(t *testing.T, root string) *module {
	fset := token.NewFileSet()
	m := &module{
		fset: fset,
		root: root,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*modPackage{},
	}
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if n := d.Name(); p != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(p, 0)
		if err != nil || len(bp.GoFiles) == 0 {
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		path := modulePath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		_, err = m.load(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// guarded reports whether the guard covers path's exported functions:
// the root package and everything under internal/ but the allowlisted
// packages, whose exports are test support.
func guarded(path string) bool {
	_, allowed := packageAllowlist[path]
	return !allowed && (path == modulePath || strings.HasPrefix(path, modulePath+"/internal/"))
}

// funcKey names fn as the allowlists do.
func funcKey(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		return fn.Pkg().Path() + "." + t.(*types.Named).Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// unreachedFuncs returns, sorted, the keys of the exported functions and
// methods in guarded packages that no program code reaches. Reaching
// is a fixed point from the roots: every main, init and package-level
// variable initializer, everything in bench/, and every method that
// satisfies an interface. A function whose only callers are unreached
// is unreached.
func unreachedFuncs(m *module) []string {
	type decl struct {
		pkg  *modPackage
		body *ast.FuncDecl
	}
	decls := map[*types.Func]decl{}
	var work []*types.Func
	reached := map[*types.Func]bool{}
	reach := func(fn *types.Func) {
		fn = fn.Origin()
		if _, ok := decls[fn]; ok && !reached[fn] {
			reached[fn] = true
			work = append(work, fn)
		}
	}
	refsIn := func(p *modPackage, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := p.info.Uses[id].(*types.Func); ok {
					reach(fn)
				}
			}
			return true
		})
	}
	// roots are the bodies and initializers the program runs
	// unconditionally: main, init, package-level variables and bench/.
	type root struct {
		pkg  *modPackage
		node ast.Node
	}
	var roots []root
	var named []*types.Named
	for _, p := range m.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					decls[p.info.Defs[d.Name].(*types.Func)] = decl{p, d}
					entry := d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.types.Name() == "main")
					if d.Body != nil && (entry || p.path == modulePath+"/bench") {
						roots = append(roots, root{p, d.Body})
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						roots = append(roots, root{p, d})
					}
				}
			}
		}
		for _, name := range p.types.Scope().Names() {
			if tn, ok := p.types.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
	}
	for _, r := range roots {
		refsIn(r.pkg, r.node)
	}
	ifaces := interfacesOf(m)
	for _, n := range named {
		mset := types.NewMethodSet(types.NewPointer(n))
		for _, iface := range ifaces {
			if iface.NumMethods() == 0 || mset.Lookup(iface.Method(0).Pkg(), iface.Method(0).Name()) == nil {
				continue
			}
			if !types.Implements(types.NewPointer(n), iface) {
				continue
			}
			for i := range iface.NumMethods() {
				im := iface.Method(i)
				reach(mset.Lookup(im.Pkg(), im.Name()).Obj().(*types.Func))
			}
		}
	}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		if d := decls[fn]; d.body.Body != nil {
			refsIn(d.pkg, d.body.Body)
		}
	}
	var out []string
	for fn := range decls {
		if fn.Exported() && guarded(fn.Pkg().Path()) && !reached[fn] {
			out = append(out, funcKey(fn))
		}
	}
	slices.Sort(out)
	return out
}

// interfacesOf returns every interface type the module's packages and
// their imports declare or spell out.
func interfacesOf(m *module) []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					out = append(out, it)
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	out = append(out, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, p := range m.pkgs {
		walk(p.types)
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				out = append(out, it)
			}
		}
	}
	return out
}

// unreachedPackages returns, sorted, the internal packages that no
// non-test file of the root package, a command or an example imports,
// directly or not.
func unreachedPackages(m *module) []string {
	seen := map[string]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p.Path()] {
			return
		}
		seen[p.Path()] = true
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for path, p := range m.pkgs {
		if path == modulePath || strings.HasPrefix(path, modulePath+"/cmd/") || strings.HasPrefix(path, modulePath+"/examples/") {
			walk(p.types)
		}
	}
	var out []string
	for path := range m.pkgs {
		if strings.HasPrefix(path, modulePath+"/internal/") && !seen[path] {
			out = append(out, path)
		}
	}
	slices.Sort(out)
	return out
}

// checkAllowlist fails t for every found name not on allow, and for
// every allowlisted name that is no longer found.
func checkAllowlist(t *testing.T, what string, found []string, allow map[string]string) {
	t.Helper()
	var extra []string
	for _, k := range found {
		if _, ok := allow[k]; !ok {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		t.Errorf("%s nothing in the program reaches:\n\t%s", what, strings.Join(extra, "\n\t"))
	}
	for k := range allow {
		if !slices.Contains(found, k) {
			t.Errorf("allowlisted %s %s is reached or gone; drop it from the allowlist", what, k)
		}
	}
}

// TestNothingOnlyTestsReach holds the program to the code it runs: no
// internal package goes unimported, and no exported function or method
// in internal/ or the root package is reached only by tests.
func TestNothingOnlyTestsReach(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	m := loadModule(t, root)
	checkAllowlist(t, "packages", unreachedPackages(m), packageAllowlist)
	checkAllowlist(t, "functions", unreachedFuncs(m), reachAllowlist)
}
