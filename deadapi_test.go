package aapm

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadAPIAllow names the exported internal identifiers that no non-test
// code uses but that stay, each with its reason. An entry is either
// test support shared across packages or a named value of a type that
// callers use.
var deadAPIAllow = map[string]string{
	"cache.StreamPrefetcher.AppendState":   "cross-package test support: kernel and mloops tests compare prefetcher state",
	"cache.StreamPrefetcher.AppendSlots":   "cross-package test support: kernel and mloops tests compare prefetcher slots",
	"kernel.Hierarchy.PrefetchMemAccesses": "cross-package test support: kernel and mloops tests check the prefetch share of DRAM accesses",
	"kernel.Profile.Accesses":              "cross-package test support: kernel and mloops tests read a profile's access count",
	"cluster.NodeAuto":                     "the named zero value of NodeOverride, which intent tests compare against",
}

// TestNoDeadInternalAPI fails when an exported identifier under
// internal/ has no user outside tests. Commands, examples, the root
// facade and perfbench/ count as users.
func TestNoDeadInternalAPI(t *testing.T) {
	t.Parallel()
	problems, err := findDeadAPI(".", deadAPIAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestDeadAPIChecker runs the checker on a small tree whose dead
// identifiers are known.
func TestDeadAPIChecker(t *testing.T) {
	t.Parallel()
	got, err := findDeadAPI("testdata/deadapi", map[string]string{
		"lib.Stale": "a stale entry: lib.Stale has a caller",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/lib/lib.go:13 lib.Dead",
		"internal/lib/lib.go:16 lib.Orphan",
		"allowlist: lib.Stale is not dead",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// findDeadAPI type-checks every non-test package under root and
// reports, as "file:line pkg.Name", each exported identifier of a
// package under internal/ that no non-test file refers to and allow
// does not list, then each allow entry that is missing or not dead.
//
// Import paths are the module path in root/go.mod joined with the
// directory, so a nested module such as perfbench/ reads as a user.
// References inside a candidate's own declaration do not count, nor do
// a type's own methods. Exempt are methods through which their type
// satisfies an interface the program names (or error and fmt.Stringer),
// and methods of types reachable from the root package's exported
// declarations.
func findDeadAPI(root string, allow map[string]string) ([]string, error) {
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "testdata", ".git", ".bench_build":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := mod
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		files[ip] = append(files[ip], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	c := &deadAPIChecker{
		fset:  fset,
		files: files,
		pkgs:  map[string]*types.Package{},
		std:   importer.Default(),
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
	}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := c.Import(p); err != nil {
			return nil, err
		}
	}
	return c.report(root, mod, allow), nil
}

func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.TrimSpace(m), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

type deadAPIChecker struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	std   types.Importer
	info  *types.Info
}

// Import type-checks a package of the parsed tree on first use and
// hands any other path to the standard library importer.
func (c *deadAPIChecker) Import(path string) (*types.Package, error) {
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	files, ok := c.files[path]
	if !ok {
		return c.std.Import(path)
	}
	conf := types.Config{Importer: c}
	p, err := conf.Check(path, c.fset, files, c.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	c.pkgs[path] = p
	return p, nil
}

func (c *deadAPIChecker) report(root, mod string, allow map[string]string) []string {
	internal := mod + "/internal/"
	type candidate struct {
		obj  types.Object
		decl ast.Node // references inside it do not count
	}
	var cands []candidate
	byObj := map[types.Object]int{}
	methodsOf := map[*types.TypeName][]ast.Node{}
	for path, files := range c.files {
		if !strings.HasPrefix(path, internal) {
			continue
		}
		p := c.pkgs[path]
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, ok := c.info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					if d.Recv != nil {
						if tn := recvTypeName(fn); tn != nil {
							methodsOf[tn] = append(methodsOf[tn], d)
						}
					}
					if d.Name.IsExported() {
						byObj[fn] = len(cands)
						cands = append(cands, candidate{fn, d})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && !s.Assign.IsValid() {
								obj := p.Scope().Lookup(s.Name.Name)
								byObj[obj] = len(cands)
								cands = append(cands, candidate{obj, s})
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									obj := p.Scope().Lookup(n.Name)
									byObj[obj] = len(cands)
									cands = append(cands, candidate{obj, s})
								}
							}
						}
					}
				}
			}
		}
	}

	// Mark each candidate that some reference outside its own
	// declaration (and, for a type, outside its methods) uses.
	used := make([]bool, len(cands))
	for id, obj := range c.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin() // a method of an instantiated generic type
		}
		i, ok := byObj[obj]
		if !ok || used[i] {
			continue
		}
		if within(id, cands[i].decl) {
			continue
		}
		if tn, ok := obj.(*types.TypeName); ok && withinAny(id, methodsOf[tn]) {
			continue
		}
		used[i] = true
	}

	ifaces := c.namedInterfaces()
	public := c.publicMethods(mod)
	dead := map[string]types.Object{}
	for i, cd := range cands {
		if used[i] {
			continue
		}
		if fn, ok := cd.obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			if public[fn] || satisfiesInterface(fn, ifaces) {
				continue
			}
		}
		dead[qualifiedName(cd.obj)] = cd.obj
	}

	var out []string
	names := make([]string, 0, len(dead))
	for n := range dead {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		pi, pj := c.fset.Position(dead[names[i]].Pos()), c.fset.Position(dead[names[j]].Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Line < pj.Line
	})
	for _, n := range names {
		if _, ok := allow[n]; ok {
			continue
		}
		pos := c.fset.Position(dead[n].Pos())
		file, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			file = pos.Filename
		}
		out = append(out, fmt.Sprintf("%s:%d %s", filepath.ToSlash(file), pos.Line, n))
	}
	stale := make([]string, 0, len(allow))
	for n := range allow {
		if _, ok := dead[n]; !ok {
			stale = append(stale, n)
		}
	}
	sort.Strings(stale)
	for _, n := range stale {
		out = append(out, fmt.Sprintf("allowlist: %s is not dead", n))
	}
	return out
}

// namedInterfaces returns error, fmt.Stringer and every interface type
// that a package of the tree declares or refers to by name, or that a
// function it refers to takes as a parameter.
func (c *deadAPIChecker) namedInterfaces() []*types.Interface {
	seen := map[*types.Interface]bool{}
	var out []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && !it.Empty() && !seen[it] && !isGenericInterface(t) {
			seen[it] = true
			out = append(out, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	if fmtPkg, err := c.std.Import("fmt"); err == nil {
		add(fmtPkg.Scope().Lookup("Stringer").Type())
	}
	for _, obj := range c.info.Uses {
		switch obj := obj.(type) {
		case *types.TypeName:
			add(obj.Type())
		case *types.Func:
			sig := obj.Type().(*types.Signature)
			for i := 0; i < sig.Params().Len(); i++ {
				t := sig.Params().At(i).Type()
				if s, ok := t.(*types.Slice); ok && sig.Variadic() && i == sig.Params().Len()-1 {
					t = s.Elem()
				}
				add(t)
			}
		}
	}
	for _, p := range c.pkgs {
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	return out
}

func isGenericInterface(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.TypeParams().Len() > 0 && n.TypeArgs().Len() == 0
}

// satisfiesInterface reports whether fn is a method through which its
// receiver type (or a pointer to it) implements one of ifaces.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	tn := recvTypeName(fn)
	if tn == nil {
		return false
	}
	t := tn.Type()
	for _, it := range ifaces {
		if !types.Implements(t, it) && !types.Implements(types.NewPointer(t), it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() {
				return true
			}
		}
	}
	return false
}

// publicMethods returns the exported methods of every named type that
// the root package's exported declarations reach through aliases,
// signatures, exported struct fields and element types.
func (c *deadAPIChecker) publicMethods(mod string) map[*types.Func]bool {
	out := map[*types.Func]bool{}
	facade := c.pkgs[mod]
	if facade == nil {
		return out
	}
	seen := map[types.Type]bool{}
	var visit func(t types.Type)
	visit = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			visit(types.Unalias(t))
		case *types.Named:
			for i := 0; i < t.NumMethods(); i++ {
				m := t.Method(i)
				if m.Exported() {
					out[m] = true
					visit(m.Type())
				}
			}
			visit(t.Underlying())
		case *types.Pointer:
			visit(t.Elem())
		case *types.Slice:
			visit(t.Elem())
		case *types.Array:
			visit(t.Elem())
		case *types.Chan:
			visit(t.Elem())
		case *types.Map:
			visit(t.Key())
			visit(t.Elem())
		case *types.Signature:
			visit(t.Params())
			visit(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				visit(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() {
					visit(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				visit(t.Method(i).Type())
			}
		}
	}
	for _, n := range facade.Scope().Names() {
		if obj := facade.Scope().Lookup(n); obj.Exported() {
			visit(obj.Type())
		}
	}
	return out
}

func recvTypeName(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

func qualifiedName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if tn := recvTypeName(fn); tn != nil {
			return obj.Pkg().Name() + "." + tn.Name() + "." + fn.Name()
		}
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

func within(n, outer ast.Node) bool {
	return outer.Pos() <= n.Pos() && n.End() <= outer.End()
}

func withinAny(n ast.Node, outers []ast.Node) bool {
	for _, o := range outers {
		if within(n, o) {
			return true
		}
	}
	return false
}
