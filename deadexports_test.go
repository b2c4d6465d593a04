package gridpipe_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadExportAllowlist names the exported declarations under internal/
// that may stay without a caller outside _test.go files because a
// roadmap item is about to give them one. Keys are "pkg.Name" for
// package-level names and "pkg.Type.Method" for methods, pkg being the
// directory under internal/. An entry that gains a caller or no longer
// exists fails TestNoDeadExports, so the list can only shrink; it may
// never hold more than maxAllowlisted entries.
var deadExportAllowlist = map[string]string{}

const maxAllowlisted = 10

// testOnlyExports names the exported declarations that only tests
// call, with the tests that call them (ROADMAP item 8(e)): observers
// through which tests read live state. The same rules as
// deadExportAllowlist keep this list shrinking.
var testOnlyExports = map[string]string{
	// Read by tests to assert on live state.
	"exec.Executor.InFlight":  "bench.TestChurnRunLedger and the exec conservation tests",
	"exec.NodeShares.Serving": "cluster.TestClusterStateFollowsRunningTenants",
	"sim.Event.Cancelled":     "the handle-generation tests (pool_test.go, reset_test.go)",
	"sim.Event.Pending":       "the handle-generation tests (pool_test.go, reset_test.go)",
	"stats.Table.NumRows":     "the experiment-table tests in internal/bench",
	"stats.Table.Row":         "the experiment-table tests in internal/bench",
}

// modulePath is the import path of the repository root.
const modulePath = "gridpipe"

// exportDecl is an exported package-level name or method.
type exportDecl struct {
	key  string // "pkg.Name" or "pkg.Type.Method", pkg relative to internal/ (none at the root)
	pos  token.Position
	node ast.Node // the declaring FuncDecl or spec
	name string
	recv string // receiver type name; empty for package-level names
	dir  string // slash path relative to the module root; "." for the root
}

// use is one place a non-test file names something.
type use struct {
	dir   string
	owner ast.Node // the top-level declaration (or spec) it sits in
}

// moduleIndex is what the checker reads off the parse: the exported
// declarations, and every use of a name in a non-test file.
type moduleIndex struct {
	fset     *token.FileSet
	files    map[string]*ast.File // slash path relative to the module root → parse
	decls    []exportDecl
	iface    map[string]bool             // method names some interface declares
	selected map[string][]use            // x.Name with x not a package
	bare     map[string]map[string][]use // dir → Name → unqualified uses
	qual     map[string]map[string][]use // import path → Name → pkg.Name uses
}

// parseModule parses every non-test .go file of the module (build
// tags ignored: a name a tagged file uses is used) and indexes it.
// Parse only, no type checking: it must stay cheap enough for tier-1.
func parseModule(t *testing.T) *moduleIndex {
	t.Helper()
	ix := &moduleIndex{
		fset:     token.NewFileSet(),
		files:    map[string]*ast.File{},
		iface:    map[string]bool{"String": true, "Error": true, "MarshalJSON": true},
		selected: map[string][]use{},
		bare:     map[string]map[string][]use{},
		qual:     map[string]map[string][]use{},
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(ix.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ix.files[filepath.ToSlash(p)] = f
		ix.index(filepath.ToSlash(filepath.Dir(p)), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// index records one file's exported declarations and its uses.
func (ix *moduleIndex) index(dir string, f *ast.File) {
	imports := map[string]string{} // local name → import path
	for _, is := range f.Imports {
		p, _ := strconv.Unquote(is.Path.Value)
		local := path.Base(p)
		if is.Name != nil {
			local = is.Name.Name
		}
		imports[local] = p
	}
	prefix := strings.TrimPrefix(dir, "internal/") + "."
	if dir == "." {
		prefix = ""
	}
	add := func(name, recv string, node ast.Node, pos token.Pos) {
		key := prefix + name
		if recv != "" {
			key = prefix + recv + "." + name
		}
		ix.decls = append(ix.decls, exportDecl{key: key, pos: ix.fset.Position(pos),
			node: node, name: name, recv: recv, dir: dir})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() {
				recv := ""
				if d.Recv != nil {
					recv = recvName(d.Recv.List[0].Type)
				}
				add(d.Name.Name, recv, d, d.Pos())
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						add(s.Name.Name, "", s, s.Pos())
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							add(n.Name, "", s, n.Pos())
						}
					}
				}
			}
		}
		ix.uses(dir, d, imports)
	}
}

// uses walks one top-level declaration and files every name it uses
// under that declaration, so a name's own body never counts as its
// caller.
func (ix *moduleIndex) uses(dir string, decl ast.Decl, imports map[string]string) {
	bare := ix.bare[dir]
	if bare == nil {
		bare = map[string][]use{}
		ix.bare[dir] = bare
	}
	// Each spec of a var, const or type declaration owns its uses.
	u := use{dir: dir, owner: decl}
	isSpec := map[ast.Node]bool{}
	if gd, ok := decl.(*ast.GenDecl); ok {
		for _, s := range gd.Specs {
			isSpec[s] = true
		}
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if isSpec[n] {
			u.owner = n
		}
		switch n := n.(type) {
		case *ast.ImportSpec:
			return false
		case *ast.FuncDecl:
			// The declared name is not a use.
			if n.Recv != nil {
				ast.Inspect(n.Recv, visit)
			}
			ast.Inspect(n.Type, visit)
			if n.Body != nil {
				ast.Inspect(n.Body, visit)
			}
			return false
		case *ast.TypeSpec:
			if n.TypeParams != nil {
				ast.Inspect(n.TypeParams, visit)
			}
			ast.Inspect(n.Type, visit)
			return false
		case *ast.ValueSpec:
			if n.Type != nil {
				ast.Inspect(n.Type, visit)
			}
			for _, v := range n.Values {
				ast.Inspect(v, visit)
			}
			return false
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				for _, name := range m.Names {
					ix.iface[name.Name] = true
				}
			}
		case *ast.Field:
			// Field, parameter and interface-method names are
			// declarations, not uses.
			ast.Inspect(n.Type, visit)
			return false
		case *ast.CompositeLit:
			// Outside a map literal a bare key is a field name.
			if _, isMap := n.Type.(*ast.MapType); !isMap {
				if n.Type != nil {
					ast.Inspect(n.Type, visit)
				}
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if _, ok := kv.Key.(*ast.Ident); ok {
							e = kv.Value
						}
					}
					ast.Inspect(e, visit)
				}
				return false
			}
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok {
				if p, ok := imports[id.Name]; ok {
					if ix.qual[p] == nil {
						ix.qual[p] = map[string][]use{}
					}
					ix.qual[p][n.Sel.Name] = append(ix.qual[p][n.Sel.Name], u)
					return false
				}
			}
			ix.selected[n.Sel.Name] = append(ix.selected[n.Sel.Name], u)
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			bare[n.Name] = append(bare[n.Name], u)
		}
		return true
	}
	ast.Inspect(decl, visit)
}

// recvName strips pointers and type parameters off a receiver type.
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// usedFrom reports whether a file in a directory from accepts names e
// outside e's own declaration (a type's methods belong to it). A
// method counts as used wherever .Name is selected or an interface
// declares the name.
func (ix *moduleIndex) usedFrom(e exportDecl, from func(dir string) bool) bool {
	found := func(us []use) bool {
		for _, u := range us {
			if fd, ok := u.owner.(*ast.FuncDecl); ok && fd.Recv != nil && e.recv == "" &&
				recvName(fd.Recv.List[0].Type) == e.name {
				continue
			}
			if u.owner != e.node && from(u.dir) {
				return true
			}
		}
		return false
	}
	if e.recv != "" {
		return ix.iface[e.name] || found(ix.selected[e.name])
	}
	return found(ix.qual[importPath(e.dir)][e.name]) || found(ix.bare[e.dir][e.name])
}

func importPath(dir string) string {
	if dir == "." {
		return modulePath
	}
	return modulePath + "/" + dir
}

// TestNoDeadExports fails on an exported name under internal/ that no
// non-test file refers to. Every package but the root is internal, so
// such a name is not API: it is code the system does not need. A
// package-level name counts as referenced when another declaration
// names it (pkg.Name through the import, or bare inside its package);
// a method when any file selects .Name or an interface declares the
// name. Struct fields are not checked.
func TestNoDeadExports(t *testing.T) {
	if len(deadExportAllowlist) > maxAllowlisted {
		t.Errorf("deadExportAllowlist holds %d names, at most %d allowed", len(deadExportAllowlist), maxAllowlisted)
	}
	lists := map[string]map[string]string{
		"deadExportAllowlist": deadExportAllowlist,
		"testOnlyExports":     testOnlyExports,
	}
	listOf := func(key string) string {
		for name, l := range lists {
			if _, ok := l[key]; ok {
				return name
			}
		}
		return ""
	}
	anywhere := func(string) bool { return true }
	ix := parseModule(t)
	seen := map[string]bool{}
	var dead []string
	for _, e := range ix.decls {
		if !strings.HasPrefix(e.dir, "internal/") {
			continue
		}
		seen[e.key] = true
		list := listOf(e.key)
		switch used := ix.usedFrom(e, anywhere); {
		case !used && list == "":
			dead = append(dead, e.pos.String()+": "+e.key)
		case used && list != "":
			t.Errorf("%s now has a caller: drop it from %s", e.key, list)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside _test.go files: delete it, or unexport it if its package uses it", d)
	}
	for name, l := range lists {
		for key := range l {
			if !seen[key] {
				t.Errorf("%s no longer exists: drop it from %s", key, name)
			}
		}
	}
}

// maxUnusedRootExports is how many root exports TestRootExportsReport
// lets examples/, cmd/ and benchmark/ leave unused. Lower it whenever
// the count falls; never raise it.
const maxUnusedRootExports = 31

// TestRootExportsReport lists the root package's exported names that
// examples/, cmd/ and benchmark/ never use. The root package is the
// public API, so an unused export is not yet an error, but their count
// is a ratchet: it may fall, and may not rise above
// maxUnusedRootExports.
func TestRootExportsReport(t *testing.T) {
	consumer := func(dir string) bool {
		for _, p := range []string{"examples", "cmd", "benchmark"} {
			if dir == p || strings.HasPrefix(dir, p+"/") {
				return true
			}
		}
		return false
	}
	ix := parseModule(t)
	var unused []string
	for _, e := range ix.decls {
		if e.dir == "." && !ix.usedFrom(e, consumer) {
			unused = append(unused, e.key)
		}
	}
	sort.Strings(unused)
	list := strings.Join(unused, " ")
	switch n := len(unused); {
	case n > maxUnusedRootExports:
		t.Errorf("%d root exports unused by examples/, cmd/ and benchmark/, over the ratchet of %d: %s\n  use the new export from a consumer or delete it",
			n, maxUnusedRootExports, list)
	case n < maxUnusedRootExports:
		t.Logf("%d root exports unused by examples/, cmd/ and benchmark/, under the ratchet of %d: lower maxUnusedRootExports to %d: %s",
			n, maxUnusedRootExports, n, list)
	default:
		t.Logf("%d root exports unused by examples/, cmd/ and benchmark/: %s", n, list)
	}
}
