package verifai

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

// testOnlyExportAllowlist names the internal/ exports that only tests use
// and that stay on purpose, each with its reason.
var testOnlyExportAllowlist = map[string]string{
	// The fault-injection hooks of the crash-consistency suite.
	"internal/faultfs.New":              "builds the injecting filesystem",
	"internal/faultfs.Faulty.CrashAt":   "arms a crash at the n-th operation",
	"internal/faultfs.Faulty.Crashed":   "reports whether the armed crash fired",
	"internal/faultfs.Faulty.Ops":       "counts operations, to place a crash",
	"internal/faultfs.Faulty.SetFailOn": "fails chosen operations",
	// References and records the tests hold.
	"internal/cdc.NewSSEDecoder":                  "the reference decoder the SSE change stream is tested against",
	"internal/experiments.Env.AblateQuantization": "holds the int8 recall bar until the float index retires",
	"internal/experiments.QuantizationPoint":      "AblateQuantization's result",
	"internal/vecindex.NewFlat":                   "the exact index of the int8 recall bar and the CI raw-speed record",
	// Values cross-package tests need that no production reading gives.
	"internal/invindex.Index.Tombstones": "core's entity test counts the tombstones a batch leaves",
	"internal/embed.Embedder.TableBytes": "the root off-heap test checks the whole token table is mapped; the ledger reads only the mapped part",
	"internal/datalake.Snapshot.View":    "root tests read a pin's catalog; production reads it through core's unexported payload",
	"internal/core.FrozenIndexes.BM25":   "the root golden hashes the table kind's segment, which no checkpoint writes",
}

// stdlibMethods are method names standard-library interfaces call, so a
// method by such a name is used even where no call in the module names it.
var stdlibMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "Is": true, "Format": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ReadAt": true, "WriteTo": true,
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
}

// TestNoTestOnlyExports fails when an exported top-level func, method,
// type, var or const under internal/ is used by no non-test Go file of the
// repository other than its own declaration. cmd/, examples/, bench/ and
// the root package count as uses; a use inside another test-only export
// does not. A method counts as used when any non-test file names it.
func TestNoTestOnlyExports(t *testing.T) {
	decls := parseDecls(t, ".")
	flagged := make(map[*declInfo]bool)
	for {
		used := make(map[string]bool)   // "dir.Name" of top-level idents
		member := make(map[string]bool) // method and field names
		for _, d := range decls {
			if flagged[d] {
				continue
			}
			for _, r := range d.refs {
				if r.self(d) {
					continue
				}
				if r.dir == "" {
					member[r.name] = true
				} else {
					used[r.dir+"."+r.name] = true
				}
			}
		}
		grew := false
		for _, d := range decls {
			if !d.export || flagged[d] {
				continue
			}
			live := used[d.dir+"."+d.name]
			if d.recv != "" {
				live = member[d.name] || stdlibMethods[d.name]
			}
			if !live {
				flagged[d] = true
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	seen := make(map[string]bool)
	var bad []string
	for d := range flagged {
		seen[d.key()] = true
		if _, ok := testOnlyExportAllowlist[d.key()]; !ok {
			bad = append(bad, d.key()+" ("+d.pos+")")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s is exported, but only tests use it: move it into its package's _test.go, or delete it", b)
	}
	for key := range testOnlyExportAllowlist {
		if !seen[key] {
			t.Errorf("allowlist entry %s names no test-only export: drop the entry", key)
		}
	}
}

// declInfo is one top-level declaration of a non-test file and the
// identifiers it refers to.
type declInfo struct {
	dir    string // package directory, slash-separated ("." for the root)
	name   string
	recv   string // receiver type name of a method
	export bool   // an exported identifier under internal/
	pos    string
	refs   []declRef
}

func (d *declInfo) key() string {
	if d.recv != "" {
		return d.dir + "." + d.recv + "." + d.name
	}
	return d.dir + "." + d.name
}

// declRef is a use of a package-level identifier of package dir, or, when
// dir is "", of a method or field by that name.
type declRef struct{ dir, name string }

func (r declRef) self(d *declInfo) bool {
	if d.recv != "" {
		return r.dir == "" && r.name == d.name
	}
	return r.dir == d.dir && r.name == d.name
}

// parseDecls reads every non-test Go file under root, skipping hidden
// directories and testdata.
func parseDecls(t *testing.T, root string) []*declInfo {
	t.Helper()
	fset := token.NewFileSet()
	type parsed struct {
		dir  string
		file *ast.File
	}
	var files []parsed
	pkgName := make(map[string]string) // dir -> package name
	err := filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if p != root && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
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
		dir := filepath.ToSlash(filepath.Dir(p))
		files = append(files, parsed{dir, f})
		pkgName[dir] = f.Name.Name
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var decls []*declInfo
	for _, pf := range files {
		imports := make(map[string]string) // local name -> package dir
		for _, spec := range pf.file.Imports {
			ip, _ := strconv.Unquote(spec.Path.Value)
			dir, ok := moduleDir(ip)
			if !ok {
				continue
			}
			name := pkgName[dir]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = dir
		}
		internal := strings.HasPrefix(pf.dir, "internal/")
		add := func(name, recv string, pos token.Pos, nodes ...ast.Node) {
			d := &declInfo{
				dir: pf.dir, name: name, recv: recv,
				export: internal && ast.IsExported(name),
				pos:    fset.Position(pos).String(),
			}
			for _, n := range nodes {
				d.refs = collectRefs(d.refs, n, pf.dir, imports)
			}
			decls = append(decls, d)
		}
		for _, decl := range pf.file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				recv, nodes := "", []ast.Node{decl.Type}
				if decl.Recv != nil {
					recv = recvName(decl.Recv.List[0].Type)
					nodes = append(nodes, decl.Recv)
				}
				if decl.Body != nil {
					nodes = append(nodes, decl.Body)
				}
				add(decl.Name.Name, recv, decl.Pos(), nodes...)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						nodes := []ast.Node{spec.Type}
						if spec.TypeParams != nil {
							nodes = append(nodes, spec.TypeParams)
						}
						add(spec.Name.Name, "", spec.Pos(), nodes...)
					case *ast.ValueSpec:
						var nodes []ast.Node
						if spec.Type != nil {
							nodes = append(nodes, spec.Type)
						}
						for _, v := range spec.Values {
							nodes = append(nodes, v)
						}
						for _, n := range spec.Names {
							add(n.Name, "", n.Pos(), nodes...)
						}
					}
				}
			}
		}
	}
	return decls
}

// moduleDir maps an import path of this module (or of the bench module)
// to its directory.
func moduleDir(importPath string) (string, bool) {
	if importPath == "repro" {
		return ".", true
	}
	rest, ok := strings.CutPrefix(importPath, "repro/")
	return path.Clean(rest), ok
}

// recvName is a method receiver's type name, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// collectRefs appends the identifiers n refers to: a package-qualified
// selector names the imported package's identifier, any other selector a
// member, and a bare identifier one of the file's own package. Declared
// names — fields, methods of an interface, parameters, results — are
// skipped.
func collectRefs(refs []declRef, n ast.Node, dir string, imports map[string]string) []declRef {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if pkg, ok := imports[id.Name]; ok {
					refs = append(refs, declRef{pkg, x.Sel.Name})
					return false
				}
			}
			refs = append(refs, declRef{"", x.Sel.Name})
			refs = collectRefs(refs, x.X, dir, imports)
			return false
		case *ast.Field:
			refs = collectRefs(refs, x.Type, dir, imports)
			return false
		case *ast.Ident:
			refs = append(refs, declRef{dir, x.Name})
		}
		return true
	})
	return refs
}
