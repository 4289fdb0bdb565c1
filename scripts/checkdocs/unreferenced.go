package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// unreferencedAllow lists exported internal identifiers that may stay
// without a non-test use, as "importpath.Name" with the reason.
var unreferencedAllow = map[string]string{
	"dpmg/internal/cluster.DecodeSummaryPayload": "benchmark/gen_test.go decodes shipped payloads with it",
	"dpmg/internal/core.TotalErrorBound":         "the accuracy scoreboard of ROADMAP item 10 reads it",
	"dpmg/internal/mg/mgref.NewRef":              "mgref is the test-only reference Algorithm 1; only tests import it",
	"dpmg/internal/noise.GaussianTail":           "ROADMAP item 4 deletes it with the certified calibration",
	"dpmg/internal/noise.NewSecureSource":        "ROADMAP item 7 deletes SecureSource with the mechanism registry",
}

// declID is one package-level exported declaration under internal/.
type declID struct{ pkg, name string }

// checkUnreferenced fails on every exported package-level func, type, var
// or const under internal/ that no non-test file in the module names
// outside its own declaration: a qualified pkg.Name from another package,
// or an unqualified Name elsewhere in its own package. Methods are out of
// scope. It returns one line per finding.
func checkUnreferenced(root string) ([]string, error) {
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	type file struct {
		pkg string // import path
		f   *ast.File
	}
	var files []file
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		files = append(files, file{pkg: path.Join(module, filepath.ToSlash(rel)), f: f})
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Declarations, each with the span its own uses are ignored in.
	type span struct{ from, to token.Pos }
	decls := map[declID]span{}
	internal := module + "/internal/"
	for _, fl := range files {
		if !strings.HasPrefix(fl.pkg+"/", internal) {
			continue
		}
		for _, decl := range fl.f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					decls[declID{fl.pkg, d.Name.Name}] = span{d.Pos(), d.End()}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decls[declID{fl.pkg, s.Name.Name}] = span{s.Pos(), s.End()}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								decls[declID{fl.pkg, n.Name}] = span{s.Pos(), s.End()}
							}
						}
					}
				}
			}
		}
	}

	used := map[declID]bool{}
	use := func(id declID, at token.Pos) {
		if sp, ok := decls[id]; ok && (at < sp.from || at >= sp.to) {
			used[id] = true
		}
	}
	for _, fl := range files {
		imports := map[string]string{} // local name -> import path
		for _, im := range fl.f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			local := path.Base(p)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = p
		}
		skip := map[*ast.Ident]bool{} // idents that name something else
		ast.Inspect(fl.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						use(declID{p, n.Sel.Name}, n.Pos())
						skip[x] = true
					}
				}
			case *ast.FuncDecl:
				skip[n.Name] = true
				if n.Recv != nil {
					// A receiver names its type only to attach a method.
					ast.Inspect(n.Recv, func(r ast.Node) bool {
						if id, ok := r.(*ast.Ident); ok {
							skip[id] = true
						}
						return true
					})
				}
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					skip[id] = true // usually a struct field name
				}
			case *ast.Ident:
				if !skip[n] {
					use(declID{fl.pkg, n.Name}, n.Pos())
				}
			}
			return true
		})
	}

	var fails []string
	for id, sp := range decls {
		key := id.pkg + "." + id.name
		if used[id] {
			if _, ok := unreferencedAllow[key]; ok {
				fails = append(fails, fmt.Sprintf("%s: allowlisted but used; drop it from the allowlist", key))
			}
			continue
		}
		if _, ok := unreferencedAllow[key]; ok {
			continue
		}
		p := fset.Position(sp.from)
		fails = append(fails, fmt.Sprintf("%s:%d: exported %s is named by no non-test file (delete it, or move it into a _test.go file)", p.Filename, p.Line, key))
	}
	return fails, nil
}

// modulePath reads the module path from root's go.mod.
func modulePath(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(b)
	if m == nil {
		return "", fmt.Errorf("%s: no module line", filepath.Join(root, "go.mod"))
	}
	return string(m[1]), nil
}
