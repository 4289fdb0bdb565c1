// Command checkdocs is the repository's documentation gate. It runs two
// passes, with no dependency beyond the standard library (the CI image may
// not have network access to install linters, and the gate must also run
// locally):
//
//   - it fails when an exported identifier in a gated package lacks a doc
//     comment, in the spirit of staticcheck's ST1000/ST1020/ST1021;
//
//   - it fails when an exported package-level func, type, var or const
//     under internal/ is named by no non-test file in the module other
//     than its own declaration (see checkUnreferenced), so internal API
//     that only tests call cannot accumulate.
//
//     go run ./scripts/checkdocs [-root <module dir>] [pkgdir ...]
//
// With no package directories, the default gate set is checked: the root
// dpmg package, every command under cmd/, and the internal packages that
// carry documented invariants. Test files (_test.go) are exempt from the
// first pass and are not uses in the second.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// defaultGate is the package set checked when no arguments are given.
var defaultGate = []string{
	".",
	"cmd/dpmg",
	"cmd/dpmg-server",
	"cmd/dpmg-gen",
	"cmd/dpmg-audit",
	"cmd/dpmg-bench",
	"cmd/dpmg-scenario",
	"internal/accountant",
	"internal/audit",
	"internal/baseline",
	"internal/cluster",
	"internal/continual",
	"internal/durable",
	"internal/core",
	"internal/encoding",
	"internal/framing",
	"internal/gshm",
	"internal/hist",
	"internal/merge",
	"internal/mg",
	"internal/noise",
	"internal/pamg",
	"internal/qos",
	"internal/registry",
	"internal/scenario",
	"internal/stream",
	"internal/workload",
}

func main() {
	root := flag.String("root", ".", "module root the package dirs are relative to")
	flag.Parse()
	dirs := flag.Args()
	if len(dirs) == 0 {
		dirs = defaultGate
	}
	var failures []string
	for _, dir := range dirs {
		fails, err := checkPackage(filepath.Join(*root, dir))
		if err != nil {
			fmt.Fprintf(os.Stderr, "checkdocs: %s: %v\n", dir, err)
			os.Exit(2)
		}
		failures = append(failures, fails...)
	}
	if len(failures) > 0 {
		sort.Strings(failures)
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, f)
		}
		fmt.Fprintf(os.Stderr, "checkdocs: %d exported identifier(s) missing doc comments\n", len(failures))
		os.Exit(1)
	}
	unused, err := checkUnreferenced(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "checkdocs: %v\n", err)
		os.Exit(2)
	}
	if len(unused) > 0 {
		sort.Strings(unused)
		for _, f := range unused {
			fmt.Fprintln(os.Stderr, f)
		}
		fmt.Fprintf(os.Stderr, "checkdocs: %d exported internal identifier(s) without a non-test use\n", len(unused))
		os.Exit(1)
	}
}

// checkPackage parses every non-test .go file in dir and reports exported
// identifiers without doc comments, plus a missing package comment.
func checkPackage(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var fails []string
	report := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		fails = append(fails, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, what))
	}
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			// Report once, anchored to any file of the package.
			for name, f := range pkg.Files {
				_ = name
				report(f.Package, fmt.Sprintf("package %s has no package comment", pkg.Name))
				break
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || d.Doc != nil {
						continue
					}
					name := d.Name.Name
					if d.Recv != nil && len(d.Recv.List) > 0 {
						if rt := receiverName(d.Recv.List[0].Type); rt != "" {
							if !ast.IsExported(rt) {
								continue // method on unexported type
							}
							name = rt + "." + name
						}
					}
					report(d.Pos(), fmt.Sprintf("exported %s %s is undocumented", kindOf(d), name))
				case *ast.GenDecl:
					checkGenDecl(d, report)
				}
			}
		}
	}
	return fails, nil
}

// checkGenDecl reports undocumented exported names in a const/var/type
// declaration. A doc comment on the grouped declaration covers all its
// specs (the ST1021 compromise: grouped sentinel/const blocks are
// documented as a block).
func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string)) {
	if d.Tok != token.CONST && d.Tok != token.VAR && d.Tok != token.TYPE {
		return
	}
	blockDoc := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && !blockDoc && s.Doc == nil && s.Comment == nil {
				report(s.Pos(), fmt.Sprintf("exported type %s is undocumented", s.Name.Name))
			}
		case *ast.ValueSpec:
			if blockDoc || s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, n := range s.Names {
				if n.IsExported() {
					report(s.Pos(), fmt.Sprintf("exported %s %s is undocumented", d.Tok, n.Name))
				}
			}
		}
	}
}

// kindOf names a FuncDecl for the failure message.
func kindOf(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// receiverName unwraps a method receiver type to its named type.
func receiverName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr: // generic receiver T[P]
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
