// Command docgate is the CI documentation and dead-code gate: it fails
// (exit 1) when an exported symbol of the root package lacks a doc comment,
// when any package — root, internal/..., cmd/... — lacks a package doc
// comment, or when a function or method in a non-test internal/ file has
// no reference from any non-test .go file of the repo (see
// unreferencedInternal), and prints the figures either way.
//
// Usage:
//
//	docgate [repo-root]
//
// The root defaults to the current directory. Test files are ignored; a
// symbol in a grouped declaration counts as documented when either the
// spec or the group carries the comment, matching what go doc shows.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var problems []string

	pkgDirs, err := packageDirs(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docgate: %v\n", err)
		os.Exit(2)
	}
	pkgsDocumented := 0
	for _, dir := range pkgDirs {
		name, hasDoc, err := packageDoc(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docgate: %s: %v\n", dir, err)
			os.Exit(2)
		}
		if name == "" {
			continue // no buildable non-test Go files
		}
		if hasDoc {
			pkgsDocumented++
		} else {
			problems = append(problems, fmt.Sprintf("%s: package %s has no package doc comment", dir, name))
		}
	}

	documented, total, missing, err := rootSymbolCoverage(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docgate: %v\n", err)
		os.Exit(2)
	}
	for _, m := range missing {
		problems = append(problems, fmt.Sprintf("root package: exported %s lacks a doc comment", m))
	}

	dead, stale, err := unreferencedInternal(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docgate: %v\n", err)
		os.Exit(2)
	}
	for _, d := range dead {
		problems = append(problems, d+" has no reference from a non-test file")
	}
	for _, s := range stale {
		problems = append(problems, "dead-code allowlist: "+s)
	}

	fmt.Printf("docgate: package docs %d/%d, root exported symbols documented %d/%d (%.1f%%), unreferenced internal/ functions %d\n",
		pkgsDocumented, len(pkgDirs), documented, total, 100*float64(documented)/float64(max(total, 1)), len(dead))
	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Printf("docgate: FAIL %s\n", p)
		}
		os.Exit(1)
	}
	fmt.Println("docgate: OK")
}

// packageDirs lists the repo root plus every directory under internal/ and
// cmd/ that contains Go files.
func packageDirs(root string) ([]string, error) {
	dirs := []string{root}
	for _, sub := range []string{"internal", "cmd"} {
		if _, statErr := os.Stat(filepath.Join(root, sub)); os.IsNotExist(statErr) {
			continue
		}
		err := filepath.WalkDir(filepath.Join(root, sub), func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			hasGo, err := filepath.Glob(filepath.Join(path, "*.go"))
			if err != nil {
				return err
			}
			if len(hasGo) > 0 {
				dirs = append(dirs, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// parseDir parses the non-test Go files of one directory.
func parseDir(dir string) (map[string]*ast.Package, error) {
	fset := token.NewFileSet()
	return parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
}

// packageDoc reports whether any file of the package in dir carries a
// package doc comment.
func packageDoc(dir string) (name string, hasDoc bool, err error) {
	pkgs, err := parseDir(dir)
	if err != nil {
		return "", false, err
	}
	for pkgName, pkg := range pkgs {
		name = pkgName
		for _, f := range pkg.Files {
			if f.Doc != nil && len(f.Doc.List) > 0 {
				return name, true, nil
			}
		}
	}
	return name, false, nil
}

// rootSymbolCoverage audits every exported top-level symbol (functions,
// methods on exported receivers, types, consts, vars) of the root package.
func rootSymbolCoverage(root string) (documented, total int, missing []string, err error) {
	pkgs, err := parseDir(root)
	if err != nil {
		return 0, 0, nil, err
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || !receiverExported(d) {
						continue
					}
					total++
					if d.Doc != nil {
						documented++
					} else {
						missing = append(missing, declName(d))
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						names, doc := specNames(spec)
						hasDoc := d.Doc != nil || doc != nil
						for _, n := range names {
							if !n.IsExported() {
								continue
							}
							total++
							if hasDoc {
								documented++
							} else {
								missing = append(missing, fmt.Sprintf("%s %s", d.Tok, n.Name))
							}
						}
					}
				}
			}
		}
	}
	return documented, total, missing, nil
}

// receiverExported reports whether a function is top-level or its receiver
// type is exported (methods on unexported types are not public API).
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

// declName renders a function or method identifier for the failure report.
func declName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return "func " + d.Name.Name
	}
	t := d.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return fmt.Sprintf("method %s.%s", id.Name, d.Name.Name)
	}
	return "method " + d.Name.Name
}

// specNames extracts the declared identifiers and per-spec doc of one spec.
func specNames(spec ast.Spec) ([]*ast.Ident, *ast.CommentGroup) {
	switch s := spec.(type) {
	case *ast.TypeSpec:
		return []*ast.Ident{s.Name}, s.Doc
	case *ast.ValueSpec:
		return s.Names, s.Doc
	}
	return nil, nil
}
