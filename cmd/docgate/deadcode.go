package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// stdInterfaceMethods are the methods of standard-library interfaces that
// internal/ types implement (error, errors.Is/Unwrap, fmt.Stringer,
// io.Writer, io.Closer): the library calls them, so no line of this repo
// need name them.
var stdInterfaceMethods = map[string]bool{
	"Error": true, "Unwrap": true, "Is": true, "String": true, "Write": true, "Close": true,
}

// allowUnreferenced lists internal/ functions and methods kept although no
// non-test file names them, keyed "pkg.Func" or "pkg.Type.Method", each
// with the reason it stays: another package's tests use it (a package's
// own test-only code lives in its _test.go files), or it is root API
// through a type alias. The gate also fails on an entry that names no
// function or that a non-test file already references.
var allowUnreferenced = map[string]string{
	"circuit.Circuit.AddResistor":       "oracle used by the tests of synthpdn (circuit-domain Z_PDN)",
	"circuit.Circuit.AddSeriesRLC":      "oracle used by the tests of synthpdn (circuit-domain Z_PDN)",
	"circuit.Circuit.PortNode":          "oracle used by the tests of synthpdn (circuit-domain Z_PDN)",
	"ledger.Ledger.Placement":           "oracle used by the tests of serve, cluster",
	"ledger.Ledger.RandomPlacement":     "oracle used by the tests of serve, cluster (control arm of the affinity benchmarks)",
	"mat.CMatrix.Equalish":              "oracle used by the tests of circuit, mor, passivity, rational, sparam, statespace, synthpdn, touchstone and the root package",
	"mat.CMatrix.FrobNorm":              "oracle used by the tests of mor",
	"mat.CSolveLin":                     "oracle used by the tests of pdn",
	"mat.Matrix.Equalish":               "oracle used by the tests of passivity, rational",
	"mat.Matrix.FrobNorm":               "oracle used by the tests of statespace",
	"mat.Matrix.MulVecT":                "oracle used by the tests of qp (KKT stationarity)",
	"mat.NewCMatrixFrom":                "oracle used by the tests of core, passivity, pdn, rational, vecfit",
	"mat.NewContourEvaluator":           "oracle used by the tests of passivity (dense determinant backend)",
	"mat.NewMatrixFrom":                 "oracle used by the tests of core, mor, passivity, qp, rational, statespace, vecfit",
	"mat.QRCompressR":                   "oracle used by the tests of vecfit",
	"mat.StructuredShifted.LogDetPhase": "oracle used by the tests of passivity",
	"mat.StructuredShifted.Materialize": "oracle used by the tests of passivity",
	"serve.FaultPlan.DelayOn":           "fault harness used by the tests of serve, cluster",
	"serve.FaultPlan.FailOn":            "fault harness used by the tests of serve, cluster",
	"serve.FaultPlan.PanicOnWorker":     "fault harness used by the tests of serve, cluster",
	"serve.Server.InjectFaults":         "fault harness used by the tests of serve, cluster",
	"serve.Server.AffinityHitRatio":     "metric read by the tests of serve, cluster",
	"tdsim.Result.MaxAbsVoltage":        "root API via alias (repro.TransientResult)",
	"tdsim.Result.PortCurrent":          "root API via alias (repro.TransientResult)",
	"tdsim.Result.PortVoltage":          "root API via alias (repro.TransientResult)",
}

// nonTestGoFiles walks root and parses every non-test .go file outside
// hidden, testdata and underscore-prefixed directories; fn receives the
// path relative to root.
func nonTestGoFiles(root string, fn func(rel string, f *ast.File)) error {
	fset := token.NewFileSet()
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fn(filepath.ToSlash(rel), f)
		return nil
	})
}

// unreferencedInternal lists, as "file: pkg.Name", every top-level function
// or method declared in a non-test file under internal/ whose name no
// non-test .go file of the repo mentions, not counting mentions in the
// bodies of such unreferenced functions: a helper that only dead code
// calls is dead too, and so is a function that only calls itself. Methods
// named by an interface and allowlisted symbols are exempt; stale lists
// the allowlist entries that name no function or are referenced anyway.
func unreferencedInternal(root string) (dead, stale []string, err error) {
	type decl struct {
		key, name, file string
		refs            map[string]bool // names its body mentions
	}
	var decls []*decl
	byKey := map[string]*decl{}
	live := map[string]bool{} // names mentioned outside internal/ function bodies
	ifaceMethods := map[string]bool{}
	err = nonTestGoFiles(root, func(rel string, f *ast.File) {
		internal := strings.HasPrefix(rel, "internal/")
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				live[x.Name] = true
			case *ast.InterfaceType:
				for _, m := range x.Methods.List {
					for _, id := range m.Names {
						ifaceMethods[id.Name] = true
					}
				}
			case *ast.FuncDecl:
				// A function's own name and signature name no function;
				// an internal/ body's names count once it is reached.
				refs := live
				if internal {
					d := &decl{f.Name.Name + "." + recvName(x) + x.Name.Name, x.Name.Name, rel, map[string]bool{}}
					decls = append(decls, d)
					byKey[d.key] = d
					refs = d.refs
				}
				if x.Body != nil {
					ast.Inspect(x.Body, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							refs[id.Name] = true
						}
						return true
					})
				}
				return false
			}
			return true
		})
	})
	if err != nil {
		return nil, nil, err
	}
	reached := map[*decl]bool{}
	reach := func(withAllowlist bool) {
		for changed := true; changed; {
			changed = false
			for _, d := range decls {
				exempt := d.name == "init" || (withAllowlist && allowUnreferenced[d.key] != "") ||
					(strings.Count(d.key, ".") == 2 && (ifaceMethods[d.name] || stdInterfaceMethods[d.name]))
				if reached[d] || !(exempt || live[d.name]) {
					continue
				}
				reached[d], changed = true, true
				for name := range d.refs {
					live[name] = true
				}
			}
		}
	}
	reach(false)
	for key := range allowUnreferenced {
		if d := byKey[key]; d == nil {
			stale = append(stale, key+" names no internal/ function")
		} else if reached[d] {
			stale = append(stale, key+" is referenced from a non-test file")
		}
	}
	reach(true)
	for _, d := range decls {
		if !reached[d] {
			dead = append(dead, d.file+": "+d.key)
		}
	}
	sort.Strings(dead)
	sort.Strings(stale)
	return dead, stale, nil
}

// recvName renders a method's receiver type followed by a dot, or "" for a
// plain function.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name + "."
		default:
			return ""
		}
	}
}
