package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// detPackages are the import paths whose every file must be
// deterministic: given the same inputs and seed they must produce
// bit-identical outputs regardless of wall-clock, scheduling or global
// RNG state. (internal/load is deliberately absent: only its workload
// construction is deterministic, and load.go opts in with a
// //fairvet:deterministic file marker.)
var detPackages = map[string]bool{
	"repro/internal/core":      true,
	"repro/internal/engine":    true,
	"repro/internal/kmeans":    true,
	"repro/internal/stats":     true,
	"repro/internal/coreset":   true,
	"repro/internal/pipeline":  true,
	"repro/internal/model":     true,
	"repro/internal/dataset":   true,
	"repro/internal/telemetry": true,
}

// NoDeterminism flags nondeterminism escape hatches inside the
// deterministic packages (or any file marked //fairvet:deterministic):
// wall-clock reads (time.Now/Since/Until), the global math/rand source
// (all randomness must flow through a seeded stats.RNG), and ranging
// over a map while building ordered output (slice appends, indexed
// slice writes, string building, io/encode calls) — map iteration
// order would leak into bytes that are contractually reproducible.
var NoDeterminism = &Analyzer{
	Name: "nodeterminism",
	Doc:  "forbid time.Now, global math/rand and ordered-output map ranges in deterministic packages",
	Run:  runNoDeterminism,
}

func runNoDeterminism(pass *Pass) error {
	for _, f := range pass.Files {
		if !detPackages[pass.Path] && fileMarker(f, "deterministic") == nil {
			continue
		}
		for _, decl := range f.Decls {
			// Slice appends inside a map range are only order-hazardous
			// when the collected slice is never sorted: the canonical
			// deterministic idiom (append keys, sort, iterate sorted)
			// must stay clean, so append triggers are gated on the
			// enclosing function never touching sort/slices.
			sorts := false
			if fd, ok := decl.(*ast.FuncDecl); ok {
				sorts = referencesSortPkg(pass, fd)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					checkDetSelector(pass, n)
				case *ast.RangeStmt:
					checkMapRangeOrder(pass, n, sorts)
				}
				return true
			})
		}
	}
	return nil
}

// referencesSortPkg reports whether the function mentions the sort or
// slices packages anywhere in its body.
func referencesSortPkg(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Body == nil {
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if sel, ok := n.(*ast.SelectorExpr); ok {
			switch selectsPackage(pass.TypesInfo, sel) {
			case "sort", "slices":
				found = true
			}
		}
		return true
	})
	return found
}

func checkDetSelector(pass *Pass, sel *ast.SelectorExpr) {
	pkgPath := selectsPackage(pass.TypesInfo, sel)
	switch pkgPath {
	case "time":
		switch sel.Sel.Name {
		case "Now", "Since", "Until":
			pass.Reportf(sel.Pos(), "time.%s in deterministic code: results must not depend on wall-clock", sel.Sel.Name)
		}
	case "math/rand", "math/rand/v2":
		// Type references (rand.Rand, rand.Source) carry no global
		// state; functions, variables and method values do.
		if _, isType := pass.TypesInfo.Uses[sel.Sel].(*types.TypeName); !isType {
			pass.Reportf(sel.Pos(), "%s.%s in deterministic code: randomness must flow through a seeded stats.RNG", pkgPath, sel.Sel.Name)
		}
	}
}

// checkMapRangeOrder flags `for ... := range m` over a map when the
// loop body observably depends on iteration order: it appends to a
// slice (unless the enclosing function sorts afterwards), writes
// through a slice index, concatenates strings, or calls
// write/encode-style sinks.
func checkMapRangeOrder(pass *Pass, rng *ast.RangeStmt, sortsLater bool) {
	t := pass.TypesInfo.Types[rng.X].Type
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	ordered := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if ordered != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" && !sortsLater {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					ordered = "appends to a slice the function never sorts"
				}
			}
			if s, ok := n.Fun.(*ast.SelectorExpr); ok && orderedSinkMethod(s.Sel.Name) {
				ordered = "calls " + s.Sel.Name
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				ix, ok := lhs.(*ast.IndexExpr)
				if !ok {
					continue
				}
				bt := pass.TypesInfo.Types[ix.X].Type
				if bt == nil {
					continue
				}
				if _, isSlice := bt.Underlying().(*types.Slice); isSlice {
					ordered = "writes through a slice index"
				}
			}
			if n.Tok.String() == "+=" && len(n.Lhs) == 1 {
				lt := pass.TypesInfo.Types[n.Lhs[0]].Type
				if lt != nil {
					if b, ok := lt.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						ordered = "concatenates a string"
					}
				}
			}
		}
		return true
	})
	if ordered != "" {
		pass.Reportf(rng.Pos(), "map range %s: iteration order is random, so ordered output becomes nondeterministic; iterate a sorted key slice instead", ordered)
	}
}

func orderedSinkMethod(name string) bool {
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Encode",
		"Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
		return true
	}
	return strings.HasPrefix(name, "Write")
}
