package analysis

import (
	"go/ast"
	"go/token"
)

// FloatEq flags == and != between floating-point operands. Almost all
// such comparisons in numeric code are accidents that break under
// reassociated arithmetic; the few deliberate sites this repository
// has — exact tie-breaks that ARE the determinism contract (nearest-
// centroid "d == best → lower index wins"), IEEE-parity assertions,
// and exact sentinel checks — opt in per file with a
//
//	//fairvet:floateq <why bitwise comparison is correct here>
//
// marker, so any future float comparison added to an unmarked file is
// caught at lint time instead of as a flaky parity test. A marker on a
// file with no float ==/!= is itself a finding: an opt-out must not
// outlive the comparison it justified.
var FloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "forbid ==/!= on floats outside files opted in with //fairvet:floateq",
	Run:  runFloatEq,
}

func runFloatEq(pass *Pass) error {
	for _, f := range pass.Files {
		marker := fileMarker(f, "floateq")
		compared := false
		ast.Inspect(f, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			xt, yt := pass.TypesInfo.Types[bin.X].Type, pass.TypesInfo.Types[bin.Y].Type
			if xt == nil || yt == nil {
				return true
			}
			if isFloat(xt) || isFloat(yt) {
				compared = true
				if marker == nil {
					pass.Reportf(bin.OpPos, "%s on floating-point values: compare with an epsilon, or mark the file //fairvet:floateq if bitwise equality is the contract", bin.Op)
				}
			}
			return true
		})
		if marker != nil && !compared {
			pass.Reportf(marker.Pos(), "//fairvet:floateq marker on a file with no floating-point ==/!=: remove it")
		}
	}
	return nil
}
