package lint

import (
	"go/ast"
	"go/types"
)

// MapOrder flags `for range` over a map value inside a deterministic
// package. Go randomizes map iteration order per run, so any loop whose
// body's effects depend on visit order — emitting entries, picking a first
// match, building an error message — makes output differ between replays of
// the same seed. The fix is to iterate a sorted key slice (ranging over a
// slice is not flagged); loops whose bodies are provably order-independent
// (folding a commutative reduction, testing "any value satisfies") carry a
// `//quanto:ordered <reason>` waiver instead, so every surviving map range
// documents why order cannot escape it.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "flags map iteration in deterministic packages unless sorted or waived with //quanto:ordered",
	Run:  runMapOrder,
}

// isMapIterCall reports whether x is a direct call to maps.Keys, maps.Values
// or maps.All — ranging over one of those iterators visits in the same
// randomized order as ranging over the map itself (slices.Sorted(maps.Keys(m))
// is fine: the range there is over the sorted slice).
func isMapIterCall(pass *Pass, x ast.Expr) bool {
	call, ok := x.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "maps" {
		return false
	}
	switch obj.Name() {
	case "Keys", "Values", "All":
		return true
	}
	return false
}

func runMapOrder(pass *Pass) {
	if !Deterministic(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		ranges := make(map[int]bool) // the lines a map range starts on
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.Info.Types[rs.X]
			if !ok {
				return true
			}
			_, isMap := tv.Type.Underlying().(*types.Map)
			if !isMap && !isMapIterCall(pass, rs.X) {
				return true
			}
			ranges[pass.Fset.Position(rs.For).Line] = true
			if _, ok := waiver(pass.Fset, pass.Files, rs.For, "ordered"); ok {
				return true
			}
			pass.Reportf(rs.For, "range over map %s in deterministic package %s: iteration order is randomized; sort the keys or waive with //quanto:ordered <reason>",
				types.ExprString(rs.X), pass.Pkg.Path())
			return true
		})
		// A waiver covers a map range on its own line or the next one. One
		// that covers neither waives nothing, and would silently waive a
		// map range that later moved under it.
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if _, ok := waiverComment(c, "ordered"); !ok {
					continue
				}
				if line := pass.Fset.Position(c.Pos()).Line; !ranges[line] && !ranges[line+1] {
					pass.Reportf(c.Pos(), "//quanto:ordered waives nothing: no map range starts on its line or the next")
				}
			}
		}
	}
}
