// Package mapdet flags map iteration whose order leaks into ordered
// output inside the engine's deterministic packages.
//
// BEAS promises bit-identical results — same bag, same order, same
// statistics — across runs, across scalar and vectorized execution and
// with the result cache on or off, and the WAL replays to bit-identical
// state. Go randomises map iteration
// order per run, so a `for range m` that appends to a result slice,
// writes to an output buffer or sends on a channel silently breaks that
// contract. The fix is mechanical: collect the keys, sort them, then
// iterate — and that exact pattern (append keys, sort.X after the loop
// in the same block) is recognised and allowed.
package mapdet

import (
	"go/ast"
	"go/types"

	"github.com/bounded-eval/beas/internal/lint/analysis"
	"github.com/bounded-eval/beas/internal/lint/passes/lintutil"
)

// Analyzer is the mapdet pass.
var Analyzer = &analysis.Analyzer{
	Name: "mapdet",
	Doc: "map iteration order must not reach ordered output in deterministic packages\n\n" +
		"In beas, core, engine, exec, iter, opt and stats, a for-range over a map whose " +
		"body appends to an outer slice, writes to an outer buffer/writer or performs a " +
		"channel send publishes Go's randomised map order into results, plans, statistics " +
		"or WAL bytes. Collect the keys and sort them first; a loop whose collected slice " +
		"is passed to sort.* or slices.Sort* later in the same block is allowed.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if !lintutil.IsDeterministic(pass.Pkg.Path()) {
		return nil, nil
	}
	pass.WithStack(func(n ast.Node, stack []ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok || tv.Type == nil {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkBody(pass, rng, stack)
		return true
	})
	return nil, nil
}

// checkBody scans the loop body of a map range for order leaks.
func checkBody(pass *analysis.Pass, rng *ast.RangeStmt, stack []ast.Node) {
	mapExpr := types.ExprString(rng.X)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(stmt.Pos(),
				"channel send inside range over map %s publishes map iteration order; iterate sorted keys instead",
				mapExpr)
		case *ast.AssignStmt:
			checkAppend(pass, rng, stack, stmt, mapExpr)
		case *ast.CallExpr:
			checkWriter(pass, rng, stmt, mapExpr)
		}
		return true
	})
}

// checkAppend flags `out = append(out, ...)` where out is declared
// outside the loop and is not sorted afterwards in the same block.
func checkAppend(pass *analysis.Pass, rng *ast.RangeStmt, stack []ast.Node, as *ast.AssignStmt, mapExpr string) {
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !isBuiltinAppend(pass.TypesInfo, call) || i >= len(as.Lhs) {
			continue
		}
		target := lintutil.RootIdent(as.Lhs[i])
		if target == nil {
			continue
		}
		obj := lintutil.ObjOf(pass.TypesInfo, target)
		if obj == nil || !declaredOutside(obj, rng) {
			continue // loop-local accumulation cannot leak order out
		}
		if sortedAfter(pass.TypesInfo, rng, stack, obj) {
			continue // collect-then-sort: the approved pattern
		}
		pass.Reportf(as.Pos(),
			"append to %s inside range over map %s leaks map iteration order; collect and sort (e.g. sort the keys first)",
			target.Name, mapExpr)
	}
}

// checkWriter flags writes to an outer buffer/writer inside the loop:
// method-style (b.WriteString, w.Write) and fmt.Fprint* with an outer
// destination.
func checkWriter(pass *analysis.Pass, rng *ast.RangeStmt, call *ast.CallExpr, mapExpr string) {
	var dest ast.Expr
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			dest = sel.X
		case "Fprint", "Fprintf", "Fprintln":
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "fmt" && len(call.Args) > 0 {
				dest = call.Args[0]
			}
		}
	}
	if dest == nil {
		return
	}
	id := lintutil.RootIdent(dest)
	if id == nil {
		return
	}
	obj := lintutil.ObjOf(pass.TypesInfo, id)
	if obj == nil || !declaredOutside(obj, rng) {
		return
	}
	pass.Reportf(call.Pos(),
		"write to %s inside range over map %s emits output in map iteration order; iterate sorted keys instead",
		id.Name, mapExpr)
}

// declaredOutside reports whether obj was declared before the range
// statement (or in another file/scope entirely).
func declaredOutside(obj types.Object, rng *ast.RangeStmt) bool {
	return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
}

// sortedAfter reports whether a statement after the range loop, in the
// innermost block containing it, passes obj to sort.* or slices.*.
func sortedAfter(info *types.Info, rng *ast.RangeStmt, stack []ast.Node, obj types.Object) bool {
	var block *ast.BlockStmt
	for i := len(stack) - 1; i >= 0 && block == nil; i-- {
		if b, ok := stack[i].(*ast.BlockStmt); ok {
			for _, s := range b.List {
				if s == ast.Stmt(rng) {
					block = b
					break
				}
			}
		}
	}
	if block == nil {
		return false
	}
	past := false
	for _, s := range block.List {
		if s == ast.Stmt(rng) {
			past = true
			continue
		}
		if !past {
			continue
		}
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && (pkg.Name == "sort" || pkg.Name == "slices") {
					for _, arg := range call.Args {
						if lintutil.UsesObject(info, arg, obj) {
							found = true
						}
					}
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// isBuiltinAppend reports whether call is the append builtin.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	b, ok := lintutil.ObjOf(info, id).(*types.Builtin)
	return ok && b.Name() == "append"
}
