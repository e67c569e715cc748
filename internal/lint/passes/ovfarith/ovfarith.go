// Package ovfarith flags raw int64 arithmetic on value-domain integers
// in the expression evaluator and executors.
//
// SQL integer arithmetic in BEAS promotes to float64 on int64 overflow
// instead of silently wrapping (a wrapped SUM or projection is a wrong
// answer, and the scalar, columnar and cache-patch folds must agree on
// where they promote). The
// value package provides the overflow-detecting helpers AddInt64,
// SubInt64 and MulInt64; any raw +, -, * or negation whose operands
// trace back to a value.Value payload (.I), a value.Row cell or a
// columnar Ints() vector must go through them.
package ovfarith

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/bounded-eval/beas/internal/lint/analysis"
	"github.com/bounded-eval/beas/internal/lint/passes/lintutil"
)

// Analyzer is the ovfarith pass.
var Analyzer = &analysis.Analyzer{
	Name: "ovfarith",
	Doc: "value-domain int64 arithmetic must use value.AddInt64/SubInt64/MulInt64\n\n" +
		"In analyze, exec and engine, raw +, -, * or unary minus over int64s that " +
		"originate from value.Value.I, value.Row cells or ColBatch Ints() columns wraps " +
		"silently on overflow instead of promoting to float64, so the scalar, columnar " +
		"and cache-patch folds diverge. Unary negation guarded by an explicit math.MinInt64 check in the " +
		"same function is allowed.",
	Run: run,
}

const maxTaintDepth = 4

func run(pass *analysis.Pass) (any, error) {
	if !lintutil.InScope(pass.Pkg.Path(), "analyze", "exec", "engine") {
		return nil, nil
	}
	pass.WithStack(func(n ast.Node, stack []ast.Node) bool {
		fn, ok := n.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			return true
		}
		checkFunc(pass, fn)
		return false // checkFunc walks the body itself
	})
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	assigns := collectAssigns(pass.TypesInfo, fn.Body)
	t := &tracer{info: pass.TypesInfo, assigns: assigns}
	minIntGuarded := lintutil.MentionsQualified(fn.Body, "math", "MinInt64")

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.BinaryExpr:
			if e.Op != token.ADD && e.Op != token.SUB && e.Op != token.MUL {
				return true
			}
			tv := pass.TypesInfo.Types[ast.Expr(e)]
			if tv.Value != nil || !lintutil.IsInt64(tv.Type) {
				return true // constant-folded or not an int64 expression
			}
			if t.tainted(e.X, maxTaintDepth) || t.tainted(e.Y, maxTaintDepth) {
				pass.Reportf(e.OpPos, "raw int64 %q on value-domain operands wraps on overflow; use value.%s and promote to float64",
					e.Op, helperFor(e.Op))
			}
		case *ast.UnaryExpr:
			if e.Op != token.SUB || minIntGuarded {
				return true
			}
			tv := pass.TypesInfo.Types[ast.Expr(e)]
			if tv.Value != nil || !lintutil.IsInt64(tv.Type) {
				return true
			}
			if t.tainted(e.X, maxTaintDepth) {
				pass.Reportf(e.OpPos, "raw int64 negation of a value-domain operand wraps at math.MinInt64; guard with math.MinInt64 or use value.SubInt64(0, x)")
			}
		case *ast.AssignStmt:
			var op token.Token
			switch e.Tok {
			case token.ADD_ASSIGN:
				op = token.ADD
			case token.SUB_ASSIGN:
				op = token.SUB
			case token.MUL_ASSIGN:
				op = token.MUL
			default:
				return true
			}
			if len(e.Lhs) != 1 || len(e.Rhs) != 1 {
				return true
			}
			tv := pass.TypesInfo.Types[e.Lhs[0]]
			if !lintutil.IsInt64(tv.Type) {
				return true
			}
			if t.tainted(e.Lhs[0], maxTaintDepth) || t.tainted(e.Rhs[0], maxTaintDepth) {
				pass.Reportf(e.TokPos, "raw int64 %q on value-domain operands wraps on overflow; use value.%s and promote to float64",
					e.Tok, helperFor(op))
			}
		}
		return true
	})
}

func helperFor(op token.Token) string {
	switch op {
	case token.ADD:
		return "AddInt64"
	case token.SUB:
		return "SubInt64"
	default:
		return "MulInt64"
	}
}

// collectAssigns maps each local variable object to the expressions
// assigned to it anywhere in the function, for one-hop-per-level taint
// tracing through intermediates like `iv := v.I`.
func collectAssigns(info *types.Info, body *ast.BlockStmt) map[types.Object][]ast.Expr {
	out := make(map[types.Object][]ast.Expr)
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i, lhs := range st.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := lintutil.ObjOf(info, id); obj != nil {
						out[obj] = append(out[obj], st.Rhs[i])
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range st.Names {
				if i < len(st.Values) {
					if obj := lintutil.ObjOf(info, name); obj != nil {
						out[obj] = append(out[obj], st.Values[i])
					}
				}
			}
		}
		return true
	})
	return out
}

// tracer answers "does this int64 expression originate in the value
// domain?" by walking selectors, indexes and a bounded number of local
// assignment hops.
type tracer struct {
	info    *types.Info
	assigns map[types.Object][]ast.Expr
	visited map[types.Object]bool
}

func (t *tracer) tainted(e ast.Expr, depth int) bool {
	if depth == 0 {
		return false
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		return t.tainted(x.X, depth)
	case *ast.BinaryExpr:
		return t.tainted(x.X, depth) || t.tainted(x.Y, depth)
	case *ast.UnaryExpr:
		return t.tainted(x.X, depth)
	case *ast.SelectorExpr:
		// v.I where v is a value.Value: the payload itself.
		if x.Sel.Name == "I" && lintutil.IsNamed(t.info.Types[x.X].Type, "value", "Value") {
			return true
		}
		return false
	case *ast.IndexExpr:
		// xs[i] where xs came from a columnar Ints() vector, or r[i].I
		// is handled by the selector case above.
		return t.tainted(x.X, depth-1)
	case *ast.CallExpr:
		// lc.Ints() exposes a value-domain int64 column.
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Ints" {
			return true
		}
		return false
	case *ast.Ident:
		obj := lintutil.ObjOf(t.info, x)
		if obj == nil || t.visited[obj] {
			return false
		}
		if t.visited == nil {
			t.visited = make(map[types.Object]bool)
		}
		t.visited[obj] = true
		defer delete(t.visited, obj)
		for _, rhs := range t.assigns[obj] {
			if t.tainted(rhs, depth-1) {
				return true
			}
		}
		return false
	default:
		return false
	}
}
