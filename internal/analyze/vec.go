package analyze

import (
	"strings"

	"github.com/bounded-eval/beas/internal/iter"
	"github.com/bounded-eval/beas/internal/sqlparser"
	"github.com/bounded-eval/beas/internal/value"
)

// VecFilter is a conjunction of predicates compiled for columnar
// evaluation. Apply refines a ColBatch's selection vector one predicate
// at a time: simple comparisons (column vs constant, column vs column)
// and IS [NOT] NULL tests run as tight per-column loops, everything else
// — and any batch whose column kinds the fast loops do not cover — falls
// back to the scalar row evaluator (EvalBool), so three-valued logic,
// overflow promotion, NaN ordering and error behaviour stay identical to
// evaluating the conjunction row by row.
//
// The compiled filter assumes the batch's column j holds the value of
// layout slot j (the scan layout convention).
type VecFilter struct {
	preds   []vecPred
	layout  *Layout
	scratch value.Row
}

type vecPred struct {
	expr   Expr // scalar fallback; authoritative for semantics and errors
	cmp    *cmpPred
	isNull *nullPred
}

// cmpPred is a comparison with a column on the left: col OP const
// (rslot < 0) or col OP col.
type cmpPred struct {
	op    sqlparser.BinOp
	lslot int
	rslot int
	c     value.Value
}

type nullPred struct {
	slot int
	not  bool
}

// CompileFilters compiles a conjunction of predicate expressions against
// the given layout. Expressions no fast loop covers keep their scalar
// evaluator; compilation never fails.
func CompileFilters(exprs []Expr, l *Layout) *VecFilter {
	f := &VecFilter{layout: l}
	for _, e := range exprs {
		f.preds = append(f.preds, compilePred(e, l))
	}
	return f
}

// Preds returns the number of compiled predicates.
func (f *VecFilter) Preds() int { return len(f.preds) }

func compilePred(e Expr, l *Layout) vecPred {
	p := vecPred{expr: e}
	switch x := e.(type) {
	case *IsNullExpr:
		if c, ok := x.E.(*ColRef); ok {
			if s, ok := l.Slot(c.ID); ok {
				p.isNull = &nullPred{slot: s, not: x.Not}
			}
		}
	case *Bin:
		if !x.Op.IsComparison() {
			break
		}
		switch lx := x.L.(type) {
		case *ColRef:
			ls, ok := l.Slot(lx.ID)
			if !ok {
				break
			}
			switch rx := x.R.(type) {
			case *Const:
				p.cmp = &cmpPred{op: x.Op, lslot: ls, rslot: -1, c: rx.Val}
			case *ColRef:
				if rs, ok := l.Slot(rx.ID); ok {
					p.cmp = &cmpPred{op: x.Op, lslot: ls, rslot: rs}
				}
			}
		case *Const:
			if rx, ok := x.R.(*ColRef); ok {
				if rs, ok := l.Slot(rx.ID); ok {
					// c OP col ⇔ col flip(OP) c; Compare's total order makes
					// the flip exact for every comparable kind pair.
					p.cmp = &cmpPred{op: flipCmp(x.Op), lslot: rs, rslot: -1, c: lx.Val}
				}
			}
		}
	}
	return p
}

func flipCmp(op sqlparser.BinOp) sqlparser.BinOp {
	switch op {
	case sqlparser.OpLt:
		return sqlparser.OpGt
	case sqlparser.OpLe:
		return sqlparser.OpGe
	case sqlparser.OpGt:
		return sqlparser.OpLt
	case sqlparser.OpGe:
		return sqlparser.OpLe
	default: // Eq, Ne are symmetric
		return op
	}
}

func cmpPass(op sqlparser.BinOp, cmp int) bool {
	switch op {
	case sqlparser.OpEq:
		return cmp == 0
	case sqlparser.OpNe:
		return cmp != 0
	case sqlparser.OpLt:
		return cmp < 0
	case sqlparser.OpLe:
		return cmp <= 0
	case sqlparser.OpGt:
		return cmp > 0
	default: // OpGe
		return cmp >= 0
	}
}

// Apply refines cb's selection vector to the rows passing every
// predicate, in predicate order (a row failing predicate k is never
// evaluated under predicate k+1, matching a row-by-row conjunction's
// short-circuit).
func (f *VecFilter) Apply(cb *iter.ColBatch) error {
	for i := range f.preds {
		if cb.Len() == 0 {
			return nil
		}
		if err := f.applyPred(&f.preds[i], cb); err != nil {
			return err
		}
	}
	return nil
}

func (f *VecFilter) applyPred(p *vecPred, cb *iter.ColBatch) error {
	if p.isNull != nil {
		applyIsNull(p.isNull, cb)
		return nil
	}
	if p.cmp != nil && applyCmp(p.cmp, cb) {
		return nil
	}
	return f.applyScalar(p.expr, cb)
}

func applyIsNull(p *nullPred, cb *iter.ColBatch) {
	col := cb.Col(p.slot)
	n := cb.Len()
	sel := cb.SelBuf()
	if col.Boxed() {
		for i := 0; i < n; i++ {
			q := cb.Index(i)
			if col.Value(q).IsNull() != p.not {
				sel = append(sel, q)
			}
		}
	} else {
		for i := 0; i < n; i++ {
			q := cb.Index(i)
			if col.IsNull(q) != p.not {
				sel = append(sel, q)
			}
		}
	}
	cb.SetSel(sel)
}

// applyCmp runs the comparison as a typed loop when the batch's column
// kinds allow it; it reports false (untouched batch) otherwise.
func applyCmp(p *cmpPred, cb *iter.ColBatch) bool {
	lc := cb.Col(p.lslot)
	if lc.Boxed() {
		return false
	}
	if p.rslot < 0 {
		return applyCmpConst(p, cb, lc)
	}
	rc := cb.Col(p.rslot)
	if rc.Boxed() {
		return false
	}
	return applyCmpCols(p, cb, lc, rc)
}

func applyCmpConst(p *cmpPred, cb *iter.ColBatch, lc *iter.Column) bool {
	// NULL on either side makes the comparison UNKNOWN for every row —
	// no row passes, no error, whatever the other side's kind.
	if p.c.IsNull() || lc.Kind() == value.Null {
		cb.SetSel(cb.SelBuf())
		return true
	}
	op, n := p.op, cb.Len()
	switch {
	case lc.Kind() == value.Int && p.c.K == value.Int:
		xs, c, sel := lc.Ints(), p.c.I, cb.SelBuf()
		for i := 0; i < n; i++ {
			q := cb.Index(i)
			if !lc.IsNull(q) && cmpPass(op, value.CompareInt64(xs[q], c)) {
				sel = append(sel, q)
			}
		}
		cb.SetSel(sel)
	case lc.Kind() == value.Int && p.c.K == value.Float:
		xs, c, sel := lc.Ints(), p.c.F, cb.SelBuf()
		for i := 0; i < n; i++ {
			q := cb.Index(i)
			if !lc.IsNull(q) && cmpPass(op, value.CompareFloat64(float64(xs[q]), c)) {
				sel = append(sel, q)
			}
		}
		cb.SetSel(sel)
	case lc.Kind() == value.Float && (p.c.K == value.Int || p.c.K == value.Float):
		c := p.c.F
		if p.c.K == value.Int {
			c = float64(p.c.I)
		}
		xs, sel := lc.Floats(), cb.SelBuf()
		for i := 0; i < n; i++ {
			q := cb.Index(i)
			if !lc.IsNull(q) && cmpPass(op, value.CompareFloat64(xs[q], c)) {
				sel = append(sel, q)
			}
		}
		cb.SetSel(sel)
	case lc.Kind() == value.String && p.c.K == value.String:
		xs, c, sel := lc.Strs(), p.c.S, cb.SelBuf()
		for i := 0; i < n; i++ {
			q := cb.Index(i)
			if !lc.IsNull(q) && cmpPass(op, strings.Compare(xs[q], c)) {
				sel = append(sel, q)
			}
		}
		cb.SetSel(sel)
	case lc.Kind() == value.Bool && p.c.K == value.Bool:
		xs, c, sel := lc.Bools(), p.c.I, cb.SelBuf()
		for i := 0; i < n; i++ {
			q := cb.Index(i)
			if !lc.IsNull(q) && cmpPass(op, value.CompareInt64(boolI(xs[q]), c)) {
				sel = append(sel, q)
			}
		}
		cb.SetSel(sel)
	default:
		// Incomparable kinds: the scalar evaluator owns the error (raised
		// at the first row where both sides are non-NULL, in row order).
		return false
	}
	return true
}

func applyCmpCols(p *cmpPred, cb *iter.ColBatch, lc, rc *iter.Column) bool {
	if lc.Kind() == value.Null || rc.Kind() == value.Null {
		cb.SetSel(cb.SelBuf())
		return true
	}
	op, n := p.op, cb.Len()
	lk, rk := lc.Kind(), rc.Kind()
	switch {
	case lk == value.Int && rk == value.Int:
		ls, rs, sel := lc.Ints(), rc.Ints(), cb.SelBuf()
		for i := 0; i < n; i++ {
			q := cb.Index(i)
			if !lc.IsNull(q) && !rc.IsNull(q) && cmpPass(op, value.CompareInt64(ls[q], rs[q])) {
				sel = append(sel, q)
			}
		}
		cb.SetSel(sel)
	case (lk == value.Int || lk == value.Float) && (rk == value.Int || rk == value.Float):
		sel := cb.SelBuf()
		for i := 0; i < n; i++ {
			q := cb.Index(i)
			if lc.IsNull(q) || rc.IsNull(q) {
				continue
			}
			var lf, rf float64
			if lk == value.Int {
				lf = float64(lc.Ints()[q])
			} else {
				lf = lc.Floats()[q]
			}
			if rk == value.Int {
				rf = float64(rc.Ints()[q])
			} else {
				rf = rc.Floats()[q]
			}
			if cmpPass(op, value.CompareFloat64(lf, rf)) {
				sel = append(sel, q)
			}
		}
		cb.SetSel(sel)
	case lk == value.String && rk == value.String:
		ls, rs, sel := lc.Strs(), rc.Strs(), cb.SelBuf()
		for i := 0; i < n; i++ {
			q := cb.Index(i)
			if !lc.IsNull(q) && !rc.IsNull(q) && cmpPass(op, strings.Compare(ls[q], rs[q])) {
				sel = append(sel, q)
			}
		}
		cb.SetSel(sel)
	case lk == value.Bool && rk == value.Bool:
		ls, rs, sel := lc.Bools(), rc.Bools(), cb.SelBuf()
		for i := 0; i < n; i++ {
			q := cb.Index(i)
			if !lc.IsNull(q) && !rc.IsNull(q) && cmpPass(op, value.CompareInt64(boolI(ls[q]), boolI(rs[q]))) {
				sel = append(sel, q)
			}
		}
		cb.SetSel(sel)
	default:
		return false
	}
	return true
}

func (f *VecFilter) applyScalar(e Expr, cb *iter.ColBatch) error {
	w := cb.Width()
	if cap(f.scratch) < w {
		f.scratch = make(value.Row, w)
	}
	row := f.scratch[:w]
	n := cb.Len()
	sel := cb.SelBuf()
	for i := 0; i < n; i++ {
		q := cb.Index(i)
		cb.ReadRow(q, row)
		ok, err := EvalBool(e, row, f.layout)
		if err != nil {
			return err
		}
		if ok {
			sel = append(sel, q)
		}
	}
	cb.SetSel(sel)
	return nil
}

func boolI(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
