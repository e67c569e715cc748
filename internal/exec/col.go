package exec

import (
	"github.com/bounded-eval/beas/internal/analyze"
	"github.com/bounded-eval/beas/internal/iter"
	"github.com/bounded-eval/beas/internal/value"
)

// StreamCol composes the relational tail of q over a columnar iterator
// of joined intermediate rows. The returned iterator yields final result
// rows (weight-free: bag multiplicities are expanded by projection and
// consumed by aggregation). Projection and aggregation read column
// vectors directly (group keys and fused DISTINCT keys encode
// column-at-a-time), while ORDER BY, LIMIT/OFFSET and non-fusable
// DISTINCT run as row stages on the projected output. Closing it early —
// or exhausting a LIMIT — stops pulling from in.
func StreamCol(q *analyze.Query, in iter.ColIterator, layout *analyze.Layout) iter.Iterator {
	var it iter.Iterator
	if q.IsAgg {
		it = &colAggIter{q: q, layout: layout, in: in}
		if q.Distinct {
			it = &distinctIter{in: it}
		}
	} else {
		p := &colProjectIter{q: q, layout: layout, in: in}
		p.fuseDistinct = q.Distinct && p.resolveOutSlots()
		it = p
		if q.Distinct && !p.fuseDistinct {
			it = &distinctIter{in: it}
		}
	}
	if len(q.OrderBy) > 0 {
		it = &sortIter{in: it, keys: q.OrderBy}
	}
	if q.Limit != nil || q.Offset != nil {
		it = &clipIter{in: it, limit: q.Limit, offset: q.Offset}
	}
	return it
}

// colProjectIter evaluates the output expressions over column vectors,
// replicating each projected row by its bag weight (under DISTINCT each
// row is emitted once: duplicates collapse anyway). Pure column
// references read the vectors directly; any other output expression
// evaluates against a scratch row view. When every output is a column
// reference and the query is DISTINCT, duplicate elimination fuses into
// the projection with column-at-a-time key encoding.
type colProjectIter struct {
	q      *analyze.Query
	layout *analyze.Layout
	in     iter.ColIterator
	cb     *iter.ColBatch // pooled: acquired by Open, released by Close

	outSlots     []int // per output: batch column, or -1 for scalar eval
	resolved     bool
	scratch      value.Row
	fuseDistinct bool
	seen         map[string]struct{}
	keyBufs      [][]byte
	keySlots     []int
}

// resolveOutSlots computes the per-output column slots; it reports
// whether every output is a plain column reference.
func (p *colProjectIter) resolveOutSlots() bool {
	if !p.resolved {
		p.resolved = true
		p.outSlots = make([]int, len(p.q.Outputs))
		for i, o := range p.q.Outputs {
			p.outSlots[i] = -1
			if c, ok := o.Expr.(*analyze.ColRef); ok {
				if s, ok := p.layout.Slot(c.ID); ok {
					p.outSlots[i] = s
				}
			}
		}
	}
	for _, s := range p.outSlots {
		if s < 0 {
			return false
		}
	}
	return true
}

func (p *colProjectIter) Open() error {
	p.resolveOutSlots()
	if p.fuseDistinct {
		p.seen = make(map[string]struct{})
		p.keySlots = p.outSlots
	}
	p.cb = iter.AcquireColBatch()
	return p.in.Open()
}

func (p *colProjectIter) Close() error {
	iter.ReleaseColBatch(&p.cb)
	return p.in.Close()
}

func (p *colProjectIter) Next(b *iter.Batch) (bool, error) {
	b.Reset()
	for b.Len() == 0 {
		ok, err := p.in.NextCols(p.cb)
		if err != nil || !ok {
			return b.Len() > 0, err
		}
		if p.fuseDistinct {
			if err := p.emitDistinct(b); err != nil {
				return false, err
			}
			continue
		}
		n := p.cb.Len()
		for i := 0; i < n; i++ {
			q := p.cb.Index(i)
			res := make(value.Row, len(p.q.Outputs))
			for oi, o := range p.q.Outputs {
				if s := p.outSlots[oi]; s >= 0 {
					res[oi] = p.cb.Col(s).Value(q)
					continue
				}
				if p.scratch == nil {
					p.scratch = make(value.Row, p.cb.Width())
				}
				p.cb.ReadRow(q, p.scratch)
				v, err := analyze.Eval(o.Expr, p.scratch, p.layout)
				if err != nil {
					return false, err
				}
				res[oi] = v
			}
			w := p.cb.Weight(q)
			if p.q.Distinct {
				w = 1
			}
			for ; w > 0; w-- {
				b.Append(res, 1)
			}
		}
	}
	return true, nil
}

// emitDistinct projects and deduplicates in one pass: the output-column
// keys of the whole batch encode column-at-a-time, and only first
// occurrences materialise result rows.
func (p *colProjectIter) emitDistinct(b *iter.Batch) error {
	np := p.cb.Rows()
	for len(p.keyBufs) < np {
		p.keyBufs = append(p.keyBufs, nil)
	}
	for i := 0; i < np; i++ {
		p.keyBufs[i] = p.keyBufs[i][:0]
	}
	p.cb.AppendRowKeys(p.keySlots, p.keyBufs)
	n := p.cb.Len()
	for i := 0; i < n; i++ {
		q := p.cb.Index(i)
		if _, dup := p.seen[string(p.keyBufs[q])]; dup {
			continue
		}
		p.seen[string(p.keyBufs[q])] = struct{}{}
		res := make(value.Row, len(p.outSlots))
		for oi, s := range p.outSlots {
			res[oi] = p.cb.Col(s).Value(q)
		}
		b.Append(res, 1)
	}
	return nil
}

// colAggIter is hash aggregation over column vectors: group keys encode
// column-at-a-time when every GROUP BY expression is a column reference,
// and aggregate arguments that are column references fold straight from
// the vectors. Everything else falls back to scalar evaluation over a
// row view. Groups keep first-appearance order, and each state folds its
// rows in stream order.
type colAggIter struct {
	q      *analyze.Query
	layout *analyze.Layout
	in     iter.ColIterator
	out    iter.Iterator
	cb     *iter.ColBatch // pooled: acquired by Open, released by Close

	keySlots []int // nil unless every GROUP BY expr is a materialised ColRef
	argSlots []int // per agg spec: batch column, or -1 for scalar eval
	keyBufs  [][]byte
	gptrs    []*group
	scratch  value.Row
}

func (a *colAggIter) Open() error {
	a.keySlots = make([]int, 0, len(a.q.GroupBy))
	for _, ge := range a.q.GroupBy {
		c, ok := ge.(*analyze.ColRef)
		if !ok {
			a.keySlots = nil
			break
		}
		s, ok := a.layout.Slot(c.ID)
		if !ok {
			a.keySlots = nil
			break
		}
		a.keySlots = append(a.keySlots, s)
	}
	a.argSlots = make([]int, len(a.q.Aggs))
	for i, spec := range a.q.Aggs {
		a.argSlots[i] = -1
		if spec.Star {
			continue
		}
		if c, ok := spec.Arg.(*analyze.ColRef); ok {
			if s, ok := a.layout.Slot(c.ID); ok {
				a.argSlots[i] = s
			}
		}
	}
	a.cb = iter.AcquireColBatch()
	return a.in.Open()
}

func (a *colAggIter) Close() error {
	iter.ReleaseColBatch(&a.cb)
	if a.out != nil {
		a.out.Close()
	}
	return a.in.Close()
}

func (a *colAggIter) Next(b *iter.Batch) (bool, error) {
	if a.out == nil {
		acc := newAggregator(a.q, a.layout)
		for {
			ok, err := a.in.NextCols(a.cb)
			if err != nil {
				return false, err
			}
			if !ok {
				break
			}
			if err := a.foldBatch(acc); err != nil {
				return false, err
			}
		}
		rows, err := acc.result()
		if err != nil {
			return false, err
		}
		a.out = iter.FromRows(rows, nil)
	}
	return a.out.Next(b)
}

func (a *colAggIter) foldBatch(acc *aggregator) error {
	cb := a.cb
	n := cb.Len()
	if n == 0 {
		return nil
	}
	if a.scratch == nil || len(a.scratch) < cb.Width() {
		a.scratch = make(value.Row, cb.Width())
	}

	// Assign every live row to its group, creating groups in
	// first-appearance order.
	gs := a.gptrs[:0]
	if a.keySlots != nil {
		np := cb.Rows()
		for len(a.keyBufs) < np {
			a.keyBufs = append(a.keyBufs, nil)
		}
		for i := 0; i < np; i++ {
			a.keyBufs[i] = a.keyBufs[i][:0]
		}
		cb.AppendRowKeys(a.keySlots, a.keyBufs)
		for i := 0; i < n; i++ {
			q := cb.Index(i)
			g, ok := acc.groups[string(a.keyBufs[q])]
			if !ok {
				keys := make(value.Row, len(a.keySlots))
				for j, s := range a.keySlots {
					keys[j] = cb.Col(s).Value(q)
				}
				g = acc.newGroup(keys)
				k := string(a.keyBufs[q])
				acc.groups[k] = g
				acc.order = append(acc.order, k)
			}
			gs = append(gs, g)
		}
	} else {
		for i := 0; i < n; i++ {
			q := cb.Index(i)
			cb.ReadRow(q, a.scratch)
			keys := make(value.Row, len(a.q.GroupBy))
			for j, ge := range a.q.GroupBy {
				v, err := analyze.Eval(ge, a.scratch, a.layout)
				if err != nil {
					return err
				}
				keys[j] = v
			}
			acc.kb = value.AppendRowKey(acc.kb[:0], keys, nil)
			g, ok := acc.groups[string(acc.kb)]
			if !ok {
				k := string(acc.kb)
				g = acc.newGroup(keys)
				acc.groups[k] = g
				acc.order = append(acc.order, k)
			}
			gs = append(gs, g)
		}
	}
	a.gptrs = gs

	// Fold each aggregate spec column-at-a-time. States are disjoint per
	// (group, spec), so each state still folds its rows in stream order.
	for si, spec := range a.q.Aggs {
		switch {
		case spec.Star:
			for i := 0; i < n; i++ {
				st := gs[i].aggs[si]
				st.count += cb.Weight(cb.Index(i))
				st.nonEmpty = true
			}
		case a.argSlots[si] >= 0:
			col := cb.Col(a.argSlots[si])
			for i := 0; i < n; i++ {
				q := cb.Index(i)
				if err := foldValue(gs[i].aggs[si], spec, col.Value(q), cb.Weight(q)); err != nil {
					return err
				}
			}
		default:
			for i := 0; i < n; i++ {
				q := cb.Index(i)
				cb.ReadRow(q, a.scratch)
				v, err := analyze.Eval(spec.Arg, a.scratch, a.layout)
				if err != nil {
					return err
				}
				if err := foldValue(gs[i].aggs[si], spec, v, cb.Weight(q)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
