// Package exec provides the relational tail shared by the bounded-plan
// executor (internal/core) and the conventional engine (internal/engine):
// projection, DISTINCT, hash aggregation with HAVING, sorting by output
// columns and LIMIT/OFFSET.
//
// The tail is a pull pipeline (see internal/iter): StreamCol composes
// projection or aggregation over the column batches of any joined
// intermediate iterator, then DISTINCT → ORDER BY → LIMIT/OFFSET stages
// over the projected rows. Stages that need nothing beyond the current
// batch (projection, DISTINCT, LIMIT) stream; aggregation holds only its
// groups and sorting is the single stage that must materialise. A LIMIT
// k query without ORDER BY therefore stops pulling from the join
// pipeline after k rows.
package exec

import (
	"fmt"
	"sort"

	"github.com/bounded-eval/beas/internal/analyze"
	"github.com/bounded-eval/beas/internal/iter"
	"github.com/bounded-eval/beas/internal/sqlparser"
	"github.com/bounded-eval/beas/internal/value"
)

// distinctIter drops rows already seen, preserving first-occurrence
// order across batches.
type distinctIter struct {
	in   iter.Iterator
	seen map[string]struct{}
	buf  iter.Batch
	key  []byte
}

func (d *distinctIter) Open() error {
	d.seen = make(map[string]struct{})
	return d.in.Open()
}
func (d *distinctIter) Close() error { return d.in.Close() }

func (d *distinctIter) Next(b *iter.Batch) (bool, error) {
	b.Reset()
	for b.Len() == 0 {
		ok, err := d.in.Next(&d.buf)
		if err != nil || !ok {
			return b.Len() > 0, err
		}
		for _, r := range d.buf.Rows {
			d.key = value.AppendRowKey(d.key[:0], r, nil)
			if _, dup := d.seen[string(d.key)]; dup {
				continue
			}
			d.seen[string(d.key)] = struct{}{}
			b.Append(r, 1)
		}
	}
	return true, nil
}

// sortIter is the one blocking stage: it drains its input, sorts and
// re-streams.
type sortIter struct {
	in   iter.Iterator
	keys []analyze.OrderSpec
	out  iter.Iterator
}

func (s *sortIter) Open() error { return s.in.Open() }

func (s *sortIter) Close() error {
	if s.out != nil {
		s.out.Close()
	}
	return s.in.Close()
}

func (s *sortIter) Next(b *iter.Batch) (bool, error) {
	if s.out == nil {
		rows, _, err := drain(s.in)
		if err != nil {
			return false, err
		}
		if err := SortRows(rows, s.keys); err != nil {
			return false, err
		}
		s.out = iter.FromRows(rows, nil)
	}
	return s.out.Next(b)
}

// clipIter applies OFFSET then LIMIT, and stops pulling once the limit
// is reached — the early-termination point of the pipeline.
type clipIter struct {
	in      iter.Iterator
	limit   *int
	offset  *int
	skipped int
	emitted int
	done    bool
	buf     iter.Batch
}

func (c *clipIter) Open() error  { return c.in.Open() }
func (c *clipIter) Close() error { return c.in.Close() }

func (c *clipIter) Next(b *iter.Batch) (bool, error) {
	b.Reset()
	if c.done {
		return false, nil
	}
	for b.Len() == 0 {
		if c.limit != nil && c.emitted >= *c.limit {
			c.done = true
			return false, nil
		}
		ok, err := c.in.Next(&c.buf)
		if err != nil {
			return false, err
		}
		if !ok {
			c.done = true
			return b.Len() > 0, nil
		}
		for _, r := range c.buf.Rows {
			if c.offset != nil && c.skipped < *c.offset {
				c.skipped++
				continue
			}
			if c.limit != nil && c.emitted >= *c.limit {
				c.done = true
				break
			}
			b.Append(r, 1)
			c.emitted++
		}
	}
	return true, nil
}

// drain collects the remaining rows of an already opened iterator
// (weights, if any, are expanded — callers here are weight-free stages).
func drain(it iter.Iterator) ([]value.Row, []int64, error) {
	var rows []value.Row
	var b iter.Batch
	for {
		ok, err := it.Next(&b)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			return rows, nil, nil
		}
		rows = append(rows, b.Rows...)
	}
}

// aggState accumulates one aggregate over one group.
type aggState struct {
	count    int64
	sum      float64
	sumInt   int64
	intOnly  bool
	min, max value.Value
	distinct map[string]struct{}
	nonEmpty bool
}

type group struct {
	keys value.Row
	aggs []*aggState
}

// aggregator is the hash-aggregation state: groups keyed by the GROUP BY
// expressions, in first-appearance order.
//
// With no GROUP BY, a single group is produced even for empty input
// (COUNT(*) over an empty relation is 0), matching SQL semantics.
type aggregator struct {
	q      *analyze.Query
	layout *analyze.Layout
	groups map[string]*group
	order  []string
	kb     []byte // reused group-key encoding buffer
}

func newAggregator(q *analyze.Query, layout *analyze.Layout) *aggregator {
	return &aggregator{q: q, layout: layout, groups: make(map[string]*group)}
}

func (a *aggregator) newGroup(keys value.Row) *group {
	g := &group{keys: keys, aggs: make([]*aggState, len(a.q.Aggs))}
	for i, spec := range a.q.Aggs {
		st := &aggState{intOnly: true}
		if spec.Distinct {
			st.distinct = make(map[string]struct{})
		}
		g.aggs[i] = st
	}
	return g
}

// result finalises the groups, filters with HAVING and evaluates the
// output expressions against the post-aggregation rows.
func (a *aggregator) result() ([]value.Row, error) {
	if len(a.q.GroupBy) == 0 && len(a.groups) == 0 {
		a.groups[""] = a.newGroup(nil)
		a.order = append(a.order, "")
	}
	// Post-aggregation rows: [group keys..., aggregate values...].
	postLayout := analyze.NewLayout() // PostRef evaluation indexes rows directly
	out := make([]value.Row, 0, len(a.groups))
	for _, k := range a.order {
		g := a.groups[k]
		post := make(value.Row, 0, len(a.q.GroupBy)+len(a.q.Aggs))
		post = append(post, g.keys...)
		for i, spec := range a.q.Aggs {
			post = append(post, finalize(g.aggs[i], spec))
		}
		if a.q.Having != nil {
			keep, err := analyze.EvalBool(a.q.Having, post, postLayout)
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
		}
		res := make(value.Row, len(a.q.Outputs))
		for i, o := range a.q.Outputs {
			v, err := analyze.Eval(o.Expr, post, postLayout)
			if err != nil {
				return nil, err
			}
			res[i] = v
		}
		out = append(out, res)
	}
	return out, nil
}

// foldValue folds one already-evaluated argument value into an aggregate
// state: NULL skipping and DISTINCT filtering, then the shared fold.
func foldValue(st *aggState, spec analyze.AggSpec, v value.Value, w int64) error {
	if v.IsNull() {
		return nil // SQL aggregates skip NULLs
	}
	if spec.Distinct {
		k := value.Key([]value.Value{v})
		if _, dup := st.distinct[k]; dup {
			return nil
		}
		st.distinct[k] = struct{}{}
		w = 1 // DISTINCT counts each value once regardless of multiplicity
	}
	return st.fold(v, w, spec)
}

// fold accumulates one non-NULL value with multiplicity w (DISTINCT
// filtering already applied).
func (st *aggState) fold(v value.Value, w int64, spec analyze.AggSpec) error {
	st.count += w
	switch spec.Func {
	case sqlparser.AggCount: // nothing more to track
	default:
		if f, ok := v.AsFloat(); ok {
			st.sum += f * float64(w)
		} else if spec.Func == sqlparser.AggSum || spec.Func == sqlparser.AggAvg {
			return fmt.Errorf("exec: %s over non-numeric %v", spec.Func, v.K)
		}
		if v.K == value.Int && st.intOnly {
			// Keep the exact int64 running sum while it fits; the first
			// prefix that overflows falls back permanently to the float64
			// sum already accumulated above, even if a later term would
			// bring the total back in range (see finalize for the
			// precision trade).
			prod, ok := value.MulInt64(v.I, w)
			if ok {
				st.sumInt, ok = value.AddInt64(st.sumInt, prod)
			}
			st.intOnly = ok
		} else if v.K != value.Int {
			st.intOnly = false
		}
		if !st.nonEmpty {
			st.min, st.max = v, v
		} else {
			if c, err := value.Compare(v, st.min); err == nil && c < 0 {
				st.min = v
			}
			if c, err := value.Compare(v, st.max); err == nil && c > 0 {
				st.max = v
			}
		}
	}
	st.nonEmpty = true
	return nil
}

// finalize extracts the aggregate's value. Integer SUM stays exact
// int64 arithmetic until the running sum would wrap; from then on the
// group's result is the float64 sum — immune to wraparound, at the cost
// of rounding once past 2^53 (values above ~9.2e18 could not be
// represented as int64 anyway).
func finalize(st *aggState, spec analyze.AggSpec) value.Value {
	switch spec.Func {
	case sqlparser.AggCount:
		return value.NewInt(st.count)
	case sqlparser.AggSum:
		if !st.nonEmpty {
			return value.NewNull()
		}
		if st.intOnly {
			return value.NewInt(st.sumInt)
		}
		return value.NewFloat(st.sum)
	case sqlparser.AggAvg:
		if st.count == 0 {
			return value.NewNull()
		}
		return value.NewFloat(st.sum / float64(st.count))
	case sqlparser.AggMin:
		if !st.nonEmpty {
			return value.NewNull()
		}
		return st.min
	case sqlparser.AggMax:
		if !st.nonEmpty {
			return value.NewNull()
		}
		return st.max
	default:
		return value.NewNull()
	}
}

// Dedup removes duplicate rows, preserving first-occurrence order.
func Dedup(rows []value.Row) []value.Row {
	seen := make(map[string]struct{}, len(rows))
	out := rows[:0:0]
	var key []byte
	for _, r := range rows {
		key = value.AppendRowKey(key[:0], r, nil)
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		out = append(out, r)
	}
	return out
}

// SortRows sorts result rows in place by the given output columns. The
// sort is stable so that equal keys preserve input order.
func SortRows(rows []value.Row, keys []analyze.OrderSpec) error {
	var sortErr error
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range keys {
			c, err := value.Compare(rows[i][k.Col], rows[j][k.Col])
			if err != nil {
				sortErr = err
				return false
			}
			if c != 0 {
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	return sortErr
}
