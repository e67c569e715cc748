// Package stats is the data-statistics catalog under the cost-based plan
// optimizer (internal/opt) and the fallback engine's planner: per-table
// row counts, per-constraint distinct-key counts and fan-out
// distributions (mean, p50, p95, max), and per-column NDV plus equi-depth
// histograms for filter selectivity.
//
// The catalog is incrementally maintained through the structures the
// engine already keeps exact under mutation:
//
//   - Per-constraint fan-out distributions read the constraint indices'
//     bucket-cardinality histograms (access.Index.FanoutHist), which the
//     indices update in O(1) on every Insert/Delete — the same observer
//     hooks that maintain the buckets themselves — and which WAL recovery
//     rebuilds by replaying those hooks. They are exact at all times.
//   - Per-table row counts come from the tables' own counters, exact
//     under Insert/Delete/LoadCSV and recovery.
//   - Per-column NDV and histograms are summaries: they are cached
//     against the table's mutation version and recomputed lazily on the
//     first read after any mutation, so a hot mutation path pays nothing
//     and a planner never sees a summary from a stale version.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/bounded-eval/beas/internal/access"
	"github.com/bounded-eval/beas/internal/sqlparser"
	"github.com/bounded-eval/beas/internal/storage"
	"github.com/bounded-eval/beas/internal/value"
)

// histogramBuckets bounds the number of equi-depth buckets per column.
const histogramBuckets = 32

// Fanout is the distribution of distinct Y-values per X-key of one
// access constraint — the actual fan-out, as opposed to the worst-case
// bound N the constraint declares.
type Fanout struct {
	// DistinctKeys is the number of distinct X-values present.
	DistinctKeys int64
	// Tuples is the number of distinct (X, Y) pairs stored.
	Tuples int64
	// Mean is Tuples / DistinctKeys (0 on an empty index).
	Mean float64
	// P50, P95 and Max are quantiles of the bucket-cardinality
	// distribution.
	P50, P95, Max int
}

// Column summarises one column of a table.
type Column struct {
	Name string
	// NDV is the number of distinct non-NULL values.
	NDV int
	// Nulls counts NULL entries.
	Nulls int64
	// Hist is the equi-depth histogram over non-NULL values; nil when the
	// column is empty.
	Hist *Histogram
}

// Table summarises one table.
type Table struct {
	Rows    int
	Columns []Column
}

// Histogram is an equi-depth histogram: Bounds[i] is the inclusive upper
// bound of bucket i, Counts[i] the number of rows in it. Buckets are
// ordered by the engine's total value order (NULLs excluded, NaN last).
type Histogram struct {
	Bounds []value.Value
	Counts []int64
	Total  int64
}

// LessFraction estimates the fraction of non-NULL values v' with
// v' < v (or v' <= v when orEqual). Values inside the boundary bucket
// contribute half of it.
func (h *Histogram) LessFraction(v value.Value, orEqual bool) float64 {
	if h == nil || h.Total == 0 {
		return 1.0 / 3
	}
	var below int64
	for i, bound := range h.Bounds {
		cmp, err := value.Compare(bound, v)
		if err != nil {
			return 1.0 / 3
		}
		if cmp < 0 {
			below += h.Counts[i]
			continue
		}
		// v falls in (or at the edge of) bucket i: count half of it, the
		// textbook intra-bucket interpolation.
		if cmp == 0 && orEqual {
			below += h.Counts[i]
		} else {
			below += h.Counts[i] / 2
		}
		break
	}
	f := float64(below) / float64(h.Total)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Catalog serves statistics over one database instance. It is safe for
// concurrent use; readers of constraint fan-outs never block mutators
// beyond the indices' own shard locks, and a column-summary recompute
// for one table (triggered by its first lookup after a mutation) blocks
// only lookups of that same table — the catalog-wide lock guards the
// entry map alone.
type Catalog struct {
	store *storage.Store
	as    *access.Schema

	mu     sync.Mutex // guards the tables map only
	tables map[string]*tableEntry
}

type tableEntry struct {
	mu      sync.Mutex // guards this table's cached summary
	valid   bool
	version uint64
	t       *Table
}

// NewCatalog creates a catalog over the store and access schema.
func NewCatalog(store *storage.Store, as *access.Schema) *Catalog {
	return &Catalog{store: store, as: as, tables: make(map[string]*tableEntry)}
}

// Rows returns the exact current row count of a table (0 for unknown
// tables).
func (c *Catalog) Rows(table string) int {
	t, ok := c.store.Table(table)
	if !ok {
		return 0
	}
	return t.Len()
}

// Table returns the cached per-column summary of a table, recomputing it
// when the table has mutated since the cached version.
func (c *Catalog) Table(name string) (*Table, bool) {
	t, ok := c.store.Table(name)
	if !ok {
		return nil, false
	}
	key := strings.ToLower(name)
	c.mu.Lock()
	e, ok := c.tables[key]
	if !ok {
		e = &tableEntry{}
		c.tables[key] = e
	}
	c.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.valid && e.version == t.Version() {
		return e.t, true
	}
	t.WithRows(func(rows []value.Row, version uint64) {
		e.t = summarise(t, rows)
		e.version = version
		e.valid = true
	})
	return e.t, true
}

// summarise builds the per-column summary from a consistent row snapshot.
func summarise(t *storage.Table, rows []value.Row) *Table {
	arity := t.Rel.Arity()
	ts := &Table{Rows: len(rows), Columns: make([]Column, arity)}
	for ci := 0; ci < arity; ci++ {
		col := &ts.Columns[ci]
		col.Name = t.Rel.Attrs[ci].Name
		distinct := make(map[string]value.Value)
		var kb []byte
		for _, r := range rows {
			v := r[ci]
			if v.IsNull() {
				col.Nulls++
				continue
			}
			kb = value.AppendKey(kb[:0], v)
			if _, seen := distinct[string(kb)]; !seen {
				distinct[string(kb)] = v
			}
		}
		col.NDV = len(distinct)
		col.Hist = buildHistogram(rows, ci)
	}
	return ts
}

// buildHistogram sorts the column's non-NULL values and cuts them into
// up to histogramBuckets equi-depth buckets.
func buildHistogram(rows []value.Row, ci int) *Histogram {
	vals := sortedValues(rows, ci)
	if len(vals) == 0 {
		return nil
	}
	n := histogramBuckets
	if len(vals) < n {
		n = len(vals)
	}
	h := &Histogram{Total: int64(len(vals))}
	per := len(vals) / n
	rem := len(vals) % n
	pos := 0
	for b := 0; b < n && pos < len(vals); b++ {
		size := per
		if b < rem {
			size++
		}
		end := pos + size
		if end > len(vals) {
			end = len(vals)
		}
		// Extend the bucket through equal values so a bound never splits
		// an equal-value run (keeps LessFraction monotone).
		for end < len(vals) {
			cmp, err := value.Compare(vals[end-1], vals[end])
			if err != nil || cmp != 0 {
				break
			}
			end++
		}
		h.Bounds = append(h.Bounds, vals[end-1])
		h.Counts = append(h.Counts, int64(end-pos))
		pos = end
	}
	// Run extension can consume later buckets' shares; fold any remainder
	// into the last bucket so Σ Counts == Total.
	if pos < len(vals) {
		h.Counts[len(h.Counts)-1] += int64(len(vals) - pos)
		h.Bounds[len(h.Bounds)-1] = vals[len(vals)-1]
	}
	return h
}

// sortedValues returns the column's non-NULL values in stable ascending
// order. It sorts int32 row positions, breaking value.Compare ties (and
// incomparable pairs) on position, which is exactly the stable order,
// and gathers the values once at the end instead of moving 40-byte
// Values through every swap.
func sortedValues(rows []value.Row, ci int) []value.Value {
	perm := make([]int32, 0, len(rows))
	for i, r := range rows {
		if !r[ci].IsNull() {
			perm = append(perm, int32(i))
		}
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if c, err := value.Compare(rows[a][ci], rows[b][ci]); err == nil && c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	vals := make([]value.Value, len(perm))
	for i, p := range perm {
		vals[i] = rows[p][ci]
	}
	return vals
}

// NDV returns the number of distinct non-NULL values of a column, or
// (0, false) when the table or column is unknown.
func (c *Catalog) NDV(table, column string) (int, bool) {
	t, ok := c.store.Table(table)
	if !ok {
		return 0, false
	}
	ci, ok := t.Rel.AttrIndex(column)
	if !ok {
		return 0, false
	}
	ts, ok := c.Table(table)
	if !ok || ci >= len(ts.Columns) {
		return 0, false
	}
	return ts.Columns[ci].NDV, true
}

// Constraint returns the live fan-out distribution of a registered
// constraint, derived from its index's incrementally maintained
// bucket-cardinality histogram.
func (c *Catalog) Constraint(con *access.Constraint) (Fanout, bool) {
	idx, ok := c.as.Index(con)
	if !ok || idx == nil {
		return Fanout{}, false
	}
	return fanoutFromHist(idx.FanoutHist()), true
}

// fanoutFromHist folds a bucket-cardinality histogram into the summary
// distribution.
func fanoutFromHist(hist map[int]int64) Fanout {
	var f Fanout
	sizes := make([]int, 0, len(hist))
	for k, n := range hist {
		sizes = append(sizes, k)
		f.DistinctKeys += n
		f.Tuples += int64(k) * n
	}
	if f.DistinctKeys == 0 {
		return f
	}
	f.Mean = float64(f.Tuples) / float64(f.DistinctKeys)
	sort.Ints(sizes)
	f.Max = sizes[len(sizes)-1]
	f.P50 = quantile(sizes, hist, f.DistinctKeys, 0.50)
	f.P95 = quantile(sizes, hist, f.DistinctKeys, 0.95)
	return f
}

// quantile returns the smallest bucket cardinality k such that at least
// ⌈q·total⌉ keys have cardinality <= k.
func quantile(sizes []int, hist map[int]int64, total int64, q float64) int {
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for _, k := range sizes {
		cum += hist[k]
		if cum >= target {
			return k
		}
	}
	return sizes[len(sizes)-1]
}

// SelectivityEq estimates the fraction of rows with column = const:
// 1/NDV, the textbook uniform estimate over the live distinct count.
func (c *Catalog) SelectivityEq(table, column string) float64 {
	ndv, ok := c.NDV(table, column)
	if !ok || ndv == 0 {
		return 0.1
	}
	return 1 / float64(ndv)
}

// SelectivityCmp estimates the fraction of rows satisfying
// "column op const" from the column's equi-depth histogram.
func (c *Catalog) SelectivityCmp(table, column string, op sqlparser.BinOp, v value.Value) float64 {
	if v.IsNull() {
		return 0 // comparisons with NULL are never true
	}
	switch op {
	case sqlparser.OpEq:
		return c.SelectivityEq(table, column)
	case sqlparser.OpNe:
		return 1 - c.SelectivityEq(table, column)
	}
	h := c.histogram(table, column)
	if h == nil {
		return 1.0 / 3
	}
	switch op {
	case sqlparser.OpLt:
		return h.LessFraction(v, false)
	case sqlparser.OpLe:
		return h.LessFraction(v, true)
	case sqlparser.OpGt:
		return 1 - h.LessFraction(v, true)
	case sqlparser.OpGe:
		return 1 - h.LessFraction(v, false)
	default:
		return 1.0 / 3
	}
}

func (c *Catalog) histogram(table, column string) *Histogram {
	t, ok := c.store.Table(table)
	if !ok {
		return nil
	}
	ci, ok := t.Rel.AttrIndex(column)
	if !ok {
		return nil
	}
	ts, ok := c.Table(table)
	if !ok || ci >= len(ts.Columns) {
		return nil
	}
	return ts.Columns[ci].Hist
}

// ConstraintSummary is one row of the catalog's observability dump.
type ConstraintSummary struct {
	Spec         string
	Bound        int
	DistinctKeys int64
	Tuples       int64
	MeanFanout   float64
	P50, P95     int
	MaxFanout    int
}

// TableSummary is one row of the catalog's observability dump.
type TableSummary struct {
	Name string
	Rows int
}

// Summary dumps the catalog for monitoring (beasd's /stats): exact row
// counts per table and the live fan-out distribution per constraint.
func (c *Catalog) Summary() ([]TableSummary, []ConstraintSummary) {
	var ts []TableSummary
	for _, name := range c.store.Names() {
		t, _ := c.store.Table(name)
		ts = append(ts, TableSummary{Name: name, Rows: t.Len()})
	}
	var cs []ConstraintSummary
	for _, con := range c.as.Constraints() {
		f, ok := c.Constraint(con)
		if !ok {
			continue
		}
		cs = append(cs, ConstraintSummary{
			Spec:         con.String(),
			Bound:        con.N,
			DistinctKeys: f.DistinctKeys,
			Tuples:       f.Tuples,
			MeanFanout:   f.Mean,
			P50:          f.P50,
			P95:          f.P95,
			MaxFanout:    f.Max,
		})
	}
	return ts, cs
}

// String renders the summary for debugging.
func (c *Catalog) String() string {
	ts, cs := c.Summary()
	var b strings.Builder
	for _, t := range ts {
		fmt.Fprintf(&b, "table %s: %d rows\n", t.Name, t.Rows)
	}
	for _, s := range cs {
		fmt.Fprintf(&b, "constraint %s: %d keys, %d tuples, fanout mean %.2f p50 %d p95 %d max %d\n",
			s.Spec, s.DistinctKeys, s.Tuples, s.MeanFanout, s.P50, s.P95, s.MaxFanout)
	}
	return b.String()
}
