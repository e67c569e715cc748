// Package engine is the conventional query engine under BEAS: a
// cost-based planner (filter pushdown, join ordering) over batched
// streaming scans, with hash, sort-merge and nested-loop joins.
//
// Execution is a pull pipeline with one batch protocol: every operator
// is an iter.ColIterator. Scans fill column vectors straight from
// storage and run pushed-down filters as selection loops, joins
// materialise only their build side and stream the probe side batch by
// batch, residual conjuncts refine selection vectors, and the relational
// tail (exec.StreamCol) pulls column batches from the root and projects
// them to rows. Intermediate relations are therefore never materialised
// wholesale — a LIMIT query without ORDER BY stops the scans after
// enough rows.
//
// The engine plays two roles from the paper:
//
//   - the "underlying DBMS" that executes non-covered (sub-)queries, and
//   - the commercial comparators (PostgreSQL / MySQL / MariaDB) of the
//     demo's evaluation, emulated by three profiles that differ in join
//     algorithm (hash or sort-merge), join-ordering strategy (dynamic
//     programming or greedy) and projection pushdown (PostgreSQL narrows
//     scans to the attributes the query uses; MySQL and MariaDB carry
//     full-width tuples through the plan). The emulation preserves the
//     property under study — conventional plans read Θ(|D|) data, so
//     their cost grows linearly with the database — and PostgreSQL is
//     the fastest of the three, as in the paper. On TLC Q1 (2-vCPU
//     host) PostgreSQL took 2.3–2.6 ms at scale 5 and 16–19 ms at scale
//     20, MySQL 23–27 and 78–89 ms, MariaDB 26–30 and 77–85 ms: MySQL and
//     MariaDB are within about 10 % of each other, so the paper's "MySQL
//     slowest" is not reproduced reliably.
package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/bounded-eval/beas/internal/analyze"
	"github.com/bounded-eval/beas/internal/exec"
	"github.com/bounded-eval/beas/internal/iter"
	"github.com/bounded-eval/beas/internal/obs"
	"github.com/bounded-eval/beas/internal/stats"
	"github.com/bounded-eval/beas/internal/storage"
	"github.com/bounded-eval/beas/internal/value"
)

// JoinAlgo selects the physical join operator.
type JoinAlgo uint8

// Join algorithms.
const (
	HashJoin JoinAlgo = iota
	SortMergeJoin
	NestedLoopJoin
)

// String names the algorithm.
func (a JoinAlgo) String() string {
	switch a {
	case HashJoin:
		return "hash join"
	case SortMergeJoin:
		return "sort-merge join"
	case NestedLoopJoin:
		return "nested-loop join"
	default:
		return "join"
	}
}

// OrderStrategy selects the join-ordering algorithm.
type OrderStrategy uint8

// Join ordering strategies.
const (
	// OrderDP enumerates left-deep orders by dynamic programming over the
	// estimated cardinalities.
	OrderDP OrderStrategy = iota
	// OrderGreedy starts from the smallest filtered relation and greedily
	// joins the connected relation with the smallest estimated result.
	OrderGreedy
	// OrderAsWritten joins in FROM-clause order.
	OrderAsWritten
)

// Profile configures the engine to emulate a conventional DBMS.
type Profile struct {
	Name string
	Join JoinAlgo
	// Order is the join-ordering strategy.
	Order OrderStrategy
	// ProjectionPushdown, when set, narrows scan output to the attributes
	// the query uses; otherwise scans carry full-width tuples through the
	// plan (the redundancy the paper's feature (2) eliminates).
	ProjectionPushdown bool
}

// The three baseline profiles used in the paper's evaluation, plus the
// default profile BEAS itself delegates non-covered queries to.
var (
	// ProfilePostgres emulates the strongest baseline: DP join ordering,
	// hash joins, projection pushdown.
	ProfilePostgres = Profile{Name: "postgresql", Join: HashJoin, Order: OrderDP, ProjectionPushdown: true}
	// ProfileMariaDB emulates MariaDB: greedy ordering, hash joins,
	// full-width tuples.
	ProfileMariaDB = Profile{Name: "mariadb", Join: HashJoin, Order: OrderGreedy}
	// ProfileMySQL emulates MySQL: greedy ordering, sort-merge joins,
	// full-width tuples.
	ProfileMySQL = Profile{Name: "mysql", Join: SortMergeJoin, Order: OrderGreedy}
)

// OpStat records one physical operator's work, for the per-operation
// breakdown of the demo's performance analyser (Fig. 3). With streaming
// execution Duration is cumulative time spent in the operator's subtree.
type OpStat struct {
	Op       string
	RowsIn   int64
	RowsOut  int64
	Duration time.Duration
	// EstRows is the planner's cardinality estimate for the operator's
	// output (scans and joins; 0 where no estimate applies), the
	// estimated-vs-actual signal EXPLAIN ANALYZE reports for the
	// conventional part of a plan.
	EstRows float64
}

// Stats aggregates conventional-plan execution statistics. Counters
// accrue while the plan streams; they are final once the result iterator
// is exhausted or closed.
type Stats struct {
	Scanned  int64 // base rows read from storage
	RowsOut  int64
	Ops      []OpStat
	Duration time.Duration
}

// opTracker accumulates one operator's counters during streaming; the
// finaliser turns trackers into OpStats in plan order.
type opTracker struct {
	op      string
	rowsIn  int64
	rowsOut int64
	dur     time.Duration
	est     float64
}

// Engine executes resolved queries against a store under a profile.
type Engine struct {
	store *storage.Store
	prof  Profile
	// stats, when non-nil, is the data-statistics catalog: scan and join
	// selectivities come from live NDVs and histograms instead of the
	// magic constants, hash joins build on the estimated-smaller side,
	// and OpStats carry the estimates. nil keeps the historical planner
	// byte-for-byte (the baseline profiles always run without it).
	stats *stats.Catalog
	// batch is the row capacity of the column batches every operator
	// produces (iter.BatchSize by default).
	batch int
}

// New creates an engine over store with the given profile.
func New(store *storage.Store, prof Profile) *Engine {
	return &Engine{store: store, prof: prof, batch: iter.BatchSize}
}

// WithVectorized returns the engine unchanged: every operator, from the
// scans to the relational tail, runs on column batches.
//
// Deprecated: kept only so existing callers compile.
func (e *Engine) WithVectorized(bool) *Engine { return e }

// WithBatchSize sets the columnar batch row capacity and returns the
// engine (n ≤ 0 keeps the default). Call at construction time only.
func (e *Engine) WithBatchSize(n int) *Engine {
	if n > 0 {
		e.batch = n
	}
	return e
}

// WithStats attaches a data-statistics catalog and returns the engine.
// Call at construction time only (before the engine is shared): the
// planner then estimates selectivities from live NDVs and equi-depth
// histograms and picks hash-join build sides by estimated cardinality.
func (e *Engine) WithStats(cat *stats.Catalog) *Engine {
	e.stats = cat
	return e
}

// Profile returns the engine's profile.
func (e *Engine) Profile() Profile { return e.prof }

// Source is a pre-materialised relation standing in for one or more atoms
// of the query — the partially bounded optimizer materialises covered
// sub-queries this way and hands them to the conventional engine.
type Source struct {
	Atoms []int
	Cols  []analyze.ColID
	Rows  []value.Row
	Name  string
}

// unit is an intermediate relation during join planning: the operator
// that will produce its column batches (column j holds layout slot j)
// plus the metadata the planner needs.
type unit struct {
	atoms  map[int]bool
	cols   []analyze.ColID
	layout *analyze.Layout
	cit    iter.ColIterator
	est    float64
	name   string
}

func newUnit(name string, atoms []int, cols []analyze.ColID, cit iter.ColIterator, est float64) *unit {
	u := &unit{atoms: make(map[int]bool), cols: cols, cit: cit, layout: analyze.NewLayout(), name: name, est: est}
	for _, a := range atoms {
		u.atoms[a] = true
	}
	for _, c := range cols {
		u.layout.Add(c)
	}
	return u
}

func (u *unit) hasAtoms(refs []int) bool {
	for _, a := range refs {
		if !u.atoms[a] {
			return false
		}
	}
	return true
}

// RunContext plans and executes the query with streaming scans for every
// atom. Cancellation or deadline expiry halts the scans — and with them
// any join build or sort drain pulling from them — at the next batch
// boundary.
func (e *Engine) RunContext(ctx context.Context, q *analyze.Query) ([]value.Row, *Stats, error) {
	it, st, err := e.StreamContext(ctx, q, nil)
	if err != nil {
		return nil, st, err
	}
	rows, _, err := iter.Collect(it)
	if err != nil {
		return nil, st, err
	}
	return rows, st, nil
}

// StreamContext plans the query, with some atoms replaced by
// pre-materialised sources (partially bounded evaluation), and returns a
// pull iterator over the final result rows. Statistics accrue in st
// while the iterator is consumed and are final once it is exhausted or
// closed; closing early (LIMIT) abandons the rest of the pipeline
// without executing it.
//
// Every scan checks ctx before producing a batch, which propagates
// cancellation into the blocking loops that pull from scans (hash-join
// builds, sort-merge drains, aggregation folds) — a cancelled
// conventional plan stops reading the database mid-join rather than at
// the next result row.
func (e *Engine) StreamContext(ctx context.Context, q *analyze.Query, sources []Source) (iter.Iterator, *Stats, error) {
	start := time.Now()
	st := &Stats{}
	var trackers []*opTracker

	applied := make([]bool, len(q.Conjuncts))
	covered := make(map[int]bool)
	var units []*unit

	// Pre-materialised sources: their internal conjuncts are already
	// applied by the bounded executor.
	for _, s := range sources {
		u := newUnit(s.Name, s.Atoms, s.Cols, iter.ColFromRows(s.Rows, nil, len(s.Cols), e.batch), float64(len(s.Rows)))
		units = append(units, u)
		for _, a := range s.Atoms {
			covered[a] = true
		}
		for ci, c := range q.Conjuncts {
			if u.hasAtoms(c.Refs) {
				applied[ci] = true
			}
		}
	}

	// Streaming scans for the remaining atoms with filter (and optionally
	// projection) pushdown.
	for ai := range q.Atoms {
		if covered[ai] {
			continue
		}
		u, err := e.scanAtom(ctx, q, ai, applied, st, &trackers)
		if err != nil {
			return nil, st, err
		}
		units = append(units, u)
	}

	// Join ordering, then compose the iterator tree: the accumulated
	// chain streams as the probe side of each join.
	order, err := e.joinOrder(q, units, applied)
	if err != nil {
		return nil, st, err
	}
	cur := units[order[0]]
	for _, idx := range order[1:] {
		cur, err = e.join(q, cur, units[idx], applied, &trackers)
		if err != nil {
			return nil, st, err
		}
	}

	// Residual conjuncts (anything not yet applied), one selection stage
	// each.
	for ci, ok := range applied {
		if ok {
			continue
		}
		c := q.Conjuncts[ci]
		tr := &opTracker{op: "filter " + c.String()}
		trackers = append(trackers, tr)
		cur.cit = &residualOp{in: cur.cit, filter: analyze.CompileFilters([]analyze.Expr{c.Expr}, cur.layout), tr: tr}
		applied[ci] = true
	}

	// Relational tail over the root's column batches.
	tailName := "project"
	if q.IsAgg {
		tailName = "aggregate"
	}
	tailTr := &opTracker{op: tailName}
	trackers = append(trackers, tailTr)
	tailIn := iter.CountedCols(cur.cit, &tailTr.rowsIn)
	out := iter.Counted(exec.StreamCol(q, tailIn, cur.layout), &tailTr.rowsOut)

	final := iter.OnClose(iter.WithContext(ctx, out), func() {
		st.Ops = make([]OpStat, len(trackers))
		for i, tr := range trackers {
			st.Ops[i] = OpStat{Op: tr.op, RowsIn: tr.rowsIn, RowsOut: tr.rowsOut, Duration: tr.dur, EstRows: tr.est}
		}
		st.RowsOut = tailTr.rowsOut
		st.Duration = time.Since(start)
		if trace, parent := obs.FromContext(ctx); trace != nil {
			for _, o := range st.Ops {
				attrs := []obs.Attr{
					{Key: "rowsIn", Val: o.RowsIn},
					{Key: "rowsOut", Val: o.RowsOut},
				}
				if o.EstRows != 0 {
					attrs = append(attrs, obs.Attr{Key: "estRows", Val: o.EstRows})
				}
				trace.AddSpan(parent, "op "+o.Op, start, o.Duration, attrs...)
			}
		}
	})
	return final, st, nil
}

// residualOp streams the rows that satisfy one residual conjunct,
// refining each input batch's selection vector.
type residualOp struct {
	in     iter.ColIterator
	filter *analyze.VecFilter
	tr     *opTracker
}

func (f *residualOp) Open() error  { return f.in.Open() }
func (f *residualOp) Close() error { return f.in.Close() }

func (f *residualOp) NextCols(b *iter.ColBatch) (bool, error) {
	t0 := time.Now()
	defer func() { f.tr.dur += time.Since(t0) }()
	for {
		ok, err := f.in.NextCols(b)
		if err != nil || !ok {
			return false, err
		}
		f.tr.rowsIn += int64(b.Len())
		if err := f.filter.Apply(b); err != nil {
			return false, err
		}
		if n := b.Len(); n > 0 {
			f.tr.rowsOut += int64(n)
			return true, nil
		}
	}
}

// scanAtom produces the unit for one atom: a streaming scan applying
// single-atom conjuncts and projecting according to the profile.
func (e *Engine) scanAtom(ctx context.Context, q *analyze.Query, ai int, applied []bool, st *Stats, trackers *[]*opTracker) (*unit, error) {
	atom := q.Atoms[ai]
	table, ok := e.store.Table(atom.Rel.Name)
	if !ok {
		return nil, fmt.Errorf("engine: no table for relation %q", atom.Rel.Name)
	}

	// Single-atom conjuncts push down to the scan.
	var filters []analyze.Conjunct
	for ci, c := range q.Conjuncts {
		if !applied[ci] && len(c.Refs) == 1 && c.Refs[0] == ai {
			filters = append(filters, c)
			applied[ci] = true
		}
	}

	// Output columns: used attributes under projection pushdown, the full
	// relation otherwise.
	var cols []analyze.ColID
	if e.prof.ProjectionPushdown {
		for _, attr := range q.UsedAttrs(ai) {
			cols = append(cols, analyze.ColID{Atom: ai, Attr: attr})
		}
	} else {
		for attr := range atom.Rel.Attrs {
			cols = append(cols, analyze.ColID{Atom: ai, Attr: attr})
		}
	}
	proj := make([]int, len(cols))
	for i, c := range cols {
		proj[i] = c.Attr
	}

	tr := &opTracker{op: fmt.Sprintf("scan %s (%s)", atom.Name, atom.Rel.Name)}
	*trackers = append(*trackers, tr)
	est := e.estimateScan(q, ai, table, filters)
	tr.est = est

	// The cursor fills typed column vectors directly and pushed-down
	// filters run as vectorized selection loops. Valid under projection
	// pushdown because UsedAttrs includes every WHERE column, so the
	// projected layout materialises everything the filters read.
	cop := &colScanOp{
		ctx:     ctx,
		table:   table,
		cols:    proj,
		batch:   e.batch,
		tr:      tr,
		scanned: &st.Scanned,
	}
	u := newUnit(atom.Name, []int{ai}, cols, cop, est)
	if len(filters) > 0 {
		exprs := make([]analyze.Expr, len(filters))
		for i, f := range filters {
			exprs[i] = f.Expr
		}
		cop.filter = analyze.CompileFilters(exprs, u.layout)
	}
	return u, nil
}

// colScanOp is the columnar scan: the storage cursor appends projected
// attributes straight into typed column vectors, and pushed-down filters
// run as vectorized comparison loops writing a selection vector (with a
// scalar fallback inside VecFilter for anything exotic).
type colScanOp struct {
	ctx     context.Context
	table   *storage.Table
	filter  *analyze.VecFilter
	cols    []int // attr positions to project, in layout order
	batch   int
	tr      *opTracker
	scanned *int64

	cur *storage.Cursor
}

func (s *colScanOp) Open() error {
	s.cur = s.table.Scan()
	return nil
}

func (s *colScanOp) Close() error { return nil }

func (s *colScanOp) NextCols(cb *iter.ColBatch) (bool, error) {
	t0 := time.Now()
	defer func() { s.tr.dur += time.Since(t0) }()
	if err := s.ctx.Err(); err != nil {
		return false, err
	}
	for {
		cb.Reset(len(s.cols))
		n, err := s.cur.NextCols(cb, s.cols, s.batch)
		if err != nil {
			return false, err
		}
		if n == 0 {
			return false, nil
		}
		s.tr.rowsIn += int64(n)
		*s.scanned += int64(n)
		if s.filter != nil {
			if err := s.filter.Apply(cb); err != nil {
				return false, err
			}
		}
		if cb.Len() > 0 {
			s.tr.rowsOut += int64(cb.Len())
			return true, nil
		}
	}
}

// estimateScan estimates the filtered cardinality of an atom using the
// table statistics and textbook selectivities; with a statistics catalog
// attached, equality selectivities use live NDVs and range predicates
// use the column's equi-depth histogram instead of the 1/3 constant.
func (e *Engine) estimateScan(q *analyze.Query, ai int, table *storage.Table, filters []analyze.Conjunct) float64 {
	ts := table.Stats()
	est := float64(ts.RowCount)
	for _, f := range filters {
		if e.stats != nil {
			est *= e.catalogSelectivity(q, f)
		} else {
			est *= selectivity(f, ts)
		}
	}
	if est < 1 {
		est = 1
	}
	return est
}

func selectivity(c analyze.Conjunct, stats *storage.TableStats) float64 {
	distinct := func(id analyze.ColID) float64 {
		if id.Attr < len(stats.Distinct) && stats.Distinct[id.Attr] > 0 {
			return float64(stats.Distinct[id.Attr])
		}
		return 10
	}
	switch c.Kind {
	case analyze.EqAttrConst:
		return 1 / distinct(c.A)
	case analyze.InConsts:
		return float64(len(c.Vals)) / distinct(c.A)
	case analyze.CmpConst:
		return 1.0 / 3
	case analyze.EqAttrAttr, analyze.CmpAttrAttr:
		return 1.0 / 3
	default:
		return 1.0 / 2
	}
}

// catalogSelectivity estimates one conjunct from the statistics catalog.
func (e *Engine) catalogSelectivity(q *analyze.Query, c analyze.Conjunct) float64 {
	name := func(id analyze.ColID) (string, string) {
		rel := q.Atoms[id.Atom].Rel
		return rel.Name, rel.Attrs[id.Attr].Name
	}
	switch c.Kind {
	case analyze.EqAttrConst:
		t, col := name(c.A)
		return e.stats.SelectivityEq(t, col)
	case analyze.InConsts:
		t, col := name(c.A)
		s := float64(len(c.Vals)) * e.stats.SelectivityEq(t, col)
		if s > 1 {
			s = 1
		}
		return s
	case analyze.CmpConst:
		t, col := name(c.A)
		return e.stats.SelectivityCmp(t, col, c.Op, c.Val)
	case analyze.EqAttrAttr, analyze.CmpAttrAttr:
		return 1.0 / 3
	default:
		return 1.0 / 2
	}
}

// joinOrder returns the order in which units are joined (indices into
// units); the first element is the streaming probe chain's start.
func (e *Engine) joinOrder(q *analyze.Query, units []*unit, applied []bool) ([]int, error) {
	n := len(units)
	if n == 0 {
		return nil, fmt.Errorf("engine: no relations to join")
	}
	if n == 1 {
		return []int{0}, nil
	}
	switch e.prof.Order {
	case OrderAsWritten:
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out, nil
	case OrderGreedy:
		return e.greedyOrder(q, units, applied), nil
	default:
		return e.dpOrder(q, units, applied), nil
	}
}

// joinSelectivity reports whether an unapplied equi-join conjunct links a
// unit set with unit right, and returns the estimated join selectivity.
// With a statistics catalog the selectivity of each linking equality is
// 1/max(NDV) over its two columns; without, the historical 0.01.
func (e *Engine) joinSelectivity(q *analyze.Query, units []*unit, leftAtoms map[int]bool, right *unit) (float64, bool) {
	sel := 1.0
	linked := false
	for _, c := range q.Conjuncts {
		if c.Kind != analyze.EqAttrAttr {
			continue
		}
		aLeft, bLeft := leftAtoms[c.A.Atom], leftAtoms[c.B.Atom]
		aRight, bRight := right.atoms[c.A.Atom], right.atoms[c.B.Atom]
		if (aLeft && bRight) || (bLeft && aRight) {
			linked = true
			sel *= e.equiSelectivity(q, c)
		}
	}
	return sel, linked
}

// equiSelectivity estimates one linking equality conjunct.
func (e *Engine) equiSelectivity(q *analyze.Query, c analyze.Conjunct) float64 {
	if e.stats == nil {
		return 0.01 // generic equi-join selectivity against the FK side
	}
	n := 0
	for _, id := range []analyze.ColID{c.A, c.B} {
		rel := q.Atoms[id.Atom].Rel
		if ndv, ok := e.stats.NDV(rel.Name, rel.Attrs[id.Attr].Name); ok && ndv > n {
			n = ndv
		}
	}
	if n <= 0 {
		return 0.01
	}
	return 1 / float64(n)
}

// greedyOrder: start with the smallest unit; repeatedly append the
// connected unit minimising the estimated intermediate size.
func (e *Engine) greedyOrder(q *analyze.Query, units []*unit, applied []bool) []int {
	n := len(units)
	used := make([]bool, n)
	start := 0
	for i := 1; i < n; i++ {
		if units[i].est < units[start].est {
			start = i
		}
	}
	order := []int{start}
	used[start] = true
	curAtoms := copyAtomSet(units[start].atoms)
	curEst := units[start].est
	for len(order) < n {
		best, bestEst := -1, 0.0
		for j := 0; j < n; j++ {
			if used[j] {
				continue
			}
			sel, linked := e.joinSelectivity(q, units, curAtoms, units[j])
			est := curEst * units[j].est * sel
			if !linked {
				est = curEst * units[j].est // cross product
			}
			if best < 0 || est < bestEst {
				best, bestEst = j, est
			}
		}
		order = append(order, best)
		used[best] = true
		for a := range units[best].atoms {
			curAtoms[a] = true
		}
		curEst = bestEst
		if curEst < 1 {
			curEst = 1
		}
	}
	return order
}

// dpOrder enumerates left-deep join orders by DP over unit subsets,
// minimising the sum of estimated intermediate cardinalities.
func (e *Engine) dpOrder(q *analyze.Query, units []*unit, applied []bool) []int {
	n := len(units)
	if n > 14 {
		return e.greedyOrder(q, units, applied) // cap DP blow-up
	}
	type state struct {
		cost float64 // Σ intermediate sizes
		rows float64 // estimated rows of the subset join
		last int
		prev int // previous subset mask
	}
	states := make(map[int]state)
	for i := 0; i < n; i++ {
		states[1<<i] = state{cost: 0, rows: units[i].est, last: i, prev: 0}
	}
	full := (1 << n) - 1
	for mask := 1; mask <= full; mask++ {
		s, ok := states[mask]
		if !ok {
			continue
		}
		atoms := make(map[int]bool)
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				for a := range units[i].atoms {
					atoms[a] = true
				}
			}
		}
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				continue
			}
			sel, linked := e.joinSelectivity(q, units, atoms, units[j])
			rows := s.rows * units[j].est * sel
			if !linked {
				rows = s.rows * units[j].est
			}
			if rows < 1 {
				rows = 1
			}
			next := mask | 1<<j
			cost := s.cost + rows
			if old, ok := states[next]; !ok || cost < old.cost {
				states[next] = state{cost: cost, rows: rows, last: j, prev: mask}
			}
		}
	}
	// Reconstruct.
	order := make([]int, 0, n)
	mask := full
	for mask != 0 {
		s := states[mask]
		order = append(order, s.last)
		mask = s.prev
	}
	// Reverse.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

func copyAtomSet(m map[int]bool) map[int]bool {
	out := make(map[int]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Describe renders the plan the engine would choose, for EXPLAIN output.
func (e *Engine) Describe(q *analyze.Query) string {
	var b strings.Builder
	fmt.Fprintf(&b, "conventional plan (%s profile):\n", e.prof.Name)
	names := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		names[i] = a.Name
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "  scan %s; %s; %v ordering\n",
		strings.Join(names, ", "), e.prof.Join, orderName(e.prof.Order))
	return b.String()
}

func orderName(o OrderStrategy) string {
	switch o {
	case OrderDP:
		return "dynamic-programming"
	case OrderGreedy:
		return "greedy"
	default:
		return "as-written"
	}
}
