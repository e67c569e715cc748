package beas

import (
	"fmt"
	"strings"
	"time"

	"github.com/bounded-eval/beas/internal/value"
)

// Value is a typed SQL scalar. It is an alias so that callers outside
// this module can name result values directly.
type Value = value.Value

// Row is one result tuple.
type Row = value.Row

// Mode says how a query was evaluated.
type Mode string

// Evaluation modes.
const (
	// ModeBounded: the query was covered; the plan accessed data only
	// through constraint indices.
	ModeBounded Mode = "bounded"
	// ModePartial: not covered; the covered sub-query ran boundedly, the
	// rest conventionally.
	ModePartial Mode = "partially-bounded"
	// ModeConventional: no atom was fetchable; pure conventional plan.
	ModeConventional Mode = "conventional"
	// ModeEmpty: contradictory constants; the empty answer was returned
	// without touching data.
	ModeEmpty Mode = "empty-guaranteed"
)

// StepStat reports one fetch step of a bounded plan: its identity, the
// actual work counters, the a-priori worst-case bounds and (optimizer
// on) the statistics-based estimates — the estimated-vs-actual rows of
// EXPLAIN ANALYZE.
type StepStat struct {
	Atom        string
	Constraint  string
	DistinctKey int64
	Fetched     int64
	RowsOut     int64
	Duration    time.Duration

	// KeyBound / OutBound are the step's worst-case bounds deduced before
	// execution; EstKeys / EstFetched / EstRows the cost-based
	// optimizer's estimates (zero when the optimizer is off).
	KeyBound, OutBound           uint64
	EstKeys, EstFetched, EstRows float64
}

// OpStat reports one conventional physical operator.
type OpStat struct {
	Op       string
	RowsIn   int64
	RowsOut  int64
	Duration time.Duration
	// EstRows is the planner's cardinality estimate for the operator's
	// output (0 where no estimate applies).
	EstRows float64
}

// Stats describes how a query was executed — the data behind the demo's
// performance analyser (Fig. 3).
type Stats struct {
	Mode    Mode
	Covered bool
	// Optimized reports that the cost-based optimizer was consulted for
	// this query (its estimates then appear on the fetch steps).
	Optimized bool
	// Bound is the deduced a-priori bound M on tuples fetched (covered
	// queries only).
	Bound uint64
	// ConstraintsUsed is the number of distinct access constraints in the
	// plan.
	ConstraintsUsed int
	// TuplesFetched counts partial tuples fetched via constraint indices
	// (|D_Q|); TuplesScanned counts base rows read by conventional scans.
	TuplesFetched int64
	TuplesScanned int64
	// FetchSteps break down the bounded part; Ops the conventional part.
	FetchSteps []StepStat
	Ops        []OpStat
	Duration   time.Duration
	// Plan is a human-readable plan description.
	Plan string
	// CacheHit reports that the answer was served from the semantic
	// result cache rather than executed. Cache metadata only: a hit
	// carries the same rows, order and data-derived statistics the
	// execution would have produced, so equivalence comparisons must
	// ignore this field (and Duration).
	CacheHit bool
	// Fingerprint is the statement's canonical identity (shared by all
	// syntactic variants) — the key of the workload digests and the
	// capture log. Metadata only, like CacheHit: equivalence comparisons
	// must ignore it.
	Fingerprint string
}

// Result is a query result.
type Result struct {
	Columns []string
	// Rows are immutable: the result cache and later results of the same
	// statement may share them, so treat every row as read-only.
	Rows  []Row
	Stats Stats
}

// String renders the result as an aligned text table (for the CLI and
// examples).
func (r *Result) String() string {
	var b strings.Builder
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			if v.IsNull() {
				s = "NULL"
			}
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	writeRow := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], v)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	for _, w := range widths {
		b.WriteString(strings.Repeat("-", w) + "  ")
	}
	b.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	fmt.Fprintf(&b, "(%d rows)\n", len(r.Rows))
	return b.String()
}

// CheckInfo is the BE Checker's verdict, available without executing the
// query (demo §4(1)(a)).
type CheckInfo struct {
	// Covered reports bounded evaluability under the registered access
	// schema.
	Covered bool
	// Reason explains the blocking atom when not covered.
	Reason string
	// Bound is the deduced bound M on tuples fetched.
	Bound uint64
	// OutputBound bounds the joined intermediate result size.
	OutputBound uint64
	// ConstraintsUsed counts distinct constraints in the derivation.
	ConstraintsUsed int
	// EmptyGuaranteed: constant contradiction, empty answer for free.
	EmptyGuaranteed bool
	// Plan describes the bounded (or partially bounded) plan.
	Plan string
}

// WithinBudget reports whether the query can be answered by fetching at
// most budget tuples (without executing it).
func (c *CheckInfo) WithinBudget(budget uint64) bool {
	if c.EmptyGuaranteed {
		return true
	}
	return c.Covered && c.Bound <= budget
}
