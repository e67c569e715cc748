package beas

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// ExplainStep is one fetch step of an EXPLAIN ANALYZE report: the
// worst-case bounds deduced before execution, the optimizer's estimates
// (zero when the optimizer is off) and the actual counters measured
// while the query ran.
type ExplainStep struct {
	Atom       string
	Constraint string

	// Worst-case a-priori bounds.
	KeyBound uint64
	OutBound uint64
	// Statistics-based estimates (optimizer on).
	EstKeys    float64
	EstFetched float64
	EstRows    float64
	// Actual execution counters.
	ActualKeys    int64
	ActualFetched int64
	ActualRows    int64
	Duration      time.Duration
}

// ExplainAnalysis is the result of DB.ExplainAnalyze: the query was
// executed and each plan step reports estimated vs actual work.
type ExplainAnalysis struct {
	SQL       string
	Mode      Mode
	Covered   bool
	Optimized bool
	// Bound is the deduced worst-case access bound M (covered queries).
	Bound uint64
	// Rows is the number of result rows (the rows themselves are not
	// retained).
	Rows int
	// TuplesFetched / TuplesScanned split the data access between the
	// bounded and conventional parts.
	TuplesFetched int64
	TuplesScanned int64
	// Steps is the bounded part's estimated-vs-actual breakdown; Ops the
	// conventional part's operators (with planner estimates when the
	// optimizer is on).
	Steps    []ExplainStep
	Ops      []OpStat
	Duration time.Duration
	// Plan is the textual plan description.
	Plan string
}

// ExplainAnalyze executes sql exactly like Query and returns the
// per-step estimated-vs-actual breakdown: for every fetch step the
// worst-case bound, the optimizer's estimated keys/fetches (when the
// optimizer is on) and the keys probed, tuples fetched and rows emitted
// that actually happened. The result rows are discarded; only the
// analysis is returned.
func (db *DB) ExplainAnalyze(sql string) (*ExplainAnalysis, error) {
	return db.ExplainAnalyzeContext(context.Background(), sql)
}

// ExplainAnalyzeContext is ExplainAnalyze under a context: cancellation
// halts the execution like QueryContext; the analysis then reflects only
// the work performed.
func (db *DB) ExplainAnalyzeContext(ctx context.Context, sql string) (*ExplainAnalysis, error) {
	res, err := db.QueryContext(ctx, sql)
	if err != nil {
		return nil, err
	}
	return NewExplainAnalysis(sql, &res.Stats, len(res.Rows)), nil
}

// NewExplainAnalysis folds an executed query's statistics into the
// estimated-vs-actual report. Callers that execute through their own
// path (e.g. the query service, which drains the cursor of the
// statement it admitted) use this instead of ExplainAnalyze; rows is
// the result row count.
func NewExplainAnalysis(sql string, st *Stats, rows int) *ExplainAnalysis {
	ea := &ExplainAnalysis{
		SQL:           sql,
		Mode:          st.Mode,
		Covered:       st.Covered,
		Optimized:     st.Optimized,
		Bound:         st.Bound,
		Rows:          rows,
		TuplesFetched: st.TuplesFetched,
		TuplesScanned: st.TuplesScanned,
		Ops:           st.Ops,
		Duration:      st.Duration,
		Plan:          st.Plan,
	}
	for _, s := range st.FetchSteps {
		ea.Steps = append(ea.Steps, ExplainStep{
			Atom:          s.Atom,
			Constraint:    s.Constraint,
			KeyBound:      s.KeyBound,
			OutBound:      s.OutBound,
			EstKeys:       s.EstKeys,
			EstFetched:    s.EstFetched,
			EstRows:       s.EstRows,
			ActualKeys:    s.DistinctKey,
			ActualFetched: s.Fetched,
			ActualRows:    s.RowsOut,
			Duration:      s.Duration,
		})
	}
	return ea
}

// String renders the analysis as an aligned text report (the CLI's
// \explain analyze output).
func (ea *ExplainAnalysis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mode: %s  covered: %v  optimizer: %v\n", ea.Mode, ea.Covered, ea.Optimized)
	if ea.Covered {
		fmt.Fprintf(&b, "worst-case bound M: %d tuples; actually fetched: %d\n", ea.Bound, ea.TuplesFetched)
	} else {
		fmt.Fprintf(&b, "fetched: %d  scanned: %d\n", ea.TuplesFetched, ea.TuplesScanned)
	}
	if len(ea.Steps) > 0 {
		rows := [][]string{{"step", "constraint", "bound", "est keys", "est fetch", "keys", "fetched", "rows", "time"}}
		for i, s := range ea.Steps {
			est := func(v float64) string {
				if v == 0 {
					return "-"
				}
				return fmt.Sprintf("%.0f", v)
			}
			rows = append(rows, []string{
				fmt.Sprintf("(%d) fetch %s", i+1, s.Atom),
				s.Constraint,
				fmt.Sprintf("%d", s.OutBound),
				est(s.EstKeys),
				est(s.EstFetched),
				fmt.Sprintf("%d", s.ActualKeys),
				fmt.Sprintf("%d", s.ActualFetched),
				fmt.Sprintf("%d", s.ActualRows),
				fmt.Sprintf("%.3fms", float64(s.Duration.Microseconds())/1000),
			})
		}
		writeAligned(&b, rows)
	}
	if len(ea.Ops) > 0 {
		rows := [][]string{{"operator", "est rows", "rows in", "rows out", "time"}}
		for _, o := range ea.Ops {
			est := "-"
			if o.EstRows > 0 {
				est = fmt.Sprintf("%.0f", o.EstRows)
			}
			rows = append(rows, []string{
				o.Op, est,
				fmt.Sprintf("%d", o.RowsIn), fmt.Sprintf("%d", o.RowsOut),
				fmt.Sprintf("%.3fms", float64(o.Duration.Microseconds())/1000),
			})
		}
		writeAligned(&b, rows)
	}
	fmt.Fprintf(&b, "%d rows in %s\n", ea.Rows, ea.Duration)
	return b.String()
}

// writeAligned renders rows (first row = header) as an aligned table.
func writeAligned(b *strings.Builder, rows [][]string) {
	widths := make([]int, len(rows[0]))
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for ri, r := range rows {
		b.WriteString("  ")
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
		if ri == 0 {
			b.WriteString("  ")
			for i, w := range widths {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", w))
			}
			b.WriteByte('\n')
		}
	}
}
