package beas

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/bounded-eval/beas/internal/value"
)

// The columnar executors' batch capacity must be a pure performance
// knob: at batch sizes 256 (the default), 7 and 1, every query must
// produce the same error status, the same result bag IN THE SAME ORDER,
// and the same execution statistics (modes, bounds, per-step and
// per-operator work counters, estimates — everything except durations).
// This file checks that differentially over the randomized corpus and a
// fixed set of NULL / NaN / overflow regression queries, with the
// optimizer on and off, and cross-checks the default executors against
// the nested-loop oracle.

// semantics-heavy regression queries: Kleene three-valued logic, NaN
// total order, int64 overflow promotion, weighted DISTINCT and fused
// group keys over the randomDB schema.
var vecRegressionSQL = []string{
	"SELECT r.a, SUM(r.big) AS s FROM r WHERE r.a IN (0,1,2,3,4,5,6,7) GROUP BY r.a",
	"SELECT r.v FROM r WHERE r.a = 1 ORDER BY 1",
	"SELECT DISTINCT r.v, r.big FROM r WHERE r.b = 2",
	"SELECT COUNT(*) AS n, MIN(r.v) AS mn, MAX(r.v) AS mx, SUM(r.v) AS sv FROM r WHERE r.d > 3 AND r.a IN (1,2,3)",
	"SELECT r.c, SUM(r.d) AS s FROM r, s WHERE r.b = s.b AND r.d NOT IN (3, NULL) GROUP BY r.c",
	"SELECT r.a, r.d FROM r WHERE (r.ok AND r.d < 5) AND r.a = 2",
	"SELECT r.a FROM r WHERE NOT (r.ok) AND r.b = 1",
	"SELECT DISTINCT r.b, s.e FROM r, s WHERE r.b = s.b AND r.a IN (0,2,4,6)",
}

// vecOutcome is everything about a query run that must not depend on an
// execution setting: error status, the ordered row stream and the
// duration-free execution statistics.
type vecOutcome struct {
	failed bool
	rows   []string
	stats  string
}

func outcomeOf(res *Result, err error) vecOutcome {
	if err != nil {
		return vecOutcome{failed: true}
	}
	o := vecOutcome{rows: make([]string, len(res.Rows))}
	for i, r := range res.Rows {
		o.rows[i] = value.Key(r)
	}
	var b strings.Builder
	st := res.Stats
	fmt.Fprintf(&b, "mode=%s covered=%v optimized=%v bound=%d constraints=%d fetched=%d scanned=%d\n",
		st.Mode, st.Covered, st.Optimized, st.Bound, st.ConstraintsUsed, st.TuplesFetched, st.TuplesScanned)
	for _, s := range st.FetchSteps {
		s.Duration = 0
		fmt.Fprintf(&b, "step %+v\n", s)
	}
	for _, op := range st.Ops {
		op.Duration = 0
		fmt.Fprintf(&b, "op %+v\n", op)
	}
	o.stats = b.String()
	return o
}

// diff describes how other (b) differs from o (a); "" when it does not.
func (o vecOutcome) diff(other vecOutcome) string {
	if o.failed != other.failed {
		return fmt.Sprintf("error status: a=%v b=%v", o.failed, other.failed)
	}
	if o.failed {
		return "" // both error; identity of the error may differ
	}
	if len(o.rows) != len(other.rows) {
		return fmt.Sprintf("row count: a=%d b=%d", len(o.rows), len(other.rows))
	}
	for i := range o.rows {
		if o.rows[i] != other.rows[i] {
			return fmt.Sprintf("row %d differs (order or content):\na = %q\nb = %q", i, o.rows[i], other.rows[i])
		}
	}
	if o.stats != other.stats {
		return fmt.Sprintf("stats differ:\na:\n%s\nb:\n%s", o.stats, other.stats)
	}
	return ""
}

// diffBatchSizes runs one execution at batch sizes 256, 7 and 1 and
// reports the first size whose outcome differs from 256's.
func diffBatchSizes(db *DB, run func() vecOutcome) string {
	defer db.SetBatchSize(0)
	var want vecOutcome
	for i, n := range []int{0, 7, 1} {
		db.SetBatchSize(n)
		got := run()
		if i == 0 {
			want = got
		} else if d := want.diff(got); d != "" {
			return fmt.Sprintf("batch %d vs 256: %s", n, d)
		}
	}
	return ""
}

// iterOutcome drains QueryIter(sql) into an outcome with the cursor's
// statistics.
func iterOutcome(db *DB, sql string) vecOutcome {
	ri, err := db.QueryIter(sql)
	if err != nil {
		return vecOutcome{failed: true}
	}
	var rows []Row
	for {
		batch, err := ri.NextBatch()
		if err != nil {
			return vecOutcome{failed: true}
		}
		if batch == nil {
			break
		}
		rows = append(rows, batch...)
	}
	return outcomeOf(&Result{Rows: rows, Stats: *ri.Stats()}, nil)
}

func TestBatchSizeEquivalence(t *testing.T) {
	const databases = 3
	for d := 0; d < databases; d++ {
		rng := rand.New(rand.NewSource(int64(7000 + d)))
		db := randomDB(t, rng)

		var corpus []string
		corpus = append(corpus, vecRegressionSQL...)
		for i := 0; i < 25; i++ {
			corpus = append(corpus, randomSQL(rng))
		}

		// Conventional baselines ignore the optimizer, so compare them
		// once per query.
		for _, sql := range corpus {
			for _, base := range []Baseline{BaselinePostgres, BaselineMySQL, BaselineMariaDB} {
				if d := diffBatchSizes(db, func() vecOutcome { return outcomeOf(db.QueryBaseline(sql, base)) }); d != "" {
					t.Fatalf("baseline %s diverges on %q: %s", base, sql, d)
				}
			}
		}

		for _, optimizer := range []bool{false, true} {
			db.SetOptimizer(optimizer)
			for _, sql := range corpus {
				if d := diffBatchSizes(db, func() vecOutcome { return outcomeOf(db.Query(sql)) }); d != "" {
					t.Fatalf("Query(%q) optimizer=%v: %s", sql, optimizer, d)
				}
			}
		}

		// The streaming cursor path (QueryIter): the ordered stream and
		// the statistics the cursor reports.
		db.SetOptimizer(false)
		for i, sql := range corpus {
			if i%4 != 0 {
				continue
			}
			if d := diffBatchSizes(db, func() vecOutcome { return iterOutcome(db, sql) }); d != "" {
				t.Fatalf("QueryIter(%q): %s", sql, d)
			}
		}
	}
}

// TestVectorizedOracleEquivalence cross-checks the vectorized executors
// (which are the default) against the independent nested-loop oracle on
// a fresh corpus, including the regression queries, and exercises a
// non-default batch size so batch-boundary bookkeeping is covered.
func TestVectorizedOracleEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9090))
	db := randomDB(t, rng)
	db.SetBatchSize(7) // deliberately tiny and odd: many partial batches

	var corpus []string
	corpus = append(corpus, vecRegressionSQL...)
	for i := 0; i < 20; i++ {
		corpus = append(corpus, randomSQL(rng))
	}
	for _, sql := range corpus {
		want := bag(oracle(t, db, sql))
		res, err := db.Query(sql)
		if err != nil {
			t.Fatalf("Query(%q): %v", sql, err)
		}
		if got := bag(res.Rows); !equalBags(got, want) {
			t.Fatalf("vectorized result diverges from oracle on %q:\ngot  = %v\nwant = %v", sql, got, want)
		}
		for _, base := range []Baseline{BaselinePostgres, BaselineMariaDB} {
			cres, err := db.QueryBaseline(sql, base)
			if err != nil {
				t.Fatalf("QueryBaseline(%q, %s): %v", sql, base, err)
			}
			if got := bag(cres.Rows); !equalBags(got, want) {
				t.Fatalf("vectorized %s baseline diverges from oracle on %q", base, sql)
			}
		}
	}
}
