package beas

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/bounded-eval/beas/internal/analyze"
	"github.com/bounded-eval/beas/internal/exec"
	"github.com/bounded-eval/beas/internal/iter"
	"github.com/bounded-eval/beas/internal/sqlparser"
	"github.com/bounded-eval/beas/internal/value"
)

// The exactness invariant of bounded evaluation is Q(D_Q) = Q(D): a
// bounded plan must return exactly what any conventional evaluation
// returns. This file checks it on randomized databases and queries,
// against an independent nested-loop oracle and all three emulated
// baselines.

// randomDB builds R(a,b,c,d,v,big,ok), S(b,e), T(e,f) with small value
// domains and registers an access-constraint library with exact
// (auto-widened) bounds. The v / big / ok columns deliberately carry the
// semantic edge cases: NULLs everywhere, NaN floats in v, and
// near-MaxInt64 magnitudes in big. The big values are powers of two (and
// MaxInt64-1, which converts to 2^63 exactly), so float-promoted SUMs
// stay exactly representable and bit-identical under any evaluation
// order — the executors' or the oracle's.
func randomDB(t *testing.T, rng *rand.Rand) *DB {
	t.Helper()
	db := NewDB()
	db.MustCreateTable("r", "a INT", "b INT", "c STRING", "d INT", "v FLOAT", "big INT", "ok BOOL")
	db.MustCreateTable("s", "b INT", "e INT")
	db.MustCreateTable("t", "e INT", "f STRING")

	randV := func() any {
		switch rng.Intn(6) {
		case 0:
			return nil
		case 1:
			return math.NaN()
		default:
			return float64(rng.Intn(33)-16) * 0.5 // dyadic: exact under any sum order
		}
	}
	bigVals := []any{int64(1) << 62, -(int64(1) << 62), int64(1) << 61, int64(math.MaxInt64) - 1, nil}
	randOK := func() any {
		switch rng.Intn(3) {
		case 0:
			return nil
		case 1:
			return true
		default:
			return false
		}
	}
	nr, ns, nt := 30+rng.Intn(60), 15+rng.Intn(30), 10+rng.Intn(20)
	for i := 0; i < nr; i++ {
		db.MustInsert("r",
			rng.Intn(8), rng.Intn(6), fmt.Sprintf("c%d", rng.Intn(4)), rng.Intn(10),
			randV(), bigVals[rng.Intn(len(bigVals))], randOK())
	}
	for i := 0; i < ns; i++ {
		db.MustInsert("s", rng.Intn(6), rng.Intn(5))
	}
	for i := 0; i < nt; i++ {
		db.MustInsert("t", rng.Intn(5), fmt.Sprintf("f%d", rng.Intn(3)))
	}
	mustAuto := func(rel string, x, y []string) {
		if _, err := db.RegisterConstraintAuto(rel, x, y, 1); err != nil {
			t.Fatal(err)
		}
	}
	mustAuto("r", []string{"a"}, []string{"b", "c", "d", "v", "big", "ok"})
	mustAuto("r", []string{"b"}, []string{"a", "c", "d", "v", "big", "ok"})
	mustAuto("s", []string{"b"}, []string{"e"})
	mustAuto("t", []string{"e"}, []string{"f"})
	return db
}

// randomSQL generates a query from a template family: a join chain over
// 1–3 atoms with random filters (including NULL-bearing IN lists and
// NULL-able boolean operands), random projections over the NaN / big-int
// columns and an optional aggregate.
func randomSQL(rng *rand.Rand) string {
	atoms := 1 + rng.Intn(3)
	var from, where []string
	from = append(from, "r")
	// Seed constants so that most single-chain queries are coverable.
	switch rng.Intn(4) {
	case 0:
		where = append(where, fmt.Sprintf("r.a = %d", rng.Intn(8)))
	case 1:
		where = append(where, fmt.Sprintf("r.a IN (%d, %d)", rng.Intn(8), rng.Intn(8)))
	case 2:
		where = append(where, fmt.Sprintf("r.b = %d", rng.Intn(6)))
	case 3:
		// NULL in a positive IN list: never a key candidate, never a match.
		where = append(where, fmt.Sprintf("r.a IN (%d, NULL, %d)", rng.Intn(8), rng.Intn(8)))
	}
	cols := []string{"r.a", "r.b", "r.c", "r.d", "r.v", "r.big"}
	if atoms >= 2 {
		from = append(from, "s")
		where = append(where, "r.b = s.b")
		cols = append(cols, "s.e")
	}
	if atoms >= 3 {
		from = append(from, "t")
		where = append(where, "s.e = t.e")
		cols = append(cols, "t.f")
	}
	// Extra filters.
	if rng.Intn(2) == 0 {
		where = append(where, fmt.Sprintf("r.d > %d", rng.Intn(9)))
	}
	if rng.Intn(3) == 0 {
		where = append(where, fmt.Sprintf("r.c <> 'c%d'", rng.Intn(4)))
	}
	if rng.Intn(4) == 0 {
		where = append(where, fmt.Sprintf("(r.d = %d OR r.d = %d)", rng.Intn(10), rng.Intn(10)))
	}
	if rng.Intn(4) == 0 {
		// NOT IN with a NULL in the list: three-valued logic collapses the
		// no-match case to false, never true.
		where = append(where, fmt.Sprintf("r.d NOT IN (%d, NULL)", rng.Intn(10)))
	}
	if rng.Intn(4) == 0 {
		// NULL boolean operands of NOT / AND / OR collapse instead of
		// erroring.
		switch rng.Intn(3) {
		case 0:
			where = append(where, "(r.ok OR r.d > 5)")
		case 1:
			where = append(where, fmt.Sprintf("(r.ok AND r.d < %d)", rng.Intn(10)))
		default:
			where = append(where, "NOT (r.ok)")
		}
	}

	if rng.Intn(4) == 0 { // aggregate query
		g := cols[rng.Intn(len(cols))]
		agg := "SUM(r.d) AS s"
		switch rng.Intn(4) {
		case 0:
			agg = "SUM(r.big) AS s" // overflows int64, promotes to float64
		case 1:
			agg = "MIN(r.v) AS s, MAX(r.v) AS m" // NaN under the total order
		case 2:
			agg = "SUM(r.v) AS s" // NaN-poisoned sums, dyadic otherwise
		}
		return fmt.Sprintf("SELECT %s, COUNT(*) AS n, %s FROM %s WHERE %s GROUP BY %s",
			g, agg, joinStrings(from, ", "), joinStrings(where, " AND "), g)
	}
	// Scalar query with random projection width.
	k := 1 + rng.Intn(len(cols))
	rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
	sel := joinStrings(cols[:k], ", ")
	if rng.Intn(4) == 0 {
		sel = "DISTINCT " + sel
	}
	order := ""
	if rng.Intn(3) == 0 {
		order = " ORDER BY 1" // NaN and NULL take deterministic positions
	}
	return fmt.Sprintf("SELECT %s FROM %s WHERE %s%s",
		sel, joinStrings(from, ", "), joinStrings(where, " AND "), order)
}

func joinStrings(parts []string, sep string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += sep
		}
		out += p
	}
	return out
}

// oracle evaluates the query by brute-force nested loops over the base
// tables: every conjunct is evaluated row by row with the scalar
// evaluator over the full cross product. It is independent of both
// executors' scans, vectorized filters, join operators, constraint
// indices and planners; only the relational tail (exec.StreamCol over
// the joined rows) is shared with them.
func oracle(t *testing.T, db *DB, sql string) []value.Row {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	q, err := analyze.Analyze(stmt.Select, db.schema)
	if err != nil {
		t.Fatal(err)
	}
	layout := analyze.NewLayout()
	var widths []int
	for ai, atom := range q.Atoms {
		for attr := range atom.Rel.Attrs {
			layout.Add(analyze.ColID{Atom: ai, Attr: attr})
		}
		widths = append(widths, atom.Rel.Arity())
	}
	var joined []value.Row
	var rec func(ai int, acc value.Row)
	rec = func(ai int, acc value.Row) {
		if ai == len(q.Atoms) {
			for _, c := range q.Conjuncts {
				ok, err := analyze.EvalBool(c.Expr, acc, layout)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					return
				}
			}
			joined = append(joined, acc.Clone())
			return
		}
		tab, _ := db.store.Table(q.Atoms[ai].Rel.Name)
		for _, row := range tab.Rows() {
			rec(ai+1, append(acc, row...))
		}
	}
	rec(0, nil)
	out, _, err := iter.Collect(exec.StreamCol(q, iter.ColFromRows(joined, nil, layout.Len(), 0), layout))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func bag(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = value.Key(r)
	}
	sort.Strings(out)
	return out
}

func equalBags(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRandomizedCrossEngineEquivalence(t *testing.T) {
	const (
		databases        = 6
		queriesPerDB     = 40
		wantCoveredTotal = 30 // sanity: the constraint library must cover a decent share
	)
	coveredTotal := 0
	for d := 0; d < databases; d++ {
		rng := rand.New(rand.NewSource(int64(1000 + d)))
		db := randomDB(t, rng)
		for qi := 0; qi < queriesPerDB; qi++ {
			sql := randomSQL(rng)
			want := bag(oracle(t, db, sql))

			info, err := db.Check(sql)
			if err != nil {
				t.Fatalf("Check(%q): %v", sql, err)
			}
			if info.Covered {
				coveredTotal++
			}

			res, err := db.Query(sql)
			if err != nil {
				t.Fatalf("Query(%q): %v", sql, err)
			}
			if got := bag(res.Rows); !equalBags(got, want) {
				t.Fatalf("db %d query %q (covered=%v, mode=%s):\nbeas   = %v\noracle = %v",
					d, sql, info.Covered, res.Stats.Mode, got, want)
			}
			// Covered queries must also agree through the strict bounded
			// path and respect the deduced bound.
			if info.Covered {
				bres, err := db.QueryBounded(sql)
				if err != nil {
					t.Fatalf("QueryBounded(%q): %v", sql, err)
				}
				if got := bag(bres.Rows); !equalBags(got, want) {
					t.Fatalf("bounded path diverges on %q", sql)
				}
				if info.Bound != ^uint64(0) && uint64(bres.Stats.TuplesFetched) > info.Bound {
					t.Fatalf("%q fetched %d > deduced bound %d", sql, bres.Stats.TuplesFetched, info.Bound)
				}
			}
			for _, base := range []Baseline{BaselinePostgres, BaselineMySQL, BaselineMariaDB} {
				cres, err := db.QueryBaseline(sql, base)
				if err != nil {
					t.Fatalf("QueryBaseline(%q, %s): %v", sql, base, err)
				}
				if got := bag(cres.Rows); !equalBags(got, want) {
					t.Fatalf("baseline %s diverges on %q:\ngot  = %v\nwant = %v", base, sql, got, want)
				}
			}
		}
	}
	if coveredTotal < wantCoveredTotal {
		t.Errorf("only %d/%d random queries were covered; generator or checker drifted",
			coveredTotal, databases*queriesPerDB)
	}
}

// TestRandomizedApproxSubset checks on random covered queries, at
// budgets 1, M/4, M/2 and M for the deduced bound M, that budgeted
// approximation never fetches more than its budget, always returns a
// subset of the exact answer, and at budget M returns Query's rows in
// Query's order with coverage 1.
func TestRandomizedApproxSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	db := randomDB(t, rng)
	checked := 0
	for qi := 0; qi < 60 && checked < 15; qi++ {
		sql := randomSQL(rng)
		info, err := db.Check(sql)
		if err != nil || !info.Covered {
			continue
		}
		checked++
		exact, err := db.QueryBounded(sql)
		if err != nil {
			t.Fatal(err)
		}
		exactSet := map[string]int{}
		for _, r := range exact.Rows {
			exactSet[value.Key(r)]++
		}
		m := int64(min(info.Bound, math.MaxInt64))
		for _, budget := range []int64{1, max(m/4, 1), max(m/2, 1), max(m, 1)} {
			res, cov, err := db.QueryApprox(sql, budget)
			if err != nil {
				t.Fatalf("QueryApprox(%q, %d): %v", sql, budget, err)
			}
			if res.Stats.TuplesFetched > budget {
				t.Fatalf("budget %d on %q fetched %d tuples", budget, sql, res.Stats.TuplesFetched)
			}
			if cov >= 1 && !equalBags(bag(res.Rows), bag(exact.Rows)) {
				t.Fatalf("coverage 1 must mean exact: %q", sql)
			}
			if budget >= m {
				if cov != 1 {
					t.Fatalf("budget %d ≥ M on %q: coverage %v, want 1", budget, sql, cov)
				}
				if !slices.Equal(outcomeOf(res, nil).rows, outcomeOf(exact, nil).rows) {
					t.Fatalf("budget %d ≥ M on %q: rows differ from Query's, in content or order", budget, sql)
				}
			}
			// Subset check only for non-aggregate queries: truncated
			// aggregates produce rows with smaller counts, which are
			// approximations rather than members of the exact answer.
			if !isAggregate(sql) {
				for _, r := range res.Rows {
					if exactSet[value.Key(r)] == 0 {
						t.Fatalf("budget %d on %q produced a row outside the exact answer", budget, sql)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no covered queries sampled")
	}
}

func isAggregate(sql string) bool {
	return len(sql) > 0 && (containsFold(sql, "COUNT(") || containsFold(sql, "SUM("))
}

func containsFold(s, sub string) bool {
	return len(s) >= len(sub) && (stringIndexFold(s, sub) >= 0)
}

func stringIndexFold(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		match := true
		for j := 0; j < len(sub); j++ {
			a, b := s[i+j], sub[j]
			if 'a' <= a && a <= 'z' {
				a -= 32
			}
			if 'a' <= b && b <= 'z' {
				b -= 32
			}
			if a != b {
				match = false
				break
			}
		}
		if match {
			return i
		}
	}
	return -1
}
