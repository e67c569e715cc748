package beas

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// This file checks the streaming execution core end-to-end: QueryIter
// must return bit-identical bags to Query on every evaluation mode, and
// LIMIT queries must terminate the pipeline early instead of
// materialising the full join.

// collectIter drains a cursor through the per-row API.
func collectIter(t *testing.T, ri *RowIter) []Row {
	t.Helper()
	var rows []Row
	for {
		r, ok, err := ri.Next()
		if err != nil {
			t.Fatalf("RowIter.Next: %v", err)
		}
		if !ok {
			break
		}
		rows = append(rows, append(Row{}, r...))
	}
	if err := ri.Close(); err != nil {
		t.Fatalf("RowIter.Close: %v", err)
	}
	return rows
}

// TestQueryIterMatchesQuery streams the randomized equivalence corpus
// through QueryIter and compares against the materialising Query on
// every evaluation mode (bounded, partially bounded, conventional).
func TestQueryIterMatchesQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		db := randomDB(t, rng)
		for i := 0; i < 15; i++ {
			sql := randomSQL(rng)
			res, err := db.Query(sql)
			if err != nil {
				t.Fatalf("Query(%q): %v", sql, err)
			}
			ri, err := db.QueryIter(sql)
			if err != nil {
				t.Fatalf("QueryIter(%q): %v", sql, err)
			}
			// One pipeline serves both: the same rows in the same order, and
			// the same statistics — mode, bound, fetch steps, scans and
			// operators (durations aside).
			want := outcomeOf(res, nil)
			got := outcomeOf(&Result{Rows: collectIter(t, ri), Stats: *ri.Stats()}, nil)
			if !slices.Equal(got.rows, want.rows) {
				t.Fatalf("QueryIter(%q) streamed %d rows, Query returned %d, or in another order",
					sql, len(got.rows), len(want.rows))
			}
			if got.stats != want.stats {
				t.Fatalf("QueryIter(%q) stats differ from Query:\niter:\n%s\nquery:\n%s", sql, got.stats, want.stats)
			}
		}
	}
}

// TestQueryIterUnion checks the streamed UNION / UNION ALL semantics
// (shared dedup up to the last plain UNION) against Query.
func TestQueryIterUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := randomDB(t, rng)
	for _, sql := range []string{
		"SELECT a, b FROM r WHERE a = 1 UNION SELECT a, b FROM r WHERE b = 2",
		"SELECT a, b FROM r WHERE a = 1 UNION ALL SELECT a, b FROM r WHERE a = 1",
		"SELECT a, b FROM r WHERE a = 1 UNION SELECT a, b FROM r WHERE b = 2 UNION ALL SELECT a, b FROM r WHERE a = 1",
	} {
		res, err := db.Query(sql)
		if err != nil {
			t.Fatalf("Query(%q): %v", sql, err)
		}
		ri, err := db.QueryIter(sql)
		if err != nil {
			t.Fatalf("QueryIter(%q): %v", sql, err)
		}
		got := collectIter(t, ri)
		if !equalBags(bag(res.Rows), bag(got)) {
			t.Fatalf("QueryIter(%q): %d rows, Query: %d rows", sql, len(got), len(res.Rows))
		}
	}
}

// TestQueryIterWeightedBags checks bag multiplicities survive streaming
// through the bounded executor: constraint indices store distinct
// partial tuples with witness counts, and the weights must expand to
// exactly the duplicates a conventional evaluation produces.
func TestQueryIterWeightedBags(t *testing.T) {
	db := NewDB()
	db.MustCreateTable("u", "k INT", "v INT")
	for i := 0; i < 4; i++ {
		db.MustInsert("u", 1, 7) // four identical rows: weight 4 in the index
	}
	db.MustInsert("u", 1, 8)
	db.MustRegisterConstraint("u({k} -> {v}, 10)")

	sql := "SELECT v FROM u WHERE k = 1"
	res, err := db.QueryBounded(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("bounded bag size = %d, want 5", len(res.Rows))
	}
	ri, err := db.QueryIter(sql)
	if err != nil {
		t.Fatal(err)
	}
	got := collectIter(t, ri)
	if !equalBags(bag(res.Rows), bag(got)) {
		t.Fatalf("streamed bag %v != bounded bag %v", bag(got), bag(res.Rows))
	}
}

// earlyExitDB builds two relations whose join is quadratically larger
// than either input, so full materialisation is visible in the stats.
func earlyExitDB(t testing.TB, n int) *DB {
	db := NewDB()
	db.MustCreateTable("big1", "k INT", "v INT")
	db.MustCreateTable("big2", "k INT", "w INT")
	for i := 0; i < n; i++ {
		db.MustInsert("big1", i%10, i)
		db.MustInsert("big2", i%10, -i)
	}
	return db
}

// joinRowsOut sums the output cardinality of the join operators in a
// conventional plan's stats.
func joinRowsOut(st Stats) int64 {
	var out int64
	for _, op := range st.Ops {
		if strings.Contains(op.Op, "⋈") {
			out += op.RowsOut
		}
	}
	return out
}

// TestLimitEarlyTermination: a LIMIT k query without ORDER BY must stop
// pulling from the join pipeline after k rows — the join may produce at
// most about one batch per pipeline stage, not the full cross product of
// the matching keys.
func TestLimitEarlyTermination(t *testing.T) {
	const n = 2000 // join cardinality n*n/10 = 400k
	db := earlyExitDB(t, n)
	join := "SELECT big1.v, big2.w FROM big1, big2 WHERE big1.k = big2.k"

	full, err := db.QueryBaseline(join, BaselinePostgres)
	if err != nil {
		t.Fatal(err)
	}
	lim, err := db.QueryBaseline(join+" LIMIT 5", BaselinePostgres)
	if err != nil {
		t.Fatal(err)
	}
	if len(lim.Rows) != 5 {
		t.Fatalf("LIMIT 5 returned %d rows", len(lim.Rows))
	}
	fullJoin, limJoin := joinRowsOut(full.Stats), joinRowsOut(lim.Stats)
	if fullJoin < int64(n) {
		t.Fatalf("full join produced %d rows, expected ≥ %d", fullJoin, n)
	}
	// ≥10× fewer intermediate rows than full materialisation; in practice
	// the limited run emits about one batch.
	if limJoin*10 > fullJoin {
		t.Errorf("LIMIT join produced %d intermediate rows, full join %d — no early exit", limJoin, fullJoin)
	}
	// The probe-side scan must also stop early: scanned rows well below
	// the two full relations.
	if lim.Stats.TuplesScanned >= full.Stats.TuplesScanned {
		t.Errorf("LIMIT scanned %d rows, full scanned %d — scans did not stop",
			lim.Stats.TuplesScanned, full.Stats.TuplesScanned)
	}
}

// TestJoinLimitEarlyExit: an uncovered query runs on the fallback
// engine and has no deduced bound, so its hash join must stream the
// probe side — a LIMIT that closes the pipeline early stops the scans
// well before the whole relation.
func TestJoinLimitEarlyExit(t *testing.T) {
	db := MustNewTLCDB(2)
	join := "SELECT call.region, package.pid FROM call, package WHERE call.pnum = package.pnum"
	full, err := db.Query(join)
	if err != nil {
		t.Fatal(err)
	}
	limited, err := db.Query(join + " LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(limited.Rows) != 10 {
		t.Fatalf("LIMIT 10 returned %d rows", len(limited.Rows))
	}
	if limited.Stats.TuplesScanned >= full.Stats.TuplesScanned {
		t.Fatalf("join with LIMIT scanned %d rows, full join %d — probe side must stream, not materialise",
			limited.Stats.TuplesScanned, full.Stats.TuplesScanned)
	}
}

// TestLimitOffsetStreaming checks OFFSET composes with the early exit
// and agrees with full materialisation.
func TestLimitOffsetStreaming(t *testing.T) {
	db := earlyExitDB(t, 500)
	base := "SELECT big1.v FROM big1, big2 WHERE big1.k = big2.k"
	full, err := db.QueryBaseline(base, BaselinePostgres)
	if err != nil {
		t.Fatal(err)
	}
	for _, clause := range []string{" LIMIT 7", " LIMIT 7 OFFSET 13", " OFFSET 24990"} {
		res, err := db.QueryBaseline(base+clause, BaselinePostgres)
		if err != nil {
			t.Fatalf("%s: %v", clause, err)
		}
		want := clipRows(full.Rows, clause)
		if len(res.Rows) != len(want) {
			t.Errorf("%s: got %d rows, want %d", clause, len(res.Rows), len(want))
		}
	}
}

// clipRows applies the clause to materialised rows for comparison.
func clipRows(rows []Row, clause string) []Row {
	var limit, offset int
	hasLimit := false
	if _, err := fmt.Sscanf(clause, " LIMIT %d OFFSET %d", &limit, &offset); err == nil {
		hasLimit = true
	} else if _, err := fmt.Sscanf(clause, " LIMIT %d", &limit); err == nil {
		hasLimit = true
	} else {
		fmt.Sscanf(clause, " OFFSET %d", &offset)
	}
	if offset >= len(rows) {
		return nil
	}
	rows = rows[offset:]
	if hasLimit && limit < len(rows) {
		rows = rows[:limit]
	}
	return rows
}

// TestQueryIterEarlyClose abandons a cursor mid-stream and checks the
// database is released (writes proceed) and a fresh query still works.
func TestQueryIterEarlyClose(t *testing.T) {
	db := earlyExitDB(t, 2000)
	ri, err := db.QueryIter("SELECT big1.v, big2.w FROM big1, big2 WHERE big1.k = big2.k")
	if err != nil {
		t.Fatal(err)
	}
	batch, err := ri.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) == 0 {
		t.Fatal("first batch empty")
	}
	if err := ri.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ri.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := ri.NextBatch(); err != nil {
		t.Fatalf("NextBatch after Close: %v", err)
	}
	// The read lock must be released: a write and another query succeed.
	if err := db.Insert("big1", 3, 12345); err != nil {
		t.Fatalf("insert after Close: %v", err)
	}
	if _, err := db.Query("SELECT v FROM big1 WHERE k = 3"); err != nil {
		t.Fatalf("query after Close: %v", err)
	}
}

// TestQueryIterStats: fully drained cursors must report the same data
// access as the materialising path.
func TestQueryIterStats(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := randomDB(t, rng)
	sql := "SELECT r.a, r.b FROM r WHERE r.a = 1"
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := db.QueryIter(sql)
	if err != nil {
		t.Fatal(err)
	}
	collectIter(t, ri)
	st := ri.Stats()
	if st.TuplesFetched != res.Stats.TuplesFetched {
		t.Errorf("TuplesFetched = %d, want %d", st.TuplesFetched, res.Stats.TuplesFetched)
	}
	if st.Covered != res.Stats.Covered || st.Bound != res.Stats.Bound {
		t.Errorf("stats mismatch: %+v vs %+v", st, res.Stats)
	}
	if len(st.FetchSteps) != len(res.Stats.FetchSteps) {
		t.Errorf("FetchSteps = %d, want %d", len(st.FetchSteps), len(res.Stats.FetchSteps))
	}
}

// TestTLCStreaming runs the built-in TLC queries through QueryIter at a
// small scale and compares bags against Query — covered, partially
// bounded and aggregate queries included.
func TestTLCStreaming(t *testing.T) {
	db := MustNewTLCDB(1)
	for _, q := range TLCQueries() {
		res, err := db.Query(q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		ri, err := db.QueryIter(q.SQL)
		if err != nil {
			t.Fatalf("%s: QueryIter: %v", q.Name, err)
		}
		got := collectIter(t, ri)
		if !equalBags(bag(res.Rows), bag(got)) {
			t.Errorf("%s: QueryIter %d rows, Query %d rows", q.Name, len(got), len(res.Rows))
		}
	}
}
