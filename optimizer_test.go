package beas

import (
	"math/rand"
	"strings"
	"testing"
)

// The cost-based optimizer must be invisible in results: optimizer on
// and off produce identical bags on every query, while reporting the unchanged worst-case bound for admission control.
// These tests verify that on the randomized equivalence corpus and the
// TLC benchmark, and pin the optimizer's raison d'être: on Q12 — whose
// worst-case-greedy step order is suboptimal on the actual data — the
// optimized plan fetches at least 2× fewer tuples.

// TestOptimizerEquivalenceRandomized: optimizer on vs off over the
// randomized corpus.
func TestOptimizerEquivalenceRandomized(t *testing.T) {
	const databases = 4
	const queriesPerDB = 30
	for d := 0; d < databases; d++ {
		rng := rand.New(rand.NewSource(int64(7000 + d)))
		dbOff := randomDB(t, rng)
		for qi := 0; qi < queriesPerDB; qi++ {
			sql := randomSQL(rng)
			off, err := dbOff.Query(sql)
			if err != nil {
				t.Fatalf("off Query(%q): %v", sql, err)
			}
			want := bag(off.Rows)
			info, err := dbOff.Check(sql)
			if err != nil {
				t.Fatal(err)
			}
			dbOff.SetOptimizer(true)
			on, err := dbOff.Query(sql)
			if err != nil {
				t.Fatalf("on Query(%q): %v", sql, err)
			}
			if got := bag(on.Rows); !equalBags(got, want) {
				t.Fatalf("optimizer changed the bag on %q:\non  = %v\noff = %v", sql, got, want)
			}
			// The reported admission bound is the unchanged worst case,
			// and the executor must still respect it.
			onInfo, err := dbOff.Check(sql)
			if err != nil {
				t.Fatal(err)
			}
			if onInfo.Bound != info.Bound {
				t.Fatalf("optimizer changed the reported bound on %q: %d vs %d", sql, onInfo.Bound, info.Bound)
			}
			if info.Covered && info.Bound != ^uint64(0) && uint64(on.Stats.TuplesFetched) > info.Bound {
				t.Fatalf("optimized plan fetched %d > bound %d on %q", on.Stats.TuplesFetched, info.Bound, sql)
			}
			dbOff.SetOptimizer(false)
		}
	}
}

// TestOptimizerEquivalenceTLC: every built-in TLC query, optimizer on vs
// off.
func TestOptimizerEquivalenceTLC(t *testing.T) {
	db := MustNewTLCDB(1)
	for _, q := range TLCQueries() {
		db.SetOptimizer(false)
		off, err := db.Query(q.SQL)
		if err != nil {
			t.Fatalf("%s off: %v", q.Name, err)
		}
		db.SetOptimizer(true)
		on, err := db.Query(q.SQL)
		if err != nil {
			t.Fatalf("%s on: %v", q.Name, err)
		}
		if !equalBags(bag(on.Rows), bag(off.Rows)) {
			t.Fatalf("%s: optimizer changed the bag", q.Name)
		}
	}
}

// TestOptimizerReducesQ12Fetches pins the acceptance criterion: on Q12
// the worst-case-greedy order fetches every bank's invoices before the
// selective call filter prunes the banks; the cost-based order fetches
// calls first and must cut the actually-fetched intermediate rows by at
// least 2×.
func TestOptimizerReducesQ12Fetches(t *testing.T) {
	db := MustNewTLCDB(2)
	sql, covered := tlcQuery("Q12")
	if !covered {
		t.Fatal("Q12 must be covered")
	}
	off, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	db.SetOptimizer(true)
	on, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !equalBags(bag(on.Rows), bag(off.Rows)) {
		t.Fatal("optimizer changed the Q12 bag")
	}
	if len(on.Rows) == 0 {
		t.Fatal("Q12 must have a non-empty answer")
	}
	if on.Stats.TuplesFetched*2 > off.Stats.TuplesFetched {
		t.Fatalf("optimizer should fetch >=2x fewer tuples on Q12: off=%d on=%d",
			off.Stats.TuplesFetched, on.Stats.TuplesFetched)
	}
	t.Logf("Q12 tuples fetched: greedy=%d optimized=%d (%.1fx fewer)",
		off.Stats.TuplesFetched, on.Stats.TuplesFetched,
		float64(off.Stats.TuplesFetched)/float64(on.Stats.TuplesFetched))
}

// TestExplainAnalyzeEstimatedVsActual: EXPLAIN ANALYZE must carry, per
// step, the worst-case bound, the optimizer's estimates and the actual
// counters — and the improvement on Q12 must be visible in it.
func TestExplainAnalyzeEstimatedVsActual(t *testing.T) {
	db := MustNewTLCDB(1)
	db.SetOptimizer(true)
	sql, _ := tlcQuery("Q12")
	ea, err := db.ExplainAnalyze(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !ea.Covered || !ea.Optimized {
		t.Fatalf("covered=%v optimized=%v, want true/true", ea.Covered, ea.Optimized)
	}
	if len(ea.Steps) != 3 {
		t.Fatalf("Q12 has 3 fetch steps, got %d", len(ea.Steps))
	}
	for i, s := range ea.Steps {
		if s.OutBound == 0 {
			t.Errorf("step %d: missing worst-case bound", i)
		}
		if s.EstKeys <= 0 || s.EstFetched < 0 {
			t.Errorf("step %d: missing estimates (estKeys=%v estFetched=%v)", i, s.EstKeys, s.EstFetched)
		}
		if s.ActualKeys <= 0 {
			t.Errorf("step %d: missing actual key counter", i)
		}
	}
	// The optimized order fetches call (the selective step) before
	// billing, visibly in the report.
	var order []string
	for _, s := range ea.Steps {
		order = append(order, s.Atom)
	}
	got := strings.Join(order, ",")
	if got != "business,call,billing" {
		t.Errorf("optimized Q12 step order = %s, want business,call,billing", got)
	}
	text := ea.String()
	for _, want := range []string{"est keys", "fetched", "worst-case bound"} {
		if !strings.Contains(text, want) {
			t.Errorf("ExplainAnalysis.String() missing %q:\n%s", want, text)
		}
	}
}

// TestExplainShowsEstimates: plain Explain (no execution) includes the
// per-step constraint, worst-case bound, and — optimizer on — estimates.
func TestExplainShowsEstimates(t *testing.T) {
	db := MustNewTLCDB(1)
	sql, _ := tlcQuery("Q1")
	off, err := db.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(off, "via business({type, region}") || !strings.Contains(off, "≤") {
		t.Errorf("Explain missing constraint/bound detail:\n%s", off)
	}
	if strings.Contains(off, "est ≈") {
		t.Errorf("Explain should not show estimates with the optimizer off:\n%s", off)
	}
	db.SetOptimizer(true)
	on, err := db.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(on, "est ≈") {
		t.Errorf("Explain should show estimates with the optimizer on:\n%s", on)
	}
}

// BenchmarkOptimizerQ12 demonstrates the acceptance criterion as a
// benchmark: the same TLC query with the greedy and the cost-based step
// order, reporting the actually-fetched intermediate rows per run.
func BenchmarkOptimizerQ12(b *testing.B) {
	sql, _ := tlcQuery("Q12")
	for _, mode := range []string{"greedy", "optimized"} {
		b.Run(mode, func(b *testing.B) {
			db := tlcDB(b, 2)
			db.SetOptimizer(mode == "optimized")
			defer db.SetOptimizer(false)
			var fetched int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := db.Query(sql)
				if err != nil {
					b.Fatal(err)
				}
				fetched = res.Stats.TuplesFetched
			}
			b.ReportMetric(float64(fetched), "tuples-fetched")
		})
	}
}

// TestOptimizerOffIsDefault: a fresh DB runs without the optimizer and
// its step stats carry no estimates.
func TestOptimizerOffIsDefault(t *testing.T) {
	db := MustNewTLCDB(1)
	if db.OptimizerEnabled() {
		t.Fatal("optimizer must default to off")
	}
	sql, _ := tlcQuery("Q2")
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Optimized {
		t.Error("Stats.Optimized must be false by default")
	}
	for _, s := range res.Stats.FetchSteps {
		if s.EstKeys != 0 || s.EstFetched != 0 {
			t.Errorf("step %s carries estimates with the optimizer off", s.Atom)
		}
		if s.OutBound == 0 {
			t.Errorf("step %s missing worst-case bound", s.Atom)
		}
	}
}
