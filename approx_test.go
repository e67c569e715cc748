package beas

import (
	"fmt"
	"strings"
	"testing"
)

// unionCallDB holds call(pnum, recnum): 4 keys × 5 rows under
// call({pnum} -> {recnum}, 100).
func unionCallDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	db.MustCreateTable("call", "pnum INT", "recnum INT")
	for p := 0; p < 4; p++ {
		for r := 0; r < 5; r++ {
			db.MustInsert("call", p, 10*p+r)
		}
	}
	db.MustRegisterConstraint("call({pnum} -> {recnum}, 100)")
	return db
}

// TestQueryApproxUnionSharesBudget: the UNION branches of an
// approximation spend one budget, so the statement never fetches more
// than it, and every branch's fetch steps are reported.
func TestQueryApproxUnionSharesBudget(t *testing.T) {
	db := unionCallDB(t)
	var branches []string
	for p := 0; p < 4; p++ {
		branches = append(branches, fmt.Sprintf("SELECT recnum FROM call WHERE pnum = %d", p))
	}
	sql := strings.Join(branches, " UNION ALL ")
	for _, budget := range []int64{1, 3, 5, 6, 20} {
		res, cov, err := db.QueryApprox(sql, budget)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if got := res.Stats.TuplesFetched; got != budget {
			t.Errorf("budget %d: fetched %d, want exactly the budget", budget, got)
		}
		if got := int64(len(res.Rows)); got != budget {
			t.Errorf("budget %d: %d rows, want one per fetched tuple", budget, got)
		}
		if n := len(res.Stats.FetchSteps); n != 4 {
			t.Errorf("budget %d: %d fetch steps, want 4 (one per branch)", budget, n)
		}
		if exact := budget >= 20; (cov == 1) != exact {
			t.Errorf("budget %d: coverage %v", budget, cov)
		}
	}
}

// TestQueryApproxRejectsNonPositiveBudget: a budget of zero or less
// fetches nothing and is an error, not a one-tuple approximation.
func TestQueryApproxRejectsNonPositiveBudget(t *testing.T) {
	db := unionCallDB(t)
	for _, budget := range []int64{0, -5} {
		if res, _, err := db.QueryApprox("SELECT recnum FROM call WHERE pnum = 1", budget); err == nil {
			t.Errorf("budget %d accepted: %d rows, %d fetched", budget, len(res.Rows), res.Stats.TuplesFetched)
		}
	}
}

// TestQueryApproxBypassesResultCache: an approximation neither serves a
// stored answer nor stores its own, even when the budget suffices.
func TestQueryApproxBypassesResultCache(t *testing.T) {
	db := unionCallDB(t)
	db.SetResultCache(true)
	const sql = "SELECT recnum FROM call WHERE pnum = 2"
	if _, err := db.Query(sql); err != nil {
		t.Fatal(err)
	}
	before := db.ResultCacheStats()
	for _, budget := range []int64{2, 100} {
		res, _, err := db.QueryApprox(sql, budget)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.CacheHit {
			t.Errorf("budget %d: approximation served from the result cache", budget)
		}
	}
	after := db.ResultCacheStats()
	if after.Hits != before.Hits || after.Misses != before.Misses || after.Stores != before.Stores {
		t.Errorf("approximation touched the result cache: before %+v, after %+v", before, after)
	}
}
