package beas

// Benchmarks regenerating the paper's evaluation artefacts (see
// EXPERIMENTS.md for the experiment ↔ figure mapping):
//
//	BenchmarkExample2Check      E1  coverage, bound and plan of Q1–Q12 (no execution)
//	BenchmarkFig3/*             E2  Fig. 3: Q1 bounded vs the three baselines
//	BenchmarkFig4/*             E3  Fig. 4: scalability sweep (flat vs linear)
//	BenchmarkTLCQueries/*       E4  the 11 built-in TLC queries
//	BenchmarkPartialQ11         E6  partially bounded evaluation
//	BenchmarkDiscovery          E7  access-schema discovery
//	BenchmarkApprox/*           E8  resource-bounded approximation
//	BenchmarkMaintenance*       E9  incremental index maintenance vs rebuild
//
// plus micro-benchmarks of the substrate (index fetch, parser, key codec).
//
// Run: go test -bench=. -benchmem

import (
	"fmt"
	"sync"
	"testing"

	"github.com/bounded-eval/beas/internal/analyze"
	"github.com/bounded-eval/beas/internal/core"
	"github.com/bounded-eval/beas/internal/sqlparser"
	"github.com/bounded-eval/beas/internal/value"
)

// Shared TLC instances per scale, built lazily once per process.
var (
	tlcMu    sync.Mutex
	tlcCache = map[int]*DB{}
)

func tlcDB(b *testing.B, scale int) *DB {
	b.Helper()
	tlcMu.Lock()
	defer tlcMu.Unlock()
	if db, ok := tlcCache[scale]; ok {
		return db
	}
	db := MustNewTLCDB(scale)
	// Warm table statistics so baseline benches measure query work, not
	// one-time catalogue work.
	if _, err := db.QueryBaseline(tlcSQLFor(b, "Q1"), BaselinePostgres); err != nil {
		b.Fatal(err)
	}
	tlcCache[scale] = db
	return db
}

func tlcSQLFor(tb testing.TB, name string) string {
	tb.Helper()
	for _, q := range TLCQueries() {
		if q.Name == name {
			return q.SQL
		}
	}
	tb.Fatalf("no TLC query %s", name)
	return ""
}

// BenchmarkExample2Check measures the BE Checker and the BE Plan
// Generator themselves: deciding coverage, deducing M and building the
// bounded plan (the partially bounded plan for a non-covered query) is
// pure reasoning over Q and A (E1; paper feature (1), "decide before
// executing"). The TLC queries Q1–Q12 are analysed once, outside the
// timer, so no template-cache hit hides the derivation.
func BenchmarkExample2Check(b *testing.B) {
	db := tlcDB(b, 1)
	var qs []*analyze.Query
	db.mu.RLock()
	for _, tq := range TLCQueries() {
		t, _, err := db.parseLocked(tq.SQL)
		if err != nil {
			b.Fatal(err)
		}
		qs = append(qs, t.Parsed.(*parsed).branches...)
	}
	db.mu.RUnlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			chk := core.Check(q, db.access)
			var err error
			if chk.Covered {
				_, err = core.NewPlan(q, chk)
			} else {
				_, err = core.NewPartialPlan(q, chk)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig3 reproduces Fig. 3 at one scale: Q1 through the bounded
// plan and through each emulated conventional DBMS (E2).
func BenchmarkFig3(b *testing.B) {
	const scale = 5
	sql := tlcSQLFor(b, "Q1")
	b.Run("beas", func(b *testing.B) {
		db := tlcDB(b, scale)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryBounded(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, base := range []Baseline{BaselinePostgres, BaselineMySQL, BaselineMariaDB} {
		b.Run(string(base), func(b *testing.B) {
			db := tlcDB(b, scale)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.QueryBaseline(sql, base); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4 reproduces Fig. 4: Q1 across the scale sweep. The beas
// series should stay flat while the baseline series grow linearly
// (E3; scale factors stand in for the paper's 1–200 GB).
func BenchmarkFig4(b *testing.B) {
	for _, scale := range []int{1, 2, 5, 10, 20} {
		sql := tlcSQLFor(b, "Q1")
		b.Run(fmt.Sprintf("scale=%d/beas", scale), func(b *testing.B) {
			db := tlcDB(b, scale)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.QueryBounded(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, base := range []Baseline{BaselinePostgres, BaselineMySQL, BaselineMariaDB} {
			b.Run(fmt.Sprintf("scale=%d/%s", scale, base), func(b *testing.B) {
				db := tlcDB(b, scale)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := db.QueryBaseline(sql, base); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTLCQueries runs each built-in query through the automatic
// path (bounded when covered, partially bounded otherwise) — E4, the
// per-query table of §4(2).
func BenchmarkTLCQueries(b *testing.B) {
	const scale = 5
	for _, q := range TLCQueries() {
		b.Run(q.Name, func(b *testing.B) {
			db := tlcDB(b, scale)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(q.SQL); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPartialQ11 measures partially bounded evaluation of the
// non-covered Q11 against its pure conventional plan (E6).
func BenchmarkPartialQ11(b *testing.B) {
	const scale = 5
	sql := tlcSQLFor(b, "Q11")
	b.Run("partial", func(b *testing.B) {
		db := tlcDB(b, scale)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("conventional", func(b *testing.B) {
		db := tlcDB(b, scale)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryBaseline(sql, BaselinePostgres); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDiscovery measures access-schema discovery over the TLC data
// and the 10 coverable built-in queries (E7).
func BenchmarkDiscovery(b *testing.B) {
	db := tlcDB(b, 1)
	var workload []string
	for _, q := range TLCQueries()[:10] {
		workload = append(workload, q.SQL)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.Discover(DiscoverOptions{Workload: workload}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApprox measures resource-bounded approximation of Q1 under
// different budgets (E8).
func BenchmarkApprox(b *testing.B) {
	const scale = 5
	sql := tlcSQLFor(b, "Q1")
	for _, budget := range []int64{16, 64, 256, 4096} {
		b.Run(fmt.Sprintf("budget=%d", budget), func(b *testing.B) {
			db := tlcDB(b, scale)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := db.QueryApprox(sql, budget); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMaintenanceInsert measures the per-row cost of keeping all 12
// TLC constraint indices up to date under inserts (E9).
func BenchmarkMaintenanceInsert(b *testing.B) {
	db := MustNewTLCDB(1) // private instance: the bench mutates it
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Insert("call",
			9_000_000+i, 1000, 20160401, i%86400, 60,
			"r1", "voice", "mo", "volte", "DE",
			7000, 100+i, 900+i, 1, 2, 3, 0, 120, 1, 2, 1, 10_000_000+i, 0,
			"", "flat", "EUR", 3.5, 0.1, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaintenanceRebuild is the ablation baseline for E9: the cost
// of re-registering (rebuilding) the call constraint index from scratch,
// which incremental maintenance avoids.
func BenchmarkMaintenanceRebuild(b *testing.B) {
	db := MustNewTLCDB(1)
	const spec = "call({pnum, date} -> {recnum, region}, 500)"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.DropConstraint(spec); err != nil {
			b.Fatal(err)
		}
		if err := db.RegisterConstraint(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLimitEarlyExit measures streaming early termination on the
// TLC schema: a LIMIT 10 over the call ⋈ package join must stop the
// pipeline after about a batch instead of materialising the full join
// (compare the "full" series, which drains it).
func BenchmarkLimitEarlyExit(b *testing.B) {
	const scale = 5
	join := "SELECT call.region, package.pid FROM call, package WHERE call.pnum = package.pnum"
	b.Run("limit10", func(b *testing.B) {
		db := tlcDB(b, scale)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := db.QueryBaseline(join+" LIMIT 10", BaselinePostgres)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 10 {
				b.Fatalf("got %d rows", len(res.Rows))
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		db := tlcDB(b, scale)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryBaseline(join, BaselinePostgres); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBatchedScan measures the storage cursor the streaming scans
// are built on: batch-at-a-time row copies under a short read lock.
func BenchmarkBatchedScan(b *testing.B) {
	db := tlcDB(b, 5)
	table, ok := db.store.Table("call")
	if !ok {
		b.Fatal("no call table")
	}
	buf := make([]value.Row, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := table.Scan()
		rows := 0
		for {
			n, err := cur.Next(buf)
			if err != nil {
				b.Fatal(err)
			}
			if n == 0 {
				break
			}
			rows += n
		}
		if rows == 0 {
			b.Fatal("empty scan")
		}
	}
}

// BenchmarkQueryIter measures the streaming cursor against the
// materialising path on the paper's Example 2 query.
func BenchmarkQueryIter(b *testing.B) {
	db := tlcDB(b, 5)
	sql := tlcSQLFor(b, "Q1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ri, err := db.QueryIter(sql)
		if err != nil {
			b.Fatal(err)
		}
		for {
			batch, err := ri.NextBatch()
			if err != nil {
				b.Fatal(err)
			}
			if batch == nil {
				break
			}
		}
	}
}

// BenchmarkIndexFetch is a micro-benchmark of the constraint hash index
// probe at the heart of every bounded plan.
func BenchmarkIndexFetch(b *testing.B) {
	db := tlcDB(b, 5)
	sql := fmt.Sprintf("SELECT recnum, region FROM call WHERE pnum = %d AND date = %d", 1001, 20160315)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.QueryBounded(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParser measures SQL parsing + semantic analysis of the
// Example 2 query (cache bypassed).
func BenchmarkParser(b *testing.B) {
	db := tlcDB(b, 1)
	sql := tlcSQLFor(b, "Q1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := analyze.Analyze(stmt.Select, db.schema); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCache measures the memoised parse path the facade uses for
// repeated statements.
func BenchmarkPlanCache(b *testing.B) {
	db := tlcDB(b, 1)
	sql := tlcSQLFor(b, "Q1")
	if _, err := db.parse(sql); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.parse(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKeyEncode measures the injective key codec used by indices,
// hash joins and grouping.
func BenchmarkKeyEncode(b *testing.B) {
	row := []value.Value{
		value.NewInt(123456789),
		value.NewString("some-region-name"),
		value.NewFloat(3.25),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if k := value.Key(row); len(k) == 0 {
			b.Fatal("empty key")
		}
	}
}

// Columnar allocation benchmarks. The columnar executor's whole point is
// few per-row allocations and tight per-column loops; these three shapes
// (filter-heavy scan, hash-join probe, grouped aggregate) are the ones
// the beasbench vector suite times, measured here with allocation
// tracking so a regression shows up as allocs/op, not just ns/op.
var vecBenchSQL = map[string]string{
	"scan-filter": "SELECT pnum, duration, charge FROM call WHERE duration > 30 AND charge > 1.0 AND roaming_flag = 0",
	"join-probe":  "SELECT call.region, package.pid FROM call, package WHERE call.pnum = package.pnum",
	"agg-group":   "SELECT region, COUNT(*) AS calls, SUM(duration) AS total_s, MAX(charge) AS top FROM call GROUP BY region",
}

func benchVecAlloc(b *testing.B, sql string) {
	const scale = 5
	db := tlcDB(b, scale)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.QueryBaseline(sql, BaselinePostgres)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkVecScanFilter(b *testing.B) { benchVecAlloc(b, vecBenchSQL["scan-filter"]) }

func BenchmarkVecJoinProbe(b *testing.B) { benchVecAlloc(b, vecBenchSQL["join-probe"]) }

func BenchmarkVecGroupedAgg(b *testing.B) { benchVecAlloc(b, vecBenchSQL["agg-group"]) }
