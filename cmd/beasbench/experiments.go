package main

import (
	"fmt"
	"time"

	beas "github.com/bounded-eval/beas"
)

// example2 (E1): the bound deduction of the paper's Example 2 — the plan
// steps and the deduced bound M, before any execution.
func (h *harness) example2() {
	h.banner("E1: Example 2 — bound deduction (paper §2, Example 2)")
	db := h.db(h.scale)
	sql := tlcSQL("Q1")
	info, err := db.Check(sql)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("  covered: %v  constraints used: %d\n", info.Covered, info.ConstraintsUsed)
	fmt.Printf("  deduced bound M (dedup-key semantics): %d tuples\n", info.Bound)
	fmt.Printf("  paper's row-driven bound for comparison: 2000 + 2000*12 + 2000*12*500 = %d tuples\n",
		2000+2000*12+2000*12*500)
	fmt.Println("  bounded plan (cf. steps (1)-(4) of Example 2):")
	fmt.Print(indent(info.Plan, "    "))
	res, err := db.QueryBounded(sql)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("  executed: %d rows, %d tuples actually fetched (<= M), %.3f ms\n",
		len(res.Rows), res.Stats.TuplesFetched, float64(res.Stats.Duration.Microseconds())/1000)
	h.record("example2", "Q1-bounded", h.scale, res.Stats.Duration, res)
}

// fig3 (E2): performance analysis of Q1 — per-operation breakdown and
// acceleration ratios vs the three conventional baselines (paper Fig. 3).
func (h *harness) fig3() {
	h.banner(fmt.Sprintf("E2: Fig. 3 — performance analysis of Q (Example 2) at scale %d", h.scale))
	db := h.db(h.scale)
	sql := tlcSQL("Q1")

	bd, bres, err := h.timeBounded(db, sql)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	h.record("fig3", "Q1-beas", h.scale, bd, bres)
	type baseRun struct {
		name beas.Baseline
		dur  time.Duration
		res  *beas.Result
	}
	var bases []baseRun
	for _, b := range []beas.Baseline{beas.BaselinePostgres, beas.BaselineMySQL, beas.BaselineMariaDB} {
		d, r, err := h.timeBaseline(db, sql, b)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		bases = append(bases, baseRun{b, d, r})
		h.record("fig3", "Q1-"+string(b), h.scale, d, r)
	}

	fmt.Printf("\n  overall execution (paper: BEAS 96.13 ms vs PG 187.8 s => 1953x at 20 GB):\n")
	rows := [][]string{{"BEAS (bounded)", ms(bd), "1x",
		fmt.Sprintf("%d fetched", bres.Stats.TuplesFetched),
		fmt.Sprintf("%d constraints", bres.Stats.ConstraintsUsed)}}
	for _, b := range bases {
		rows = append(rows, []string{string(b.name), ms(b.dur), ratio(b.dur, bd),
			fmt.Sprintf("%d scanned", b.res.Stats.TuplesScanned), ""})
	}
	table([]string{"engine", "time (ms)", "speedup", "data accessed", "plan"}, rows)

	fmt.Println("\n  BEAS per-operation breakdown (fetch steps):")
	var srows [][]string
	for i, s := range bres.Stats.FetchSteps {
		srows = append(srows, []string{
			fmt.Sprintf("(%d) fetch %s", i+1, s.Atom),
			s.Constraint,
			fmt.Sprintf("%d", s.DistinctKey),
			fmt.Sprintf("%d", s.Fetched),
			fmt.Sprintf("%d", s.RowsOut),
			ms(s.Duration),
		})
	}
	table([]string{"operation", "access constraint", "keys", "tuples fetched", "rows out", "time (ms)"}, srows)

	for _, b := range bases {
		fmt.Printf("\n  %s per-operation breakdown:\n", b.name)
		var orows [][]string
		for _, o := range b.res.Stats.Ops {
			orows = append(orows, []string{o.Op,
				fmt.Sprintf("%d", o.RowsIn), fmt.Sprintf("%d", o.RowsOut), ms(o.Duration)})
		}
		table([]string{"operation", "rows in", "rows out", "time (ms)"}, orows)
	}
}

// fig4 (E3): scalability — query time of Q1 while the database scales up
// (paper Fig. 4: BEAS flat ~1 s; PG/MySQL/MariaDB grow to 1932/6187/5243 s).
func (h *harness) fig4() {
	h.banner("E3: Fig. 4 — scalability of Q (Example 2) over the TLC scale sweep")
	fmt.Println("  scale factors stand in for the paper's 1 GB -> 200 GB x-axis")
	headers := []string{"scale", "rows(call)", "BEAS (ms)", "postgresql (ms)", "mysql (ms)", "mariadb (ms)", "pg/BEAS"}
	var rows [][]string
	for _, s := range h.scales {
		db := h.db(s)
		sql := tlcSQL("Q1")
		bd, bres, err := h.timeBounded(db, sql)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		h.record("fig4", "Q1-beas", s, bd, bres)
		var durs []time.Duration
		for _, b := range []beas.Baseline{beas.BaselinePostgres, beas.BaselineMySQL, beas.BaselineMariaDB} {
			d, r, err := h.timeBaseline(db, sql, b)
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			durs = append(durs, d)
			h.record("fig4", "Q1-"+string(b), s, d, r)
		}
		n, _ := db.RowCount("call")
		rows = append(rows, []string{
			fmt.Sprintf("%d", s), fmt.Sprintf("%d", n),
			ms(bd), ms(durs[0]), ms(durs[1]), ms(durs[2]), ratio(durs[0], bd),
		})
	}
	table(headers, rows)
	fmt.Println("  expected shape: BEAS column flat (scale-independent); baselines grow linearly.")
}

// queries (E4): the 12 built-in TLC queries — coverage, bounds and
// speedups (paper §4(2): \">90% of queries boundedly evaluable, orders of
// magnitude faster\").
func (h *harness) queries() {
	h.banner(fmt.Sprintf("E4: the 12 built-in TLC queries at scale %d", h.scale))
	db := h.db(h.scale)
	headers := []string{"query", "covered", "bound M", "fetched", "scanned", "BEAS (ms)", "postgresql (ms)", "speedup"}
	var rows [][]string
	covered := 0
	for _, q := range beas.TLCQueries() {
		info, err := db.Check(q.SQL)
		if err != nil {
			fmt.Printf("  %s: check error: %v\n", q.Name, err)
			continue
		}
		bd, bres, err := h.timeAuto(db, q.SQL)
		if err != nil {
			fmt.Printf("  %s: error: %v\n", q.Name, err)
			continue
		}
		pd, pres, err := h.timeBaseline(db, q.SQL, beas.BaselinePostgres)
		if err != nil {
			fmt.Printf("  %s: baseline error: %v\n", q.Name, err)
			continue
		}
		h.record("queries", q.Name+"-beas", h.scale, bd, bres)
		h.record("queries", q.Name+"-postgresql", h.scale, pd, pres)
		bound := fmt.Sprintf("%d", info.Bound)
		if !info.Covered {
			bound = "-"
		} else {
			covered++
		}
		rows = append(rows, []string{
			q.Name, fmt.Sprintf("%v", info.Covered), bound,
			fmt.Sprintf("%d", bres.Stats.TuplesFetched),
			fmt.Sprintf("%d", bres.Stats.TuplesScanned),
			ms(bd), ms(pd), ratio(pd, bd),
		})
	}
	table(headers, rows)
	fmt.Printf("  %d/12 queries covered (paper: >90%%)\n", covered)
}

// budget (E5): deciding \"can Q be answered within a budget\" without
// executing it (demo §4(1)(a)).
func (h *harness) budget() {
	h.banner("E5: budgeted evaluability check (no execution)")
	db := h.db(h.scale)
	sql := tlcSQL("Q1")
	info, err := db.Check(sql)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	var rows [][]string
	for _, b := range []uint64{1000, 10000, 100000, 1000000, 2000000, 20000000} {
		rows = append(rows, []string{fmt.Sprintf("%d", b), fmt.Sprintf("%v", info.WithinBudget(b))})
	}
	table([]string{"budget (tuples)", "answerable within budget"}, rows)
	fmt.Printf("  deduced bound M = %d\n", info.Bound)
}

// partial (E6): partially bounded evaluation of the non-covered Q11
// (demo §4(1)(b)).
func (h *harness) partial() {
	h.banner(fmt.Sprintf("E6: partially bounded plan for the non-covered Q11 at scale %d", h.scale))
	db := h.db(h.scale)
	sql := tlcSQL("Q11")
	info, err := db.Check(sql)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("  covered: %v\n  reason: %s\n  plan:\n%s", info.Covered, info.Reason, indent(info.Plan, "    "))
	pd, pres, err := h.timeAuto(db, sql)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	cd, cres, err := h.timeBaseline(db, sql, beas.BaselinePostgres)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	h.record("partial", "Q11-beas", h.scale, pd, pres)
	h.record("partial", "Q11-postgresql", h.scale, cd, cres)
	table([]string{"engine", "time (ms)", "fetched", "scanned", "rows"}, [][]string{
		{"BEAS (partially bounded)", ms(pd), fmt.Sprintf("%d", pres.Stats.TuplesFetched),
			fmt.Sprintf("%d", pres.Stats.TuplesScanned), fmt.Sprintf("%d", len(pres.Rows))},
		{"postgresql (conventional)", ms(cd), "0",
			fmt.Sprintf("%d", cres.Stats.TuplesScanned), fmt.Sprintf("%d", len(cres.Rows))},
	})
	fmt.Println("  the bounded sub-query replaces the business scan with an index fetch.")
}

// discovery (E7): access-schema discovery on TLC data + query load under
// storage budgets (demo §4(1)(d)).
func (h *harness) discovery() {
	h.banner("E7: access schema discovery (AS Catalog, Discovery module)")
	db := h.db(1) // discovery profiles the data; scale 1 keeps it quick
	var workload []string
	for _, q := range beas.TLCQueries()[:10] {
		workload = append(workload, q.SQL)
	}
	for _, budget := range []int64{0, 20000, 5000} {
		specs, report, err := db.Discover(beas.DiscoverOptions{
			Workload: workload,
			Budget:   budget,
		})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		label := "unlimited"
		if budget > 0 {
			label = fmt.Sprintf("%d entries", budget)
		}
		fmt.Printf("\n  storage budget: %s -> %d constraints selected\n", label, len(specs))
		fmt.Print(indent(report, "    "))
	}
}

// approx (E8): resource-bounded approximation — accuracy lower bound vs
// fetch budget (paper §3).
func (h *harness) approx() {
	h.banner(fmt.Sprintf("E8: resource-bounded approximation of Q1 at scale %d", h.scale))
	db := h.db(h.scale)
	sql := tlcSQL("Q1")
	exact, err := db.QueryBounded(sql)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	headers := []string{"budget (tuples)", "rows returned", "coverage >=", "exact?"}
	var rows [][]string
	for _, b := range []int64{4, 32, 64, 96, 112, 128, 160, 256, 4096} {
		res, cov, err := db.QueryApprox(sql, b)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", b), fmt.Sprintf("%d", len(res.Rows)),
			fmt.Sprintf("%.3f", cov), fmt.Sprintf("%v", cov >= 1),
		})
	}
	table(headers, rows)
	fmt.Printf("  exact answer: %d rows; coverage grows monotonically with budget\n", len(exact.Rows))
}

// maint (E9): incremental index maintenance vs rebuilding under updates
// (AS Catalog, Maintenance module).
func (h *harness) maint() {
	h.banner(fmt.Sprintf("E9: incremental index maintenance at scale %d", h.scale))
	db := h.db(h.scale)
	const updates = 5000
	start := time.Now()
	for i := 0; i < updates; i++ {
		db.MustInsert("call",
			9_000_000+i, 1000, 20160401, i%86400, 60,
			"r1", "voice", "mo", "volte", "DE",
			7000, 100+i, 900+i, 1, 2, 3, 0, 120, 1, 2, 1, 10_000_000+i, 0,
			"", "flat", "EUR", 3.5, 0.1, 0, 0)
	}
	incr := time.Since(start)
	h.record("maint", "incremental-5000-inserts", h.scale, incr, nil)
	ok, viols := db.Conforms()
	fmt.Printf("  %d inserts with 1 constraint index maintained incrementally: %.3f ms (%.2f us/row)\n",
		updates, float64(incr.Microseconds())/1000, float64(incr.Microseconds())/updates)
	fmt.Printf("  access schema still conforms: %v (violations: %d)\n", ok, len(viols))
	n, _ := db.RowCount("call")
	fmt.Printf("  (a full rebuild would re-scan all %d call rows per update batch)\n", n)
}

// vectorQueries are the E10 shapes: a selective scan, a join probe and a
// grouped aggregate. The digest-overhead experiment (E12) times the same
// shapes, so the two stay one list.
var vectorQueries = []struct{ name, sql string }{
	{"scan-filter", "SELECT pnum, duration, charge FROM call WHERE duration > 30 AND charge > 1.0 AND roaming_flag = 0"},
	{"join-probe", "SELECT call.region, package.pid FROM call, package WHERE call.pnum = package.pnum"},
	{"agg-group", "SELECT region, COUNT(*) AS calls, SUM(duration) AS total_s, MAX(charge) AS top FROM call GROUP BY region"},
}

// vector (E10): the vectorized execution micro-suite — the three operator
// shapes the columnar executor targets (filter-heavy scan, hash-join
// probe, grouped aggregate), run through the conventional engine where
// the columnar scan, vectorized filters and columnar join/aggregate
// tails engage.
func (h *harness) vector() {
	h.banner(fmt.Sprintf("E10: vectorized execution suite at scale %d", h.scale))
	db := h.db(h.scale)
	var rows [][]string
	for _, q := range vectorQueries {
		d, res, err := h.timeBaseline(db, q.sql, beas.BaselinePostgres)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		h.record("vector", q.name, h.scale, d, res)
		rows = append(rows, []string{q.name, ms(d),
			fmt.Sprintf("%d", res.Stats.TuplesScanned), fmt.Sprintf("%d", len(res.Rows))})
	}
	table([]string{"shape", "time (ms)", "scanned", "rows"}, rows)
}

// cache (E11): the semantic result cache — cold first pass vs warm
// steady state over the covered TLC queries. Run once without -rcache
// (cache-off baseline: both passes execute) and once with -rcache
// (first pass executes and stores, steady state serves hits);
// cmd/benchgate then compares the two files: the `cache` record
// (workload aggregate) gates the cold-pass overhead of enabling the
// cache, the `cachewarm` records gate the warm-serving speedup, and the
// per-query `cachecold` records are informational.
func (h *harness) cache() {
	mode := "result cache off (baseline)"
	if h.rcache {
		mode = "result cache on (-rcache)"
	}
	h.banner(fmt.Sprintf("E11: semantic result cache at scale %d — %s", h.scale, mode))
	// A fresh database, not h.db's shared one: the first pass must be
	// genuinely cold, and other experiments must not have warmed it.
	db := beas.MustNewTLCDB(h.scale)
	if h.rcache {
		db.SetResultCache(true)
	}

	var rows [][]string
	var workloadCold, workloadWarm time.Duration
	for _, q := range beas.TLCQueries() {
		info, err := db.Check(q.SQL)
		if err != nil || !info.Covered {
			continue // only covered statements are cacheable
		}
		// Cold pass, min over h.runs: toggling the cache off and back on
		// between repetitions drops every stored answer, so each timed
		// run pays the full execute (+ key-collection + store) cost.
		var cold time.Duration
		var coldRes *beas.Result
		for i := 0; i < h.runs; i++ {
			if h.rcache {
				db.SetResultCache(false)
				db.SetResultCache(true)
			}
			r, err := db.Query(q.SQL)
			if err != nil {
				fmt.Printf("  %s: error: %v\n", q.Name, err)
				return
			}
			if i == 0 || r.Stats.Duration < cold {
				cold = r.Stats.Duration
			}
			coldRes = r
		}
		// Per-query cold timings are informational (sub-millisecond
		// records are too noisy to gate at a tight threshold); the gated
		// cold-overhead record is the workload aggregate below.
		h.recordCache("cachecold", q.Name+"-first-pass", h.scale, cold, coldRes, db)

		// Steady state: repeats of the exact statement. With the cache on
		// the first repetition above already stored the answer, so every
		// run here serves a hit; off, every run re-executes.
		var warm time.Duration
		var warmRes *beas.Result
		for i := 0; i < h.runs; i++ {
			r, err := db.Query(q.SQL)
			if err != nil {
				fmt.Printf("  %s: error: %v\n", q.Name, err)
				return
			}
			if i == 0 || r.Stats.Duration < warm {
				warm = r.Stats.Duration
			}
			warmRes = r
		}
		h.recordCache("cachewarm", q.Name+"-steady", h.scale, warm, warmRes, db)
		workloadCold += cold
		workloadWarm += warm
		rows = append(rows, []string{
			q.Name, ms(cold), ms(warm), ratio(cold, warm),
			fmt.Sprintf("%v", warmRes.Stats.CacheHit), fmt.Sprintf("%d", len(warmRes.Rows)),
		})
	}
	h.recordCache("cache", "workload-first-pass", h.scale, workloadCold, nil, db)
	h.recordCache("cachewarm", "workload-steady", h.scale, workloadWarm, nil, db)
	table([]string{"query", "cold (ms)", "steady (ms)", "speedup", "served from cache", "rows"}, rows)
	s := db.ResultCacheStats()
	fmt.Printf("  cache counters: %d hits, %d misses, %d stores, %d invalidations, %d entries (%d bytes)\n",
		s.Hits, s.Misses, s.Stores, s.Invalidations, s.Entries, s.Bytes)
	fmt.Printf("  workload: cold %s ms, steady %s ms (%s)\n", ms(workloadCold), ms(workloadWarm), ratio(workloadCold, workloadWarm))
}

// digest (E12): workload-digest overhead — the vectorized suite shapes
// timed with digests off and on, interleaved run by run in one process.
// Separate processes differ by far more than the 2% the overhead gate
// allows (allocator layout, CPU frequency, co-tenancy), so both
// configurations share a process: -json receives the digests-on records
// and -json-baseline the digests-off records under identical keys,
// exactly the pair cmd/benchgate compares. Per-shape records are filed
// under `digestshape` (informational); the gated record is the `digest`
// suite aggregate.
func (h *harness) digest() {
	h.banner(fmt.Sprintf("E12: workload-digest overhead at scale %d — off vs on, interleaved", h.scale))
	// A fresh database, not h.db's shared one: -digests must not leak a
	// digest set into the off half of the comparison.
	db := beas.MustNewTLCDB(h.scale)
	set := beas.NewDigestSet(128)

	var rows [][]string
	var totalOff, totalOn time.Duration
	for _, q := range vectorQueries {
		// db.Query, not QueryBaseline: the digest wrapper sits on the
		// product query path, and the off half must pay exactly the same
		// path minus one atomic load.
		run := func(d *beas.DigestSet) (*beas.Result, error) {
			db.SetDigests(d)
			return db.Query(q.sql)
		}
		// One untimed warm-up per configuration.
		for _, d := range []*beas.DigestSet{nil, set} {
			if _, err := run(d); err != nil {
				fmt.Println("error:", err)
				return
			}
		}
		offMin, onMin := time.Duration(1<<62), time.Duration(1<<62)
		var offRes, onRes *beas.Result
		for i := 0; i < h.runs; i++ {
			// Alternate which configuration goes first: the second run of
			// a pair tends to absorb the first run's GC debt, and that
			// bias must not land on one side of the comparison.
			order := []*beas.DigestSet{nil, set}
			if i%2 == 1 {
				order[0], order[1] = order[1], order[0]
			}
			for _, d := range order {
				r, err := run(d)
				if err != nil {
					fmt.Println("error:", err)
					return
				}
				if d == nil {
					if r.Stats.Duration < offMin {
						offMin = r.Stats.Duration
					}
					offRes = r
				} else {
					if r.Stats.Duration < onMin {
						onMin = r.Stats.Duration
					}
					onRes = r
				}
			}
		}
		h.recordBaseline("digestshape", q.name, h.scale, offMin, offRes)
		h.record("digestshape", q.name, h.scale, onMin, onRes)
		totalOff += offMin
		totalOn += onMin
		rows = append(rows, []string{q.name, ms(offMin), ms(onMin),
			fmt.Sprintf("%.3fx", float64(onMin)/float64(offMin))})
	}
	h.recordBaseline("digest", "suite-total", h.scale, totalOff, nil)
	h.record("digest", "suite-total", h.scale, totalOn, nil)
	rows = append(rows, []string{"suite-total", ms(totalOff), ms(totalOn),
		fmt.Sprintf("%.3fx", float64(totalOn)/float64(totalOff))})
	table([]string{"shape", "digests off (ms)", "digests on (ms)", "on/off"}, rows)
	fmt.Printf("  digest set after the on-runs: %d fingerprints, %d observations\n",
		set.Len(), set.Observations())
}

func indent(s, pad string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += pad + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}
