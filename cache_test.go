package beas

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/bounded-eval/beas/internal/schema"
	"github.com/bounded-eval/beas/internal/tlc"
	"github.com/bounded-eval/beas/internal/value"
)

// The semantic result cache must be invisible in every answer: with the
// cache on, a query returns bit-identical rows, row order and
// data-derived statistics to an uncached execution, under any
// interleaving of inserts, deletes and catalog changes. This file pits a
// cache-enabled database against an uncached twin built from the same
// seed and mutated in lockstep.

// mustEqualCached compares one statement's results across the cached
// database and its uncached twin: identical columns, identical rows in
// identical order, identical data-derived statistics. Timing, plan text,
// estimates and cache metadata (Stats.CacheHit) are excluded — they are
// the only fields a cache hit is allowed to change.
func mustEqualCached(t *testing.T, sql string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Columns, want.Columns) {
		t.Fatalf("%s:\ncolumns: cached %v, uncached %v", sql, got.Columns, want.Columns)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s:\ncached %d rows, uncached %d rows", sql, len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if value.Key(got.Rows[i]) != value.Key(want.Rows[i]) {
			t.Fatalf("%s:\nrow %d differs (order-sensitive): cached %v, uncached %v",
				sql, i, got.Rows[i], want.Rows[i])
		}
	}
	gs, ws := got.Stats, want.Stats
	if gs.Mode != ws.Mode || gs.Covered != ws.Covered || gs.Bound != ws.Bound ||
		gs.ConstraintsUsed != ws.ConstraintsUsed ||
		gs.TuplesFetched != ws.TuplesFetched || gs.TuplesScanned != ws.TuplesScanned {
		t.Fatalf("%s:\nstats diverge:\ncached   mode=%v covered=%v bound=%d constraints=%d fetched=%d scanned=%d\nuncached mode=%v covered=%v bound=%d constraints=%d fetched=%d scanned=%d",
			sql,
			gs.Mode, gs.Covered, gs.Bound, gs.ConstraintsUsed, gs.TuplesFetched, gs.TuplesScanned,
			ws.Mode, ws.Covered, ws.Bound, ws.ConstraintsUsed, ws.TuplesFetched, ws.TuplesScanned)
	}
	if len(gs.FetchSteps) != len(ws.FetchSteps) {
		t.Fatalf("%s:\ncached %d fetch steps, uncached %d", sql, len(gs.FetchSteps), len(ws.FetchSteps))
	}
	for i := range gs.FetchSteps {
		a, b := gs.FetchSteps[i], ws.FetchSteps[i]
		if a.Constraint != b.Constraint || a.DistinctKey != b.DistinctKey ||
			a.Fetched != b.Fetched || a.RowsOut != b.RowsOut ||
			a.KeyBound != b.KeyBound || a.OutBound != b.OutBound {
			t.Fatalf("%s:\nfetch step %d diverges:\ncached   %+v\nuncached %+v", sql, i, a, b)
		}
	}
}

// randomMutation draws one mutation from the shared stream. The returned
// closure is applied to both databases so they stay identical; the
// description names the operation in failures.
func randomMutation(rng *rand.Rand) (string, func(*DB) error) {
	switch rng.Intn(10) {
	case 0, 1, 2, 3:
		vals := []any{rng.Intn(8), rng.Intn(6), fmt.Sprintf("c%d", rng.Intn(4)), rng.Intn(10),
			float64(rng.Intn(33)-16) * 0.5, int64(1) << 61, rng.Intn(2) == 0}
		return fmt.Sprintf("INSERT r %v", vals),
			func(db *DB) error { return db.Insert("r", vals...) }
	case 4:
		b, e := rng.Intn(6), rng.Intn(5)
		return fmt.Sprintf("INSERT s (%d, %d)", b, e),
			func(db *DB) error { return db.Insert("s", b, e) }
	case 5:
		e, f := rng.Intn(5), fmt.Sprintf("f%d", rng.Intn(3))
		return fmt.Sprintf("INSERT t (%d, %q)", e, f),
			func(db *DB) error { return db.Insert("t", e, f) }
	case 6, 7:
		a := rng.Intn(8)
		return fmt.Sprintf("DELETE r WHERE a=%d", a),
			func(db *DB) error { _, err := db.Delete("r", map[string]any{"a": a}); return err }
	case 8:
		b := rng.Intn(6)
		return fmt.Sprintf("DELETE s WHERE b=%d", b),
			func(db *DB) error { _, err := db.Delete("s", map[string]any{"b": b}); return err }
	default:
		return "RETIGHTEN", func(db *DB) error { _, err := db.Retighten(); return err }
	}
}

// TestResultCacheEquivalenceRandomized interleaves randomized mutations
// with repeated randomized queries. Every statement runs once on the
// uncached twin and twice on the cached database — the second pass
// serves stored entries — and each round re-runs the round's statements
// after the mutations, so patched and invalidated entries are compared
// against fresh execution too. One configuration runs the cost-based
// optimizer (whose entries use coarse invalidation).
func TestResultCacheEquivalenceRandomized(t *testing.T) {
	for d := 0; d < 4; d++ {
		seed := int64(9200 + 17*d)
		cached := randomDB(t, rand.New(rand.NewSource(seed)))
		twin := randomDB(t, rand.New(rand.NewSource(seed)))
		cached.SetResultCache(true)
		if d == 3 {
			cached.SetOptimizer(true)
			twin.SetOptimizer(true)
		}
		rng := rand.New(rand.NewSource(seed + 1))
		for round := 0; round < 6; round++ {
			sqls := make([]string, 8)
			for i := range sqls {
				sqls[i] = randomSQL(rng)
			}
			check := func(when string) {
				for _, sql := range sqls {
					want, err := twin.Query(sql)
					if err != nil {
						t.Fatalf("db %d round %d %s: uncached %s: %v", d, round, when, sql, err)
					}
					for pass := 0; pass < 2; pass++ {
						got, err := cached.Query(sql)
						if err != nil {
							t.Fatalf("db %d round %d %s: cached %s: %v", d, round, when, sql, err)
						}
						mustEqualCached(t, fmt.Sprintf("db %d round %d %s: %s", d, round, when, sql), got, want)
					}
				}
			}
			check("pre-mutation")
			for m := 0; m < 4; m++ {
				desc, apply := randomMutation(rng)
				if err := apply(cached); err != nil {
					t.Fatalf("db %d round %d: %s on cached: %v", d, round, desc, err)
				}
				if err := apply(twin); err != nil {
					t.Fatalf("db %d round %d: %s on twin: %v", d, round, desc, err)
				}
			}
			check("post-mutation")
		}
		st := cached.ResultCacheStats()
		if st.Hits == 0 {
			t.Fatalf("db %d: the cached database never served a hit — the hit path went untested", d)
		}
		t.Logf("db %d: hits=%d misses=%d stores=%d patches=%d invalidations=%d",
			d, st.Hits, st.Misses, st.Stores, st.Patches, st.Invalidations)
	}
}

// TestResultCacheEquivalenceTLC runs the full TLC workload with the
// cache on against an uncached twin, interleaving inserts, deletes and
// retightening between sweeps.
func TestResultCacheEquivalenceTLC(t *testing.T) {
	cached := MustNewTLCDB(1)
	twin := MustNewTLCDB(1)
	cached.SetResultCache(true)
	queries := TLCQueries()
	var callRel *schema.Relation
	for _, r := range tlc.Relations() {
		if r.Name == "call" {
			callRel = r
		}
	}
	// tlcRow synthesises one schema-conformant call record; seed keys its
	// pnum so a later round can delete exactly this row on both sides.
	tlcRow := func(seed int) []any {
		row := make([]any, callRel.Arity())
		for i, a := range callRel.Attrs {
			switch a.Kind {
			case value.String:
				row[i] = fmt.Sprintf("m%d", seed)
			case value.Float:
				row[i] = float64(seed) + 0.5
			default:
				row[i] = seed*31 + i
			}
		}
		return row
	}
	mutate := func(round int) {
		row := tlcRow(7000 + round)
		for _, db := range []*DB{cached, twin} {
			db.MustInsert("call", row...)
			if round > 0 {
				if _, err := db.Delete("call", map[string]any{"pnum": 31 * (7000 + round - 1)}); err != nil {
					t.Fatal(err)
				}
			}
			if round == 2 {
				if _, err := db.Retighten(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			want, err := twin.Query(q.SQL)
			if err != nil {
				t.Fatalf("round %d: uncached %s: %v", round, q.Name, err)
			}
			for pass := 0; pass < 2; pass++ {
				got, err := cached.Query(q.SQL)
				if err != nil {
					t.Fatalf("round %d: cached %s: %v", round, q.Name, err)
				}
				mustEqualCached(t, fmt.Sprintf("round %d: %s", round, q.Name), got, want)
			}
		}
		mutate(round)
	}
	st := cached.ResultCacheStats()
	if st.Hits == 0 {
		t.Fatal("TLC sweep produced no cache hits")
	}
	t.Logf("TLC: hits=%d misses=%d stores=%d patches=%d invalidations=%d",
		st.Hits, st.Misses, st.Stores, st.Patches, st.Invalidations)
}

// TestResultCacheEquivalenceVariants checks the canonicalizer end to
// end: syntactic variants of one statement — reordered conjuncts, case
// changes, whitespace, reordered IN lists — must share a single result
// entry and serve identical answers.
func TestResultCacheEquivalenceVariants(t *testing.T) {
	seed := int64(4242)
	cached := randomDB(t, rand.New(rand.NewSource(seed)))
	twin := randomDB(t, rand.New(rand.NewSource(seed)))
	cached.SetResultCache(true)

	groups := [][]string{
		{
			"SELECT r.c, r.d FROM r WHERE r.a = 3 AND r.d = 5",
			"select r.c, r.d from r where r.d = 5 and r.a = 3",
			"SELECT  r.c,  r.d  FROM r  WHERE r.d = 5 AND r.a = 3",
		},
		{
			"SELECT r.a, s.e FROM r, s WHERE r.a IN (1, 4) AND r.b = s.b",
			"SELECT r.a, s.e FROM r, s WHERE r.b = s.b AND r.a IN (1, 4)",
		},
		{
			"SELECT COUNT(*), MIN(r.d) FROM r WHERE r.b = 2",
			"select count(*), min(r.d) from r where r.b = 2",
		},
	}
	for gi, group := range groups {
		base := cached.ResultCacheStats()
		want, err := twin.Query(group[0])
		if err != nil {
			t.Fatalf("group %d: uncached: %v", gi, err)
		}
		for vi, sql := range group {
			got, err := cached.Query(sql)
			if err != nil {
				t.Fatalf("group %d variant %d: %v", gi, vi, err)
			}
			mustEqualCached(t, fmt.Sprintf("group %d variant %d: %s", gi, vi, sql), got, want)
			if vi > 0 && !got.Stats.CacheHit {
				t.Fatalf("group %d variant %d did not hit the entry stored by variant 0: %s", gi, vi, sql)
			}
		}
		st := cached.ResultCacheStats()
		if n := st.Stores - base.Stores; n != 1 {
			t.Fatalf("group %d: %d entries stored for %d syntactic variants; the canonicalizer must collapse them to one",
				gi, n, len(group))
		}
		if hits := st.Hits - base.Hits; hits != uint64(len(group)-1) {
			t.Fatalf("group %d: %d hits for %d variants after the first", gi, hits, len(group)-1)
		}
	}

	// A permuted IN list is NOT an equivalent variant: serial execution
	// probes candidate constants in textual order, so the two statements
	// return the same bag in different row orders. Each must keep its own
	// entry and serve its own order.
	perm := []string{
		"SELECT r.a, r.c FROM r WHERE r.a IN (1, 4)",
		"SELECT r.a, r.c FROM r WHERE r.a IN (4, 1)",
	}
	for _, sql := range perm {
		want, err := twin.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			got, err := cached.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualCached(t, sql, got, want)
			if pass == 1 && !got.Stats.CacheHit {
				t.Fatalf("repeat of %q missed its own entry", sql)
			}
		}
	}
}

// TestResultCacheEquivalenceStream covers the cursor path both ways: a
// fully drained cold cursor must store the answer (an abandoned one
// must not), and a QueryIter over the stored entry must stream the
// identical rows in the identical order and surface the restored
// statistics at Close.
func TestResultCacheEquivalenceStream(t *testing.T) {
	seed := int64(515)
	cached := randomDB(t, rand.New(rand.NewSource(seed)))
	twin := randomDB(t, rand.New(rand.NewSource(seed)))
	cached.SetResultCache(true)

	sql := "SELECT r.a, r.b, r.c FROM r WHERE r.a = 2"
	want, err := twin.Query(sql)
	if err != nil {
		t.Fatal(err)
	}

	// An early-closed cursor has a partial answer: no store.
	early, err := cached.QueryIter(sql)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := early.Next(); err != nil {
		t.Fatal(err)
	}
	if err := early.Close(); err != nil {
		t.Fatal(err)
	}
	if st := cached.ResultCacheStats(); st.Stores != 0 {
		t.Fatalf("abandoned cursor stored a partial answer: %+v", st)
	}

	// A drained cursor stores the bounded answer exactly like Query.
	cold, err := cached.QueryIter(sql)
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := cold.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}
	if cold.Stats().CacheHit {
		t.Fatal("cold cursor reported a cache hit")
	}
	if st := cached.ResultCacheStats(); st.Stores != 1 {
		t.Fatalf("drained cursor did not store: %+v", st)
	}

	it, err := cached.QueryIter(sql)
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	for {
		row, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rows = append(rows, row)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	st := it.Stats()
	if !st.CacheHit {
		t.Fatal("cursor over a stored entry did not serve from the cache")
	}
	if len(rows) != len(want.Rows) {
		t.Fatalf("cursor streamed %d rows, uncached query returned %d", len(rows), len(want.Rows))
	}
	for i := range rows {
		if value.Key(rows[i]) != value.Key(want.Rows[i]) {
			t.Fatalf("cursor row %d: %v != %v", i, rows[i], want.Rows[i])
		}
	}
	if st.TuplesFetched != want.Stats.TuplesFetched || len(st.FetchSteps) != len(want.Stats.FetchSteps) {
		t.Fatalf("cursor stats: fetched=%d steps=%d, uncached fetched=%d steps=%d",
			st.TuplesFetched, len(st.FetchSteps), want.Stats.TuplesFetched, len(want.Stats.FetchSteps))
	}
}

// TestPlanCacheBoundedGrowth floods the template tier with distinct
// statement texts and requires its byte accounting to hold the
// configured budget — the regression the unbounded sync.Map plan cache
// could not pass.
func TestPlanCacheBoundedGrowth(t *testing.T) {
	db := NewDB()
	db.MustCreateTable("u", "a INT", "b INT")
	if _, err := db.RegisterConstraintAuto("u", []string{"a"}, []string{"b"}, 1); err != nil {
		t.Fatal(err)
	}
	db.MustInsert("u", 1, 10)
	const budget = 1 << 20
	db.SetResultCacheLimits(budget, 0)
	const distinct = 100000
	sql0 := "SELECT u.b FROM u WHERE u.a = 0"
	for i := 0; i < distinct; i++ {
		sql := fmt.Sprintf("SELECT u.b FROM u WHERE u.a = %d", i)
		if _, err := db.Check(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	st := db.ResultCacheStats()
	if st.TemplateBytes > budget {
		t.Fatalf("template tier holds %d bytes, budget is %d", st.TemplateBytes, budget)
	}
	if st.TemplateEntries >= distinct/2 {
		t.Fatalf("template tier kept %d of %d distinct texts; eviction is not engaging", st.TemplateEntries, distinct)
	}
	if st.TemplateEntries == 0 {
		t.Fatal("template tier is empty after the flood; admission is broken")
	}
	// Each text carries its prepared state — verdict, plan, describe text
	// — which must be charged to the budget, not ride along for free: at
	// the text-only estimate (8 bytes per character + 512) twice as many
	// entries would fit.
	if perEntry := st.TemplateBytes / int64(st.TemplateEntries); perEntry < 2*(int64(len(sql0))*8+512) {
		t.Fatalf("template tier accounts %d bytes per entry; prepared state is not charged", perEntry)
	}
	// The most recent statement must still be cached and usable.
	sql := fmt.Sprintf("SELECT u.b FROM u WHERE u.a = %d", distinct-1)
	base := st.TemplateHits
	if _, err := db.Check(sql); err != nil {
		t.Fatal(err)
	}
	if got := db.ResultCacheStats().TemplateHits; got != base+1 {
		t.Fatalf("re-checking the most recent statement missed the template tier (hits %d -> %d)", base, got)
	}
}

// TestResultCacheRowOwnership pins the row-ownership rule the cursor and
// the result cache share: emitted rows are immutable, so a drained cursor
// stores the very rows it handed out, a later hit serves them equal to an
// uncached twin, and a patching insert rewrites the entry without
// touching any row a caller already holds.
func TestResultCacheRowOwnership(t *testing.T) {
	for _, sql := range []string{
		"SELECT r.a, r.b, r.c FROM r WHERE r.a = 2",      // patched by a bag append
		"SELECT COUNT(*), SUM(r.d) FROM r WHERE r.a = 2", // patched by copy-on-write of the aggregate row
	} {
		seed := int64(515)
		cached := randomDB(t, rand.New(rand.NewSource(seed)))
		twin := randomDB(t, rand.New(rand.NewSource(seed)))
		cached.SetResultCache(true)

		ri, err := cached.QueryIter(sql)
		if err != nil {
			t.Fatal(err)
		}
		var streamed []Row
		for {
			batch, err := ri.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if batch == nil {
				break
			}
			streamed = append(streamed, batch...)
		}
		if st := cached.ResultCacheStats(); st.Stores != 1 {
			t.Fatalf("%s: drained cursor stored %d answers, want 1", sql, st.Stores)
		}
		hit, err := cached.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if !hit.Stats.CacheHit {
			t.Fatalf("%s: Query after the drained cursor missed the cache", sql)
		}
		want, err := twin.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualCached(t, sql, hit, want)
		mustEqualCached(t, sql, &Result{Columns: hit.Columns, Rows: streamed, Stats: want.Stats}, want)

		before := orderedKeys(hit.Rows)
		for _, db := range []*DB{cached, twin} {
			db.MustInsert("r", 2, 1, "c9", 7, 0.5, int64(1)<<61, true)
		}
		if st := cached.ResultCacheStats(); st.Patches != 1 {
			t.Fatalf("%s: insert on a probed key patched %d entries, want 1", sql, st.Patches)
		}
		if got := orderedKeys(hit.Rows); !slices.Equal(got, before) {
			t.Fatalf("%s: patch rewrote rows a caller holds:\nbefore %v\nafter  %v", sql, before, got)
		}
		if got := orderedKeys(streamed); !slices.Equal(got, before) {
			t.Fatalf("%s: patch rewrote rows the cursor handed out: %v", sql, got)
		}
		after, err := cached.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err = twin.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualCached(t, sql, after, want)
	}
}

// orderedKeys renders rows position by position, so comparisons catch
// ordering differences that a sorted bag would hide.
func orderedKeys(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = value.Key(r)
	}
	return out
}
