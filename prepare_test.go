package beas

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/bounded-eval/beas/internal/obs"
	"github.com/bounded-eval/beas/internal/value"
)

// Prepared state — checker verdict, optimizer derivation, bounded plan,
// describe text — is cached per statement text. It must be invisible in
// every answer: a statement run cold, warm, and warm after the data
// moved returns what a database that never saw the text returns, row
// for row and statistic for statistic; and it must never outlive what it
// was deduced from.

// parse analyses sql through the template cache under the catalog read
// lock; tests use it to observe template identity.
func (db *DB) parse(sql string) (*parsed, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, _, err := db.parseLocked(sql)
	if err != nil {
		return nil, err
	}
	return t.Parsed.(*parsed), nil
}

// drainIter runs sql through a cursor and returns it as a Result.
func drainIter(t *testing.T, db *DB, sql string) *Result {
	t.Helper()
	ri, err := db.QueryIter(sql)
	if err != nil {
		t.Fatalf("QueryIter(%q): %v", sql, err)
	}
	res := &Result{Columns: ri.Columns()}
	for {
		rows, err := ri.NextBatch()
		if err != nil {
			t.Fatalf("QueryIter(%q): %v", sql, err)
		}
		if rows == nil {
			break
		}
		for _, r := range rows {
			res.Rows = append(res.Rows, append(Row(nil), r...))
		}
	}
	res.Stats = *ri.Stats()
	return res
}

// mustEqualPrepared requires got (a possibly-warm execution) to be
// indistinguishable from want (the same statement's first execution on a
// twin database): rows in order, and every statistic but the timings —
// estimates and plan text included.
func mustEqualPrepared(t *testing.T, what, sql string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Columns, want.Columns) {
		t.Fatalf("%s %s:\ncolumns %v, twin %v", what, sql, got.Columns, want.Columns)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s %s:\n%d rows, twin %d", what, sql, len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if value.Key(got.Rows[i]) != value.Key(want.Rows[i]) {
			t.Fatalf("%s %s:\nrow %d: %v, twin %v", what, sql, i, got.Rows[i], want.Rows[i])
		}
	}
	strip := func(s Stats) Stats {
		s.Duration = 0
		s.FetchSteps = append([]StepStat(nil), s.FetchSteps...)
		for i := range s.FetchSteps {
			s.FetchSteps[i].Duration = 0
		}
		s.Ops = append([]OpStat(nil), s.Ops...)
		for i := range s.Ops {
			s.Ops[i].Duration = 0
		}
		return s
	}
	if g, w := strip(got.Stats), strip(want.Stats); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s %s:\nstats %+v\ntwin  %+v", what, sql, g, w)
	}
}

// preparedTwins runs every statement three times on db — cold, warm, and
// warm after move changed the data without changing any answer — and
// once each on two twins that never saw the text before: before for the
// original data, after for the moved data. build must be deterministic.
func preparedTwins(t *testing.T, build func() *DB, move func(*DB), sqls []string) {
	t.Helper()
	for _, optimizer := range []bool{false, true} {
		for _, cursor := range []bool{false, true} {
			run := func(db *DB, sql string) *Result {
				if cursor {
					return drainIter(t, db, sql)
				}
				res, err := db.Query(sql)
				if err != nil {
					t.Fatalf("Query(%q): %v", sql, err)
				}
				return res
			}
			db, before, after := build(), build(), build()
			for _, d := range []*DB{db, before, after} {
				d.SetOptimizer(optimizer)
			}
			what := fmt.Sprintf("optimizer=%v cursor=%v", optimizer, cursor)
			for _, sql := range sqls {
				want := run(before, sql)
				mustEqualPrepared(t, what+" cold", sql, run(db, sql), want)
				mustEqualPrepared(t, what+" warm", sql, run(db, sql), want)
			}
			move(db)
			move(after)
			for _, sql := range sqls {
				mustEqualPrepared(t, what+" warm after insert", sql, run(db, sql), run(after, sql))
			}
			hits, misses := db.PlanCacheStats()
			if want := uint64(len(sqls)); misses != want || hits != 2*want {
				t.Fatalf("%s: template hits/misses = %d/%d, want %d/%d (one counted lookup per execution)",
					what, hits, misses, 2*want, want)
			}
		}
	}
}

func TestPreparedEquivalenceRandomized(t *testing.T) {
	for d := 0; d < 3; d++ {
		seed := int64(9100 + d)
		rng := rand.New(rand.NewSource(seed))
		randomDB(t, rng) // advance rng past the data so the texts match any build
		seen := map[string]bool{}
		var sqls []string
		for len(sqls) < 40 {
			if sql := randomSQL(rng); !seen[sql] {
				seen[sql] = true
				sqls = append(sqls, sql)
			}
		}
		build := func() *DB { return randomDB(t, rand.New(rand.NewSource(seed))) }
		// Keys no statement reads: answers stay, table versions and the
		// optimizer's statistics move.
		move := func(db *DB) {
			db.MustInsert("r", 100, 100, "zz", 100, 0.5, int64(1), true)
			db.MustInsert("s", 101, 101)
		}
		preparedTwins(t, build, move, sqls)
	}
}

func TestPreparedEquivalenceTLC(t *testing.T) {
	var sqls []string
	for _, q := range TLCQueries() {
		sqls = append(sqls, q.SQL)
	}
	build := func() *DB { return MustNewTLCDB(1) }
	move := func(db *DB) {
		row := make([]any, 30)
		for i := range row {
			switch i {
			case 5, 6, 7, 8, 9, 23, 24, 25:
				row[i] = "none"
			case 26, 27:
				row[i] = 0.0
			default:
				row[i] = -1
			}
		}
		db.MustInsert("call", row...)
	}
	preparedTwins(t, build, move, sqls)
}

// TestPreparedStateGoesStale: every change to what the checker reads —
// a registered, dropped or re-tightened constraint, an auto-widened
// bound — shows in the bound and plan of the very next run, and a Stmt
// prepared before it refuses to run.
func TestPreparedStateGoesStale(t *testing.T) {
	db := NewDB()
	db.MustCreateTable("call", "pnum INT", "recnum INT", "date INT", "region STRING")
	for i := 0; i < 5; i++ {
		db.MustInsert("call", 1, 100+i, 20240101, "east")
	}
	const wide = "call({pnum, date} -> {recnum, region}, 500)"
	const tight = "call({pnum} -> {recnum, date, region}, 50)"
	db.MustRegisterConstraint(wide)
	const sql = "SELECT recnum FROM call WHERE pnum = 1 AND date = 20240101"

	run := func(wantBound uint64, wantVia string) *Stmt {
		t.Helper()
		var res *Result
		for i := 0; i < 2; i++ { // cold, then from the prepared state
			var err error
			if res, err = db.Query(sql); err != nil {
				t.Fatal(err)
			}
			if res.Stats.Bound != wantBound || !strings.Contains(res.Stats.Plan, wantVia) {
				t.Fatalf("run %d: bound %d via %q, want %d via %q", i, res.Stats.Bound, res.Stats.Plan, wantBound, wantVia)
			}
		}
		if len(res.Rows) < 5 {
			t.Fatalf("lost rows: %d", len(res.Rows))
		}
		st, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.CheckInfo().Bound; got != wantBound {
			t.Fatalf("Prepare reports bound %d, Query ran under %d", got, wantBound)
		}
		return st
	}
	mustBeStale := func(st *Stmt, after string) {
		t.Helper()
		if _, err := st.QueryContext(context.Background()); !errors.Is(err, ErrStmtStale) {
			t.Fatalf("Stmt executed after %s: err = %v, want ErrStmtStale", after, err)
		}
		if _, err := st.QueryIterContext(context.Background()); !errors.Is(err, ErrStmtStale) {
			t.Fatalf("Stmt cursor after %s: err = %v, want ErrStmtStale", after, err)
		}
	}

	st := run(500, "500)")
	if _, err := st.QueryContext(context.Background()); err != nil {
		t.Fatalf("fresh Stmt: %v", err)
	}

	db.MustRegisterConstraint(tight)
	mustBeStale(st, "RegisterConstraint")
	st = run(50, "50)")

	if err := db.DropConstraint(tight); err != nil {
		t.Fatal(err)
	}
	mustBeStale(st, "DropConstraint")
	st = run(500, "500)")

	if _, err := db.Retighten(); err != nil {
		t.Fatal(err)
	}
	mustBeStale(st, "Retighten")
	st = run(5, "5)")

	// Retighten left N = 5 exact; the registration is strict, so a sixth
	// value under the key invalidates the index — no DDL, no catalog
	// bump — and the statement must fall back on its next run.
	db.MustInsert("call", 1, 200, 20240101, "west")
	mustBeStale(st, "an insert that broke the bound")
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Covered || len(res.Rows) != 6 {
		t.Fatalf("after the violating insert: covered=%v rows=%d, want uncovered with 6 rows", res.Stats.Covered, len(res.Rows))
	}

	// Auto-widened constraints move N in place instead.
	if _, err := db.Retighten(); err != nil {
		t.Fatal(err)
	}
	if err := db.DropConstraint(db.Constraints()[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RegisterConstraintAuto("call", []string{"pnum", "date"}, []string{"recnum", "region"}, 1); err != nil {
		t.Fatal(err)
	}
	st = run(6, "6)")
	db.MustInsert("call", 1, 201, 20240101, "west")
	mustBeStale(st, "an insert that widened the bound")
	run(7, "7)")

	// Execution settings are part of the plan.
	st = run(7, "7)")
	db.SetBatchSize(16)
	mustBeStale(st, "SetBatchSize")
}

// TestSetOptimizerReprepares: a plan prepared greedy must not survive
// switching the optimizer on (and back): step order, estimates and
// Stats.Optimized are those of a database that only ever had the
// current setting. Q12's greedy order is the suboptimal one.
func TestSetOptimizerReprepares(t *testing.T) {
	sql, _ := tlcQuery("Q12")
	db, freshOn, freshOff := MustNewTLCDB(2), MustNewTLCDB(2), MustNewTLCDB(2)
	freshOn.SetOptimizer(true)
	query := func(d *DB) *Result {
		t.Helper()
		res, err := d.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	wantOn, wantOff := query(freshOn), query(freshOff)
	if wantOn.Stats.FetchSteps[1].Atom == wantOff.Stats.FetchSteps[1].Atom {
		t.Fatal("Q12 no longer separates greedy from cost-based step order; pick another statement")
	}

	query(db) // prepared greedy
	mustEqualPrepared(t, "greedy", sql, query(db), wantOff)
	db.SetOptimizer(true)
	on := query(db)
	mustEqualPrepared(t, "after SetOptimizer(true)", sql, on, wantOn)
	if !on.Stats.Optimized || on.Stats.FetchSteps[0].EstFetched == 0 {
		t.Fatalf("optimizer on: Optimized=%v estimates=%+v", on.Stats.Optimized, on.Stats.FetchSteps[0])
	}
	db.SetOptimizer(false)
	mustEqualPrepared(t, "after SetOptimizer(false)", sql, query(db), wantOff)
}

// TestPreparedCheckSpan: tracing still shows one check per statement,
// saying whether it was deduced or found prepared; the checker,
// optimizer and plan generator themselves run only on a miss.
func TestPreparedCheckSpan(t *testing.T) {
	db := smallDB(t)
	db.SetOptimizer(true)
	tc := NewTracer(TracerOptions{SampleRate: 1, RingSize: 8})
	db.SetTracer(tc)
	const sql = "SELECT recnum FROM call WHERE pnum = 1 AND date = 20240101"
	for i, want := range []string{"miss", "hit", "hit"} {
		if _, err := db.Query(sql); err != nil {
			t.Fatal(err)
		}
		tr := tc.Get(tc.Recent()[0].ID)
		var checks, optimizes int
		var state any
		walkSpans(tr.Tree().Root, func(n *obs.SpanNode) {
			switch n.Name {
			case "check":
				checks++
				state = n.Attrs["prepared"]
			case "optimize":
				optimizes++
			}
		})
		if checks != 1 || state != want {
			t.Fatalf("run %d: %d check spans, prepared=%v; want 1, %s", i, checks, state, want)
		}
		if wantOpt := map[string]int{"miss": 1, "hit": 0}[want]; optimizes != wantOpt {
			t.Fatalf("run %d (%s): %d optimize spans, want %d", i, want, optimizes, wantOpt)
		}
	}
}

// TestSharedPlanUnderConcurrency: eight readers execute the same four
// prepared plans at once — result cache off, then on — while one writer
// cycles every execution setting, re-tightens and inserts. Plans are
// shared and must never be written; answers must equal the nested-loop
// oracle throughout. Primarily a -race exercise (CI runs it at -cpu 1,4).
func TestSharedPlanUnderConcurrency(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	db := randomDB(t, rng)
	var sqls []string
	var want [][]string
	for len(sqls) < 4 {
		sql := randomSQL(rng)
		if info, err := db.Check(sql); err != nil || !info.Covered || strings.Contains(sql, "ORDER BY") {
			continue
		}
		sqls = append(sqls, sql)
		want = append(want, bag(oracle(t, db, sql)))
	}
	for _, cache := range []bool{false, true} {
		db.SetResultCache(cache)
		stop := make(chan struct{})
		var writer, readers sync.WaitGroup
		writer.Add(1)
		go func() {
			defer writer.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 4 {
				case 0:
					db.SetBatchSize(8 << (i / 4 % 4))
				case 1:
					db.SetOptimizer(i/4%2 == 0)
				case 2:
					if _, err := db.Retighten(); err != nil {
						t.Error(err)
					}
				default:
					// Keys no statement reads: versions move, answers stay.
					// Fresh in both indexed columns, so no bucket grows past
					// its N — auto-widening writes Constraint.N unlocked, a
					// known race this test is not about.
					if err := db.Insert("r", 100+i, 100+i, "zz", 100, 0.5, int64(1), true); err != nil {
						t.Error(err)
					}
				}
				time.Sleep(50 * time.Microsecond)
			}
		}()
		for g := 0; g < 8; g++ {
			readers.Add(1)
			go func(g int) {
				defer readers.Done()
				for i := 0; i < 150; i++ {
					k := (g + i) % len(sqls)
					var rows []Row
					if i%3 == 0 {
						rows = drainIterNoFatal(t, db, sqls[k])
					} else if res, err := db.Query(sqls[k]); err != nil {
						t.Errorf("Query(%q): %v", sqls[k], err)
						return
					} else {
						rows = res.Rows
					}
					if got := bag(rows); !equalBags(got, want[k]) {
						t.Errorf("cache=%v %q:\ngot    %v\noracle %v", cache, sqls[k], got, want[k])
						return
					}
				}
			}(g)
		}
		readers.Wait()
		close(stop)
		writer.Wait()
	}
}

// drainIterNoFatal is drainIter's row half for goroutines other than the
// test's own: failures are reported with Error and yield no rows.
func drainIterNoFatal(t *testing.T, db *DB, sql string) []Row {
	ri, err := db.QueryIter(sql)
	if err != nil {
		t.Errorf("QueryIter(%q): %v", sql, err)
		return nil
	}
	defer ri.Close()
	var out []Row
	for {
		rows, err := ri.NextBatch()
		if err != nil {
			t.Errorf("QueryIter(%q): %v", sql, err)
			return nil
		}
		if rows == nil {
			return out
		}
		for _, r := range rows {
			out = append(out, append(Row(nil), r...))
		}
	}
}
