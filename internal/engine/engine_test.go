package engine

import (
	"context"
	"sort"
	"strings"
	"testing"

	"github.com/bounded-eval/beas/internal/access"
	"github.com/bounded-eval/beas/internal/analyze"
	"github.com/bounded-eval/beas/internal/iter"
	"github.com/bounded-eval/beas/internal/schema"
	"github.com/bounded-eval/beas/internal/sqlparser"
	"github.com/bounded-eval/beas/internal/stats"
	"github.com/bounded-eval/beas/internal/storage"
	"github.com/bounded-eval/beas/internal/value"
)

type env struct {
	db    *schema.Database
	store *storage.Store
}

func newEnv(t *testing.T) *env {
	t.Helper()
	db, err := schema.NewDatabase(
		schema.MustRelation("r",
			schema.Attribute{Name: "a", Kind: value.Int},
			schema.Attribute{Name: "b", Kind: value.Int},
			schema.Attribute{Name: "tag", Kind: value.String},
		),
		schema.MustRelation("s",
			schema.Attribute{Name: "b", Kind: value.Int},
			schema.Attribute{Name: "c", Kind: value.Int},
		),
		schema.MustRelation("u",
			schema.Attribute{Name: "c", Kind: value.Int},
			schema.Attribute{Name: "d", Kind: value.String},
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{db: db, store: storage.NewStore(db)}
	// r: (a, b, tag) with a = 1..6, b = a % 3.
	for i := 1; i <= 6; i++ {
		e.insert(t, "r", value.NewInt(int64(i)), value.NewInt(int64(i%3)), value.NewString("t"+string(rune('0'+i%2))))
	}
	// s: (b, c) with b = 0..2, c = 10b.
	for b := 0; b <= 2; b++ {
		e.insert(t, "s", value.NewInt(int64(b)), value.NewInt(int64(10*b)))
	}
	// u: (c, d).
	for c := 0; c <= 20; c += 10 {
		e.insert(t, "u", value.NewInt(int64(c)), value.NewString("d"+string(rune('0'+c/10))))
	}
	return e
}

func (e *env) insert(t *testing.T, table string, vals ...value.Value) {
	t.Helper()
	if err := e.store.MustTable(table).Insert(value.Row(vals)); err != nil {
		t.Fatal(err)
	}
}

func (e *env) analyze(t *testing.T, sql string) *analyze.Query {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	q, err := analyze.Analyze(stmt.Select, e.db)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func rowsKey(rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = value.Key(r)
	}
	sort.Strings(out)
	return out
}

func equalBags(a, b []value.Row) bool {
	ka, kb := rowsKey(a), rowsKey(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

var profiles = []Profile{ProfilePostgres, ProfileMySQL, ProfileMariaDB,
	{Name: "aswritten-nlj", Join: NestedLoopJoin, Order: OrderAsWritten}}

// TestProfilesAgree runs a battery of queries under every profile and
// demands identical answers: join algorithm, ordering and pushdown are
// performance knobs, never semantics.
func TestProfilesAgree(t *testing.T) {
	e := newEnv(t)
	queries := []string{
		"SELECT a FROM r WHERE b = 1",
		"SELECT r.a, s.c FROM r, s WHERE r.b = s.b",
		"SELECT r.a, u.d FROM r, s, u WHERE r.b = s.b AND s.c = u.c",
		"SELECT r.a FROM r, s WHERE r.b = s.b AND s.c > 5",
		"SELECT tag, COUNT(*) AS n FROM r GROUP BY tag ORDER BY tag",
		"SELECT r.a FROM r, s WHERE r.b = s.b AND (r.a = 1 OR r.a = 4)",
		"SELECT DISTINCT b FROM r ORDER BY b DESC",
		"SELECT a FROM r ORDER BY a LIMIT 2 OFFSET 1",
		"SELECT r1.a, r2.a FROM r r1, r r2 WHERE r1.b = r2.b AND r1.a < r2.a",
	}
	for _, sql := range queries {
		q := e.analyze(t, sql)
		var ref []value.Row
		for i, prof := range profiles {
			rows, _, err := New(e.store, prof).RunContext(context.Background(), q)
			if err != nil {
				t.Fatalf("%s under %s: %v", sql, prof.Name, err)
			}
			if i == 0 {
				ref = rows
				continue
			}
			if !equalBags(ref, rows) {
				t.Errorf("%s: %s disagrees with %s\n%v\nvs\n%v",
					sql, prof.Name, profiles[0].Name, ref, rows)
			}
		}
	}
}

func TestCrossProductWhenNoJoinKey(t *testing.T) {
	e := newEnv(t)
	q := e.analyze(t, "SELECT r.a, u.d FROM r, u")
	rows, _, err := New(e.store, ProfilePostgres).RunContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6*3 {
		t.Errorf("cross product size = %d, want 18", len(rows))
	}
}

func TestScanStatsAndPushdown(t *testing.T) {
	e := newEnv(t)
	q := e.analyze(t, "SELECT a FROM r WHERE b = 1")
	_, st, err := New(e.store, ProfilePostgres).RunContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scanned != 6 {
		t.Errorf("Scanned = %d, want 6 (full relation)", st.Scanned)
	}
	if len(st.Ops) == 0 || !strings.HasPrefix(st.Ops[0].Op, "scan r") {
		t.Errorf("ops = %+v", st.Ops)
	}
	if st.Ops[0].RowsOut != 2 {
		t.Errorf("filter pushdown rows out = %d, want 2", st.Ops[0].RowsOut)
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	e := newEnv(t)
	e.insert(t, "r", value.NewInt(7), value.NewNull(), value.NewString("x"))
	e.insert(t, "s", value.NewNull(), value.NewInt(99))
	q := e.analyze(t, "SELECT r.a, s.c FROM r, s WHERE r.b = s.b")
	for _, prof := range profiles {
		rows, _, err := New(e.store, prof).RunContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r[0].I == 7 || r[1].I == 99 {
				t.Errorf("%s joined NULL keys: %v", prof.Name, r)
			}
		}
	}
}

func TestNumericCoercionInJoin(t *testing.T) {
	// A float key must join against an equal int key.
	db, err := schema.NewDatabase(
		schema.MustRelation("fi", schema.Attribute{Name: "k", Kind: value.Float}),
		schema.MustRelation("ii", schema.Attribute{Name: "k", Kind: value.Int}),
	)
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewStore(db)
	_ = store.MustTable("fi").Insert(value.Row{value.NewFloat(2.0)})
	_ = store.MustTable("ii").Insert(value.Row{value.NewInt(2)})
	stmt, _ := sqlparser.Parse("SELECT fi.k FROM fi, ii WHERE fi.k = ii.k")
	q, err := analyze.Analyze(stmt.Select, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, prof := range profiles {
		rows, _, err := New(store, prof).RunContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 {
			t.Errorf("%s: 2.0 should join 2, got %v", prof.Name, rows)
		}
	}
}

func TestRunWithSources(t *testing.T) {
	e := newEnv(t)
	q := e.analyze(t, "SELECT r.a, s.c FROM r, s WHERE r.b = s.b AND r.a = 2")
	// Pre-materialise atom 0 (r) as if a bounded plan fetched it.
	src := Source{
		Atoms: []int{0},
		Cols:  []analyze.ColID{{Atom: 0, Attr: 0}, {Atom: 0, Attr: 1}},
		Rows:  []value.Row{{value.NewInt(2), value.NewInt(2)}},
		Name:  "bounded(r)",
	}
	it, st, err := New(e.store, ProfilePostgres).StreamContext(context.Background(), q, []Source{src})
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := iter.Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].I != 2 || rows[0][1].I != 20 {
		t.Errorf("rows = %v", rows)
	}
	// Only s is scanned.
	if st.Scanned != 3 {
		t.Errorf("Scanned = %d, want 3 (s only)", st.Scanned)
	}
}

// TestBuildLeftKeepsLayout: with statistics the hash join builds on the
// estimated-smaller left side, and the concatenated rows must still put
// the left unit's columns first.
func TestBuildLeftKeepsLayout(t *testing.T) {
	e := newEnv(t)
	q := e.analyze(t, "SELECT r.a, r.tag, s.c FROM r, s WHERE r.b = s.b AND r.a = 2")
	want, _, err := New(e.store, ProfilePostgres).RunContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	cat := stats.NewCatalog(e.store, access.NewSchema(e.store))
	got, st, err := New(e.store, ProfilePostgres).WithStats(cat).RunContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	swapped := false
	for _, o := range st.Ops {
		swapped = swapped || strings.HasSuffix(o.Op, "(build=left)")
	}
	if !swapped {
		t.Fatalf("plan did not build on the left: %+v", st.Ops)
	}
	if len(want) != 1 || !equalBags(got, want) {
		t.Errorf("build=left rows %v, want %v", got, want)
	}
}

func TestJoinOrderStrategiesProduceAllUnits(t *testing.T) {
	e := newEnv(t)
	q := e.analyze(t, "SELECT r.a FROM r, s, u WHERE r.b = s.b AND s.c = u.c")
	for _, prof := range []Profile{
		{Name: "dp", Join: HashJoin, Order: OrderDP, ProjectionPushdown: true},
		{Name: "greedy", Join: HashJoin, Order: OrderGreedy},
		{Name: "aswritten", Join: HashJoin, Order: OrderAsWritten},
	} {
		rows, _, err := New(e.store, prof).RunContext(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		if len(rows) != 6 {
			t.Errorf("%s: rows = %d, want 6", prof.Name, len(rows))
		}
	}
}

func TestSelectivityEstimates(t *testing.T) {
	e := newEnv(t)
	tab := e.store.MustTable("r")
	stats := tab.Stats()
	eq := analyze.Conjunct{Kind: analyze.EqAttrConst, A: analyze.ColID{Atom: 0, Attr: 0}}
	if s := selectivity(eq, stats); s != 1.0/6 {
		t.Errorf("eq selectivity = %v, want 1/6", s)
	}
	in := analyze.Conjunct{Kind: analyze.InConsts, A: analyze.ColID{Atom: 0, Attr: 1},
		Vals: []value.Value{value.NewInt(0), value.NewInt(1)}}
	if s := selectivity(in, stats); s != 2.0/3 {
		t.Errorf("in selectivity = %v, want 2/3", s)
	}
}

func TestDescribe(t *testing.T) {
	e := newEnv(t)
	q := e.analyze(t, "SELECT r.a FROM r, s WHERE r.b = s.b")
	desc := New(e.store, ProfileMySQL).Describe(q)
	if !strings.Contains(desc, "mysql") || !strings.Contains(desc, "sort-merge") {
		t.Errorf("Describe = %q", desc)
	}
}

func TestUnknownRelationError(t *testing.T) {
	e := newEnv(t)
	q := e.analyze(t, "SELECT a FROM r")
	// Sabotage: query analysed against a schema whose table is missing in
	// this store.
	otherDB, _ := schema.NewDatabase(schema.MustRelation("r", schema.Attribute{Name: "a", Kind: value.Int}))
	otherStore := storage.NewStore(otherDB)
	_ = otherStore
	// Run against a store lacking the table by building a fresh store
	// with a different relation set.
	empty, _ := schema.NewDatabase()
	if _, _, err := New(storage.NewStore(empty), ProfilePostgres).RunContext(context.Background(), q); err == nil {
		t.Error("missing table should error")
	}
}
