package stats

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/bounded-eval/beas/internal/access"
	"github.com/bounded-eval/beas/internal/schema"
	"github.com/bounded-eval/beas/internal/sqlparser"
	"github.com/bounded-eval/beas/internal/storage"
	"github.com/bounded-eval/beas/internal/tlc"
	"github.com/bounded-eval/beas/internal/value"
)

func testDB(t *testing.T) (*storage.Store, *access.Schema, *Catalog) {
	t.Helper()
	rel, err := schema.NewRelation("r",
		schema.Attribute{Name: "a", Kind: value.Int},
		schema.Attribute{Name: "b", Kind: value.Int},
		schema.Attribute{Name: "c", Kind: value.String},
	)
	if err != nil {
		t.Fatal(err)
	}
	db, err := schema.NewDatabase(rel)
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewStore(db)
	as := access.NewSchema(store)
	return store, as, NewCatalog(store, as)
}

func insert(t *testing.T, store *storage.Store, a, b int64, c string) {
	t.Helper()
	tab, _ := store.Table("r")
	if err := tab.Insert(value.Row{value.NewInt(a), value.NewInt(b), value.NewString(c)}); err != nil {
		t.Fatal(err)
	}
}

func TestTableSummaryAndNDV(t *testing.T) {
	store, _, cat := testDB(t)
	// 100 rows: a in 0..9, b = i, c in c0..c3.
	for i := 0; i < 100; i++ {
		insert(t, store, int64(i%10), int64(i), fmt.Sprintf("c%d", i%4))
	}
	if rows := cat.Rows("r"); rows != 100 {
		t.Fatalf("rows = %d, want 100", rows)
	}
	for col, want := range map[string]int{"a": 10, "b": 100, "c": 4} {
		if ndv, ok := cat.NDV("r", col); !ok || ndv != want {
			t.Errorf("NDV(%s) = %d (%v), want %d", col, ndv, ok, want)
		}
	}
	// Summaries are cached by version and refreshed on mutation.
	insert(t, store, 42, 1000, "c9")
	if ndv, _ := cat.NDV("r", "a"); ndv != 11 {
		t.Errorf("NDV(a) after insert = %d, want 11", ndv)
	}
}

func TestHistogramSelectivity(t *testing.T) {
	store, _, cat := testDB(t)
	// b uniform over 0..99, one row each.
	for i := 0; i < 100; i++ {
		insert(t, store, 0, int64(i), "x")
	}
	lt50 := cat.SelectivityCmp("r", "b", sqlparser.OpLt, value.NewInt(50))
	if lt50 < 0.35 || lt50 > 0.65 {
		t.Errorf("selectivity(b < 50) = %v, want ≈ 0.5", lt50)
	}
	gt90 := cat.SelectivityCmp("r", "b", sqlparser.OpGt, value.NewInt(90))
	if gt90 > 0.2 {
		t.Errorf("selectivity(b > 90) = %v, want small", gt90)
	}
	// Monotone: P(b < x) grows with x.
	prev := -1.0
	for _, x := range []int64{10, 30, 50, 70, 95} {
		f := cat.SelectivityCmp("r", "b", sqlparser.OpLt, value.NewInt(x))
		if f < prev {
			t.Fatalf("LessFraction not monotone at %d: %v < %v", x, f, prev)
		}
		prev = f
	}
	// Comparisons against NULL are never true.
	if s := cat.SelectivityCmp("r", "b", sqlparser.OpLt, value.NewNull()); s != 0 {
		t.Errorf("selectivity(b < NULL) = %v, want 0", s)
	}
}

func TestConstraintFanout(t *testing.T) {
	store, as, cat := testDB(t)
	// Key a=0 has 5 distinct (b,c); keys a=1..4 have 1 each.
	for i := 0; i < 5; i++ {
		insert(t, store, 0, int64(i), "x")
	}
	for a := int64(1); a <= 4; a++ {
		insert(t, store, a, 0, "x")
		insert(t, store, a, 0, "x") // duplicate rows: same (X, Y) pair
	}
	c, err := access.NewConstraint(store.DB, "r", []string{"a"}, []string{"b", "c"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := as.Register(c, true); err != nil {
		t.Fatal(err)
	}
	f, ok := cat.Constraint(c)
	if !ok {
		t.Fatal("no fanout for registered constraint")
	}
	if f.DistinctKeys != 5 || f.Tuples != 9 || f.Max != 5 {
		t.Fatalf("fanout = %+v, want keys=5 tuples=9 max=5", f)
	}
	if f.Mean != 9.0/5 {
		t.Errorf("mean = %v, want 1.8", f.Mean)
	}
	if f.P50 != 1 || f.P95 != 5 {
		t.Errorf("p50=%d p95=%d, want 1 and 5", f.P50, f.P95)
	}
	// Deletion keeps the histogram exact: remove the wide key entirely.
	tab, _ := store.Table("r")
	tab.Delete(func(r value.Row) bool { return r[0].I == 0 })
	f, _ = cat.Constraint(c)
	if f.DistinctKeys != 4 || f.Tuples != 4 || f.Max != 1 {
		t.Fatalf("fanout after delete = %+v, want keys=4 tuples=4 max=1", f)
	}
}

func TestSummaryDump(t *testing.T) {
	store, as, cat := testDB(t)
	insert(t, store, 1, 2, "x")
	c, _ := access.NewConstraint(store.DB, "r", []string{"a"}, []string{"b"}, 1)
	if _, err := as.Register(c, true); err != nil {
		t.Fatal(err)
	}
	tables, cons := cat.Summary()
	if len(tables) != 1 || tables[0].Rows != 1 {
		t.Fatalf("tables = %+v", tables)
	}
	if len(cons) != 1 || cons[0].DistinctKeys != 1 {
		t.Fatalf("constraints = %+v", cons)
	}
	if cat.String() == "" {
		t.Error("String() empty")
	}
}

// TestSortedValuesIsStableSort: the permutation sort orders a column
// exactly as sort.SliceStable over the values did, down to which of
// several equal values (INT 3, FLOAT 3.0) comes first, so histogram
// bounds and counts are unchanged.
func TestSortedValuesIsStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := make([]value.Row, 5000)
	for i := range rows {
		k := rng.Intn(40)
		switch rng.Intn(4) {
		case 0:
			rows[i] = value.Row{value.NewNull()}
		case 1:
			rows[i] = value.Row{value.NewInt(int64(k))}
		default:
			rows[i] = value.Row{value.NewFloat(float64(k))}
		}
	}
	// The sort the catalog used before.
	var want []value.Value
	for _, r := range rows {
		if !r[0].IsNull() {
			want = append(want, r[0])
		}
	}
	sort.SliceStable(want, func(i, j int) bool {
		cmp, err := value.Compare(want[i], want[j])
		return err == nil && cmp < 0
	})
	if got := sortedValues(rows, 0); !reflect.DeepEqual(got, want) {
		t.Fatal("sortedValues differs from the stable sort")
	}
	if h := buildHistogram(rows, 0); h.Total != int64(len(want)) {
		t.Fatalf("histogram total %d, want %d", h.Total, len(want))
	}
}

// BenchmarkCatalogTableCold builds the summary of TLC's largest table
// (call, scale 1) from scratch: the cost the first optimized query after
// a mutation pays.
func BenchmarkCatalogTableCold(b *testing.B) {
	store := storage.NewStore(tlc.Database())
	if err := tlc.Generate(store, tlc.Config{Scale: 1}); err != nil {
		b.Fatal(err)
	}
	as := access.NewSchema(store)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := NewCatalog(store, as).Table("call"); !ok {
			b.Fatal("no table call")
		}
	}
}
