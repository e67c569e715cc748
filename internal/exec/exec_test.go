package exec

import (
	"math"
	"testing"

	"github.com/bounded-eval/beas/internal/analyze"
	"github.com/bounded-eval/beas/internal/iter"
	"github.com/bounded-eval/beas/internal/schema"
	"github.com/bounded-eval/beas/internal/sqlparser"
	"github.com/bounded-eval/beas/internal/value"
)

// fixture builds a one-atom query over relation t(g STRING, v INT,
// f FLOAT) and the corresponding layout + rows.
func fixture(t *testing.T, sql string) (*analyze.Query, *analyze.Layout, []value.Row) {
	t.Helper()
	db, err := schema.NewDatabase(schema.MustRelation("t",
		schema.Attribute{Name: "g", Kind: value.String},
		schema.Attribute{Name: "v", Kind: value.Int},
		schema.Attribute{Name: "f", Kind: value.Float},
	))
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	q, err := analyze.Analyze(stmt.Select, db)
	if err != nil {
		t.Fatal(err)
	}
	layout := analyze.NewLayout()
	for attr := 0; attr < 3; attr++ {
		layout.Add(analyze.ColID{Atom: 0, Attr: attr})
	}
	rows := []value.Row{
		{value.NewString("a"), value.NewInt(1), value.NewFloat(1.5)},
		{value.NewString("a"), value.NewInt(2), value.NewFloat(2.5)},
		{value.NewString("b"), value.NewInt(3), value.NewFloat(0.5)},
		{value.NewString("b"), value.NewInt(3), value.NewFloat(4.5)},
		{value.NewString("c"), value.NewNull(), value.NewFloat(9)},
	}
	return q, layout, rows
}

// collect runs the relational tail of q over weighted rows (nil weights
// are all 1) and returns the final result rows.
func collect(t *testing.T, q *analyze.Query, rows []value.Row, weights []int64, layout *analyze.Layout) []value.Row {
	t.Helper()
	out, _, err := iter.Collect(StreamCol(q, iter.ColFromRows(rows, weights, layout.Len(), 0), layout))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func run(t *testing.T, sql string) []value.Row {
	t.Helper()
	q, layout, rows := fixture(t, sql)
	return collect(t, q, rows, nil, layout)
}

func TestProjection(t *testing.T) {
	out := run(t, "SELECT v, f FROM t")
	if len(out) != 5 || out[0][0].I != 1 || out[0][1].F != 1.5 {
		t.Errorf("out = %v", out)
	}
}

func TestProjectionExpression(t *testing.T) {
	out := run(t, "SELECT v * 10 + 1 FROM t WHERE v = 2")
	// The tail does not evaluate WHERE (that's the executor's job), so all
	// rows flow through; check the expression only.
	if out[1][0].I != 21 {
		t.Errorf("expression output = %v", out[1][0])
	}
}

func TestDistinct(t *testing.T) {
	out := run(t, "SELECT DISTINCT g FROM t")
	if len(out) != 3 {
		t.Errorf("distinct g = %v", out)
	}
}

func TestGroupByCountSum(t *testing.T) {
	out := run(t, "SELECT g, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY g ORDER BY g")
	if len(out) != 3 {
		t.Fatalf("groups = %v", out)
	}
	// a: n=2 s=3; b: n=2 s=6; c: n=1 s=NULL (all v NULL).
	if out[0][1].I != 2 || out[0][2].I != 3 {
		t.Errorf("group a = %v", out[0])
	}
	if out[1][1].I != 2 || out[1][2].I != 6 {
		t.Errorf("group b = %v", out[1])
	}
	if out[2][1].I != 1 || !out[2][2].IsNull() {
		t.Errorf("group c = %v (SUM of NULLs must be NULL)", out[2])
	}
}

// sumFixture runs SUM(v) over custom int rows and returns the single
// aggregate value.
func sumFixture(t *testing.T, vals []int64, weights []int64) value.Value {
	t.Helper()
	q, layout, _ := fixture(t, "SELECT SUM(v) FROM t")
	rows := make([]value.Row, len(vals))
	for i, v := range vals {
		rows[i] = value.Row{value.NewString("g"), value.NewInt(v), value.NewFloat(0)}
	}
	out := collect(t, q, rows, weights, layout)
	if len(out) != 1 || len(out[0]) != 1 {
		t.Fatalf("out = %v", out)
	}
	return out[0][0]
}

func TestSumIntOverflowPromotes(t *testing.T) {
	const big = int64(1) << 62
	for _, c := range []struct {
		name          string
		vals, weights []int64
		want          value.Value
	}{
		{"in range stays exact", []int64{big, 1}, nil, value.NewInt(big + 1)},
		// 3 * 2^62 wraps int64; the sum must promote to float64, not go
		// negative.
		{"overflow promotes", []int64{big, big, big}, nil, value.NewFloat(3 * float64(big))},
		{"negative overflow", []int64{-big, -big, -big}, nil, value.NewFloat(-3 * float64(big))},
		// One row standing for many duplicates.
		{"overflow via bag weight", []int64{big}, []int64{4}, value.NewFloat(4 * float64(big))},
		// Once promoted, later small values keep the float path.
		{"promote then cancel", []int64{big, big, big, -big, -big, -big}, nil, value.NewFloat(0)},
	} {
		got := sumFixture(t, c.vals, c.weights)
		if got.K != c.want.K || value.Key(value.Row{got}) != value.Key(value.Row{c.want}) {
			t.Errorf("%s: SUM = %v (%v), want %v (%v)", c.name, got, got.K, c.want, c.want.K)
		}
	}
}

// TestMergeMidChunkOverflowCancelled pins the subtle overflow case: the
// running sum overflows on a prefix that a later term cancels, so the
// int-exact path is gone for good even though the total fits int64. The
// fold must return FLOAT, not a divergent INT.
func TestMergeMidChunkOverflowCancelled(t *testing.T) {
	// (MaxInt64-5) + 0 + 10 overflows; the +10 is cancelled by -10.
	got := sumFixture(t, []int64{math.MaxInt64 - 5, 0, 10, -10, 0, 0, 0, 0, 0}, nil)
	want := value.NewFloat(float64(math.MaxInt64-5) + 10 - 10)
	if got.K != value.Float || got.F != want.F {
		t.Fatalf("SUM = %v (%v), want FLOAT %v (prefix overflow must stick)", got, got.K, want)
	}
}

func TestOverflowHelpers(t *testing.T) {
	const max, min = int64(1<<63 - 1), int64(-1 << 63)
	for _, c := range []struct {
		a, b int64
		ok   bool
	}{
		{1, 2, true}, {max, 0, true}, {max, 1, false}, {min, -1, false},
		{min, 1, true}, {max / 2, max / 2, true}, {min, min, false},
	} {
		if _, ok := value.AddInt64(c.a, c.b); ok != c.ok {
			t.Errorf("AddInt64(%d, %d) ok = %v, want %v", c.a, c.b, ok, c.ok)
		}
	}
	for _, c := range []struct {
		a, b int64
		ok   bool
	}{
		{0, max, true}, {1, max, true}, {2, max, false}, {min, -1, false},
		{-1, min, false}, {min, 1, true}, {1 << 32, 1 << 32, false}, {-(1 << 31), 1 << 31, true},
	} {
		if _, ok := value.MulInt64(c.a, c.b); ok != c.ok {
			t.Errorf("MulInt64(%d, %d) ok = %v, want %v", c.a, c.b, ok, c.ok)
		}
	}
}

func TestCountColumnSkipsNulls(t *testing.T) {
	out := run(t, "SELECT COUNT(v), COUNT(*) FROM t")
	if out[0][0].I != 4 || out[0][1].I != 5 {
		t.Errorf("COUNT(v), COUNT(*) = %v", out[0])
	}
}

func TestCountDistinct(t *testing.T) {
	out := run(t, "SELECT COUNT(DISTINCT v) FROM t")
	if out[0][0].I != 3 {
		t.Errorf("COUNT(DISTINCT v) = %v", out[0][0])
	}
}

func TestAvgMinMax(t *testing.T) {
	out := run(t, "SELECT AVG(v), MIN(f), MAX(f) FROM t")
	if out[0][0].F != 9.0/4 {
		t.Errorf("AVG = %v", out[0][0])
	}
	if out[0][1].F != 0.5 || out[0][2].F != 9.0 {
		t.Errorf("MIN/MAX = %v / %v", out[0][1], out[0][2])
	}
}

func TestEmptyInputAggregate(t *testing.T) {
	q, layout, _ := fixture(t, "SELECT COUNT(*), SUM(v), MIN(v) FROM t")
	out := collect(t, q, nil, nil, layout)
	if len(out) != 1 {
		t.Fatalf("empty aggregate must produce one row, got %d", len(out))
	}
	if out[0][0].I != 0 || !out[0][1].IsNull() || !out[0][2].IsNull() {
		t.Errorf("empty aggregates = %v", out[0])
	}
}

func TestEmptyInputGroupedAggregate(t *testing.T) {
	q, layout, _ := fixture(t, "SELECT g, COUNT(*) FROM t GROUP BY g")
	out := collect(t, q, nil, nil, layout)
	if len(out) != 0 {
		t.Errorf("grouped aggregate over empty input must be empty, got %v", out)
	}
}

func TestHaving(t *testing.T) {
	out := run(t, "SELECT g, COUNT(*) AS n FROM t GROUP BY g HAVING COUNT(*) > 1 ORDER BY g")
	if len(out) != 2 || out[0][0].S != "a" || out[1][0].S != "b" {
		t.Errorf("having = %v", out)
	}
}

func TestOrderByDescAndLimitOffset(t *testing.T) {
	out := run(t, "SELECT v FROM t ORDER BY v DESC LIMIT 2 OFFSET 1")
	// v sorted desc: 3, 3, 2, 1, NULL -> offset 1, limit 2 -> 3, 2.
	if len(out) != 2 || out[0][0].I != 3 || out[1][0].I != 2 {
		t.Errorf("out = %v", out)
	}
}

func TestOrderByNullsFirstAsc(t *testing.T) {
	out := run(t, "SELECT v FROM t ORDER BY v")
	if !out[0][0].IsNull() {
		t.Errorf("NULL should sort first ascending: %v", out)
	}
}

// TestClip checks the LIMIT/OFFSET stage: OFFSET applies first, an
// offset past the end yields nothing, and no clause passes all rows.
func TestClip(t *testing.T) {
	if got := run(t, "SELECT v FROM t LIMIT 2 OFFSET 1"); len(got) != 2 || got[0][0].I != 2 {
		t.Errorf("LIMIT 2 OFFSET 1 = %v", got)
	}
	if got := run(t, "SELECT v FROM t OFFSET 99"); len(got) != 0 {
		t.Errorf("OFFSET past end = %v", got)
	}
	if got := run(t, "SELECT v FROM t"); len(got) != 5 {
		t.Errorf("no LIMIT/OFFSET = %v", got)
	}
}

func TestDedup(t *testing.T) {
	rows := []value.Row{
		{value.NewInt(1), value.NewString("x")},
		{value.NewInt(1), value.NewString("x")},
		{value.NewFloat(1), value.NewString("x")}, // equal under coercion
		{value.NewInt(2), value.NewString("x")},
	}
	out := Dedup(rows)
	if len(out) != 2 {
		t.Errorf("Dedup = %v", out)
	}
}
