package iter

import (
	"math"
	"testing"

	"github.com/bounded-eval/beas/internal/value"
)

func intRow(i int) value.Row { return value.Row{value.NewInt(int64(i))} }

func TestBatchWeightsLazy(t *testing.T) {
	var b Batch
	b.Append(intRow(1), 1)
	b.Append(intRow(2), 1)
	if b.Weights != nil {
		t.Fatalf("all-1 batch must not materialise weights")
	}
	b.Append(intRow(3), 5)
	if len(b.Weights) != 3 || b.Weight(0) != 1 || b.Weight(2) != 5 {
		t.Fatalf("weights = %v", b.Weights)
	}
	b.Reset()
	if b.Len() != 0 || b.Weights != nil {
		t.Fatalf("reset batch = %+v", b)
	}
}

func TestFromRowsAndCollect(t *testing.T) {
	n := 3*BatchSize + 17
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = intRow(i)
	}
	got, weights, err := Collect(FromRows(rows, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n || weights != nil {
		t.Fatalf("collected %d rows, weights=%v", len(got), weights)
	}
	for i, r := range got {
		if r[0].I != int64(i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
}

func TestCollectPreservesWeights(t *testing.T) {
	rows := []value.Row{intRow(1), intRow(2), intRow(3)}
	in := []int64{1, 4, 1}
	got, weights, err := Collect(FromRows(rows, in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || len(weights) != 3 || weights[1] != 4 || weights[2] != 1 {
		t.Fatalf("rows=%d weights=%v", len(got), weights)
	}
}

func TestEmpty(t *testing.T) {
	rows, _, err := Collect(Empty())
	if err != nil || len(rows) != 0 {
		t.Fatalf("rows=%v err=%v", rows, err)
	}
}

func TestOnCloseRunsOnce(t *testing.T) {
	calls := 0
	it := OnClose(FromRows([]value.Row{intRow(1)}, nil), func() { calls++ })
	if _, _, err := Collect(it); err != nil {
		t.Fatal(err)
	}
	it.Close()
	if calls != 1 {
		t.Fatalf("finalizer ran %d times", calls)
	}
}

func TestOnCloseEarlyClose(t *testing.T) {
	calls := 0
	it := OnClose(FromRows(make([]value.Row, 10*BatchSize), nil), func() { calls++ })
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	var b Batch
	if ok, err := it.Next(&b); !ok || err != nil {
		t.Fatalf("first batch: ok=%v err=%v", ok, err)
	}
	it.Close() // abandon mid-stream, as LIMIT does
	if calls != 1 {
		t.Fatalf("finalizer ran %d times on early close", calls)
	}
}

// TestColumnKeysMatchRowKeys pins the column-at-a-time key encoding to
// the row encoding: for every live row, ColBatch.AppendRowKeys must
// produce exactly value.AppendRowKey of the row read back with ReadRow.
// The hash join, fused DISTINCT and grouping key on the column form, so
// equal values must encode equally whichever way they are read —
// across kinds, NULL, NaN payloads, ±0, integral floats against ints,
// boxed mixed-kind columns and batches with a selection vector.
func TestColumnKeysMatchRowKeys(t *testing.T) {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) | 1) // another NaN payload
	null := value.NewNull()
	cols := [][]value.Value{
		// Int, with NULL and extremes.
		{value.NewInt(3), null, value.NewInt(math.MinInt64), value.NewInt(math.MaxInt64), value.NewInt(0), value.NewInt(-1), value.NewInt(2), value.NewInt(7)},
		// Float: integral values (3.0 keys as Int 3), NaN payloads, ±0, ±Inf, NULL.
		{value.NewFloat(3), value.NewFloat(math.NaN()), value.NewFloat(nan2), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(0), null, value.NewFloat(2.5), value.NewFloat(math.Inf(-1))},
		// String, with the empty string and an embedded NUL.
		{value.NewString(""), value.NewString("a\x00b"), null, value.NewString("a"), value.NewString("ab"), value.NewString(""), value.NewString("3"), value.NewString("x")},
		// Bool, with NULL.
		{value.NewBool(true), value.NewBool(false), null, value.NewBool(true), null, value.NewBool(false), value.NewBool(true), value.NewBool(false)},
		// All NULL: the column never leaves kind Null.
		{null, null, null, null, null, null, null, null},
		// Boxed after a kind conflict, with NULLs before and after it.
		{null, value.NewInt(3), value.NewFloat(3), value.NewString("3"), null, value.NewBool(true), value.NewFloat(math.NaN()), value.NewFloat(math.Inf(1))},
		// Boxed: ints then integral floats of equal value.
		{value.NewInt(1), value.NewInt(2), value.NewFloat(1), value.NewFloat(2), value.NewFloat(math.Copysign(0, -1)), value.NewInt(0), null, value.NewFloat(1.5)},
	}
	nrows := len(cols[0])
	rows := make([]value.Row, nrows)
	for i := range rows {
		rows[i] = make(value.Row, len(cols))
		for j := range cols {
			rows[i][j] = cols[j][i]
		}
	}
	posSets := [][]int{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {0, 1, 2, 3, 4, 5, 6}, {6, 5, 4, 3, 2, 1, 0}, {1, 1}, {0, 5}, {}}

	check := func(name string, cb *ColBatch) {
		t.Helper()
		if !cb.Col(5).Boxed() || !cb.Col(6).Boxed() {
			t.Fatalf("%s: mixed-kind columns did not box", name)
		}
		row := make(value.Row, cb.Width())
		for _, pos := range posSets {
			keys := make([][]byte, cb.Rows())
			cb.AppendRowKeys(pos, keys)
			for i := 0; i < cb.Len(); i++ {
				p := cb.Index(i)
				cb.ReadRow(p, row)
				if want := value.AppendRowKey(nil, row, pos); string(keys[p]) != string(want) {
					t.Errorf("%s: row %d pos %v: column key %x, row key %x", name, p, pos, keys[p], want)
				}
			}
		}
	}

	var cb ColBatch
	cb.Reset(len(cols))
	for i, r := range rows {
		cb.AppendRow(r, int64(i+1))
	}
	check("plain", &cb)

	sel := cb.SelBuf()
	for p := 1; p < nrows; p += 2 {
		sel = append(sel, p)
	}
	cb.SetSel(sel)
	check("selected", &cb)

	// Integral floats key like the ints they equal: rows 0 of the Int and
	// Float columns (3 and 3.0), and the boxed column's 1/1.0, 2/2.0 and
	// -0.0/0.
	keyOf := func(j, p int) string {
		keys := make([][]byte, cb.Rows())
		cb.AppendRowKeys([]int{j}, keys)
		return string(keys[p])
	}
	if keyOf(0, 0) != keyOf(1, 0) {
		t.Errorf("Int 3 and Float 3.0 encode differently")
	}
	for _, pair := range [][2]int{{0, 2}, {1, 3}, {4, 5}} {
		if keyOf(6, pair[0]) != keyOf(6, pair[1]) {
			t.Errorf("boxed rows %d and %d hold equal numbers but encode differently", pair[0], pair[1])
		}
	}
	if keyOf(1, 1) != keyOf(1, 2) {
		t.Errorf("NaN payloads encode differently")
	}
}
