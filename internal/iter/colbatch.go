package iter

import (
	"sync"

	"github.com/bounded-eval/beas/internal/value"
)

// Column is a typed vector: one attribute's values across the rows of a
// ColBatch, stored in a per-kind flat slice plus a null bitmap. The kind
// is discovered dynamically — a column is Null until its first non-NULL
// value lands and adopts that value's kind. If a later value disagrees
// (legal: the schema admits Int values in Float columns) the column
// migrates to a boxed []value.Value representation, which vectorized
// operators treat as a signal to fall back to the scalar evaluator.
type Column struct {
	kind   value.Kind
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	nulls  []uint64 // bitmap; bit i set = row i is NULL (grown lazily)
	box    []value.Value
	boxed  bool
	n      int
}

// Kind returns the column's element kind: Null while every value so far
// is NULL, otherwise the kind of the typed storage. Meaningless when
// Boxed reports true.
func (c *Column) Kind() value.Kind { return c.kind }

// Boxed reports whether the column degraded to boxed values after a kind
// conflict. Vectorized loops must not touch the typed slices then.
func (c *Column) Boxed() bool { return c.boxed }

// Len returns the number of values appended.
func (c *Column) Len() int { return c.n }

// Ints returns the typed storage of an Int column (zero at NULL rows).
func (c *Column) Ints() []int64 { return c.ints }

// Floats returns the typed storage of a Float column (zero at NULL rows).
func (c *Column) Floats() []float64 { return c.floats }

// Strs returns the typed storage of a String column ("" at NULL rows).
func (c *Column) Strs() []string { return c.strs }

// Bools returns the typed storage of a Bool column (false at NULL rows).
func (c *Column) Bools() []bool { return c.bools }

// IsNull reports whether row i holds NULL.
func (c *Column) IsNull(i int) bool {
	w := i >> 6
	return w < len(c.nulls) && c.nulls[w]&(1<<(uint(i)&63)) != 0
}

// HasNulls reports whether any appended value is NULL.
func (c *Column) HasNulls() bool {
	for _, w := range c.nulls {
		if w != 0 {
			return true
		}
	}
	return false
}

func (c *Column) reset() {
	c.kind = value.Null
	c.ints = c.ints[:0]
	c.floats = c.floats[:0]
	c.strs = c.strs[:0]
	c.bools = c.bools[:0]
	for i := range c.nulls {
		c.nulls[i] = 0
	}
	c.box = c.box[:0]
	c.boxed = false
	c.n = 0
}

func (c *Column) markNull(i int) {
	w := i >> 6
	for len(c.nulls) <= w {
		c.nulls = append(c.nulls, 0)
	}
	c.nulls[w] |= 1 << (uint(i) & 63)
}

// padTyped appends k zero elements to the typed storage of the current
// kind, keeping it parallel to the row count.
func (c *Column) padTyped(k int) {
	switch c.kind {
	case value.Int:
		for ; k > 0; k-- {
			c.ints = append(c.ints, 0)
		}
	case value.Float:
		for ; k > 0; k-- {
			c.floats = append(c.floats, 0)
		}
	case value.String:
		for ; k > 0; k-- {
			c.strs = append(c.strs, "")
		}
	case value.Bool:
		for ; k > 0; k-- {
			c.bools = append(c.bools, false)
		}
	}
}

// migrate re-materialises the column as boxed values after a kind
// conflict.
func (c *Column) migrate() {
	box := c.box[:0]
	for i := 0; i < c.n; i++ {
		box = append(box, c.Value(i))
	}
	c.box = box
	c.boxed = true
}

// Append adds one value to the column.
func (c *Column) Append(v value.Value) {
	if c.boxed {
		c.box = append(c.box, v)
		c.n++
		return
	}
	if v.K == value.Null {
		c.markNull(c.n)
		c.padTyped(1)
		c.n++
		return
	}
	if c.kind == value.Null {
		c.kind = v.K
		c.padTyped(c.n)
	} else if v.K != c.kind {
		c.migrate()
		c.box = append(c.box, v)
		c.n++
		return
	}
	switch c.kind {
	case value.Int:
		c.ints = append(c.ints, v.I)
	case value.Float:
		c.floats = append(c.floats, v.F)
	case value.String:
		c.strs = append(c.strs, v.S)
	case value.Bool:
		c.bools = append(c.bools, v.I != 0)
	}
	c.n++
}

// Value returns row i as a scalar value.
func (c *Column) Value(i int) value.Value {
	if c.boxed {
		return c.box[i]
	}
	if c.kind == value.Null || c.IsNull(i) {
		return value.Value{}
	}
	switch c.kind {
	case value.Int:
		return value.Value{K: value.Int, I: c.ints[i]}
	case value.Float:
		return value.Value{K: value.Float, F: c.floats[i]}
	case value.String:
		return value.Value{K: value.String, S: c.strs[i]}
	default:
		return value.Value{K: value.Bool, I: boolToI(c.bools[i])}
	}
}

func boolToI(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// AppendKeys extends keys[i] with the injective encoding of row i for
// every appended row, column-at-a-time. The per-row bytes are identical
// to value.AppendKey of the row's value, so interleaving AppendKeys
// calls over several columns reproduces value.AppendRowKey exactly.
func (c *Column) AppendKeys(keys [][]byte) {
	if c.boxed {
		for i := 0; i < c.n; i++ {
			keys[i] = value.AppendKey(keys[i], c.box[i])
		}
		return
	}
	switch c.kind {
	case value.Null:
		for i := 0; i < c.n; i++ {
			keys[i] = value.AppendNullKey(keys[i])
		}
	case value.Int:
		for i, x := range c.ints[:c.n] {
			if c.IsNull(i) {
				keys[i] = value.AppendNullKey(keys[i])
			} else {
				keys[i] = value.AppendIntKey(keys[i], x)
			}
		}
	case value.Float:
		for i, x := range c.floats[:c.n] {
			if c.IsNull(i) {
				keys[i] = value.AppendNullKey(keys[i])
			} else {
				keys[i] = value.AppendFloatKey(keys[i], x)
			}
		}
	case value.String:
		for i, x := range c.strs[:c.n] {
			if c.IsNull(i) {
				keys[i] = value.AppendNullKey(keys[i])
			} else {
				keys[i] = value.AppendStringKey(keys[i], x)
			}
		}
	case value.Bool:
		for i, x := range c.bools[:c.n] {
			if c.IsNull(i) {
				keys[i] = value.AppendNullKey(keys[i])
			} else {
				keys[i] = value.AppendBoolKey(keys[i], x)
			}
		}
	}
}

// ColBatch is the columnar counterpart of Batch: a block of weighted
// rows stored as typed column vectors plus an optional selection vector.
// Weights is either nil (all rows weight 1) or parallel to the physical
// rows. Sel, when non-nil, lists the physical indexes of the live rows
// in order — filters refine Sel instead of compacting the columns.
//
// Like Batch, a ColBatch's contents are only valid until the producer's
// next NextCols call.
type ColBatch struct {
	cols    []Column
	Weights []int64
	Sel     []int

	n        int
	wspare   []int64
	selSpare []int
}

// colBatchPool recycles batches between pipelines. A plan that runs
// thousands of times a second otherwise regrows every column vector of
// every operator buffer from nothing on each run, and that garbage — not
// the answer — is most of what such a query allocates.
var colBatchPool = sync.Pool{New: func() any { return new(ColBatch) }}

// AcquireColBatch returns an empty batch, reusing the column storage of
// one given back with ReleaseColBatch when there is one. The caller Resets it
// (or hands it to a producer, which does) before use.
func AcquireColBatch() *ColBatch { return colBatchPool.Get().(*ColBatch) }

// ReleaseColBatch gives *b's storage back for reuse and clears *b. The
// operator that acquired the batch calls it from Close: by the ColBatch
// contract nothing reads a batch after its consumer is closed. A nil *b
// is left alone, so Close may run twice, or without Open.
func ReleaseColBatch(b **ColBatch) {
	if *b != nil {
		colBatchPool.Put(*b)
		*b = nil
	}
}

// Reset empties the batch and sets its width, keeping the capacity of
// every column, the weight slice and the selection vector.
func (b *ColBatch) Reset(width int) {
	if cap(b.cols) < width {
		cols := make([]Column, width)
		copy(cols, b.cols)
		b.cols = cols
	}
	b.cols = b.cols[:width]
	for i := range b.cols {
		b.cols[i].reset()
	}
	if b.Weights != nil {
		b.wspare = b.Weights[:0]
	}
	b.Weights = nil
	if b.Sel != nil {
		b.selSpare = b.Sel[:0]
	}
	b.Sel = nil
	b.n = 0
}

// Width returns the number of columns.
func (b *ColBatch) Width() int { return len(b.cols) }

// Col returns column j.
func (b *ColBatch) Col(j int) *Column { return &b.cols[j] }

// Rows returns the physical row count, ignoring the selection vector.
func (b *ColBatch) Rows() int { return b.n }

// Len returns the live row count (the selection vector's length when one
// is set).
func (b *ColBatch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.n
}

// Index maps logical row i to its physical index.
func (b *ColBatch) Index(i int) int {
	if b.Sel != nil {
		return b.Sel[i]
	}
	return i
}

// Weight returns physical row p's bag multiplicity.
func (b *ColBatch) Weight(p int) int64 {
	if b.Weights == nil {
		return 1
	}
	return b.Weights[p]
}

// SelBuf returns an empty, non-nil selection vector reusing retained
// capacity; filters fill it (appending in physical-index order, which
// lets them compact the current Sel in place) and hand it to SetSel.
// It is never nil: an empty selection means zero live rows, whereas a
// nil Sel means all rows live.
func (b *ColBatch) SelBuf() []int {
	if b.Sel != nil {
		return b.Sel[:0]
	}
	if b.selSpare == nil {
		b.selSpare = make([]int, 0, max(b.n, BatchSize))
	}
	return b.selSpare[:0]
}

// SetSel installs sel as the batch's selection vector.
func (b *ColBatch) SetSel(sel []int) { b.Sel = sel }

// AppendRow appends one physical row with the given weight. Appending
// and selection do not mix: producers build a batch with AppendRow, and
// consumers may then refine it with SetSel.
func (b *ColBatch) AppendRow(r value.Row, w int64) {
	for j := range b.cols {
		b.cols[j].Append(r[j])
	}
	if w != 1 && b.Weights == nil {
		ws := b.wspare
		// Non-nil even when the batch is empty — nil Weights means all-1.
		if need := max(b.n+1, BatchSize); cap(ws) < need {
			ws = make([]int64, 0, need)
		}
		b.Weights = ws[:b.n]
		for i := range b.Weights {
			b.Weights[i] = 1
		}
	}
	b.n++
	if b.Weights != nil {
		b.Weights = append(b.Weights, w)
	}
}

// SetRows records the physical row count after a producer appends
// values to the columns directly (bypassing AppendRow); such rows all
// carry weight 1. It also keeps zero-width batches meaningful (a scan
// projecting no columns still has a row count).
func (b *ColBatch) SetRows(n int) { b.n = n }

// ReadRow fills dst (of the batch's width) with physical row p.
func (b *ColBatch) ReadRow(p int, dst value.Row) {
	for j := range b.cols {
		dst[j] = b.cols[j].Value(p)
	}
}

// AppendRowKeys extends keys[p] (for every physical row p) with the
// injective encoding of the row's values at positions pos, processing
// column-at-a-time. The resulting bytes equal value.AppendRowKey of the
// row view.
func (b *ColBatch) AppendRowKeys(pos []int, keys [][]byte) {
	for _, p := range pos {
		b.cols[p].AppendKeys(keys[:b.n])
	}
}

// ColIterator is the columnar pull iterator: NextCols fills b (after the
// producer resets it) and reports whether it holds any live rows. The
// Open/Close contract matches Iterator.
type ColIterator interface {
	Open() error
	NextCols(b *ColBatch) (bool, error)
	Close() error
}

// CountedCols wraps ci so that *n accrues the number of live rows
// streamed, mirroring Counted for row iterators.
func CountedCols(ci ColIterator, n *int64) ColIterator {
	return &countedCols{ci: ci, n: n}
}

type countedCols struct {
	ci ColIterator
	n  *int64
}

func (c *countedCols) Open() error  { return c.ci.Open() }
func (c *countedCols) Close() error { return c.ci.Close() }

func (c *countedCols) NextCols(b *ColBatch) (bool, error) {
	ok, err := c.ci.NextCols(b)
	if ok {
		*c.n += int64(b.Len())
	}
	return ok, err
}

// ColFromRows returns a columnar iterator over materialised weighted
// rows (weights nil = all 1). width names the column count, which
// matters when rows is empty. batch caps rows per ColBatch; 0 means
// BatchSize.
func ColFromRows(rows []value.Row, weights []int64, width, batch int) ColIterator {
	if batch <= 0 {
		batch = BatchSize
	}
	return &colSliceIter{rows: rows, weights: weights, width: width, batch: batch}
}

type colSliceIter struct {
	rows    []value.Row
	weights []int64
	width   int
	batch   int
	pos     int
}

func (s *colSliceIter) Open() error  { return nil }
func (s *colSliceIter) Close() error { return nil }

func (s *colSliceIter) NextCols(b *ColBatch) (bool, error) {
	b.Reset(s.width)
	if s.pos >= len(s.rows) {
		return false, nil
	}
	end := min(s.pos+s.batch, len(s.rows))
	for i := s.pos; i < end; i++ {
		w := int64(1)
		if s.weights != nil {
			w = s.weights[i]
		}
		b.AppendRow(s.rows[i], w)
	}
	s.pos = end
	return true, nil
}
