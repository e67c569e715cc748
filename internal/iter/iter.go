// Package iter defines the streaming execution core shared by every
// executor in BEAS: batches of weighted rows and the pull-based iterator
// (Open / Next / Close) that operators implement.
//
// A batch carries up to a few hundred rows plus an optional parallel
// weight slice. Weights restore SQL bag semantics for the bounded
// executor, whose constraint indices store only distinct partial tuples
// with witness counts; a nil weight slice means every row has weight 1,
// so the conventional engine pays nothing for the generality.
//
// Operators form a pull pipeline: the sink (projection / aggregation /
// LIMIT) asks the root for the next batch, and each operator asks its
// children for just enough input to fill one output batch. A LIMIT k
// query therefore stops pulling — and the scans stop reading — after k
// rows, instead of materializing every intermediate relation.
//
// Below the relational tail — scans, filters, joins and fetch steps —
// operators exchange column batches (ColBatch through ColIterator). The
// tail projects them to row batches (Batch through Iterator), which is
// what DISTINCT, ORDER BY, LIMIT and the result cursors consume.
package iter

import (
	"context"

	"github.com/bounded-eval/beas/internal/value"
)

// BatchSize is the default number of rows per batch. It is small enough
// that a pipeline holds only a few thousand rows at any moment and large
// enough to amortise per-batch overhead.
const BatchSize = 256

// Batch is a block of weighted rows flowing between operators. Weights
// is either nil (all rows have weight 1) or parallel to Rows.
//
// Row ownership: the Rows and Weights slices belong to the batch and are
// refilled by the producer's next call to Next, but the rows they point
// to are immutable once emitted — no producer writes a row it has handed
// out, and consumers must treat every row as read-only. A consumer that
// buffers copies the references, never the rows.
type Batch struct {
	Rows    []value.Row
	Weights []int64

	// wspare retains the weight slice's backing array across Reset so a
	// weighted pipeline does not allocate a fresh slice every batch.
	wspare []int64
}

// Reset empties the batch, keeping row capacity. Weights revert to nil
// (all-1) until a non-unit weight is appended again; their backing array
// is retained and reused by the next weighted Append.
func (b *Batch) Reset() {
	b.Rows = b.Rows[:0]
	if b.Weights != nil {
		b.wspare = b.Weights[:0]
	}
	b.Weights = nil
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return len(b.Rows) }

// Weight returns row i's bag multiplicity.
func (b *Batch) Weight(i int) int64 {
	if b.Weights == nil {
		return 1
	}
	return b.Weights[i]
}

// Append adds a row with the given weight, materialising the weight
// slice only when a weight other than 1 appears.
func (b *Batch) Append(r value.Row, w int64) {
	if w != 1 && b.Weights == nil {
		ws := b.wspare
		// Need a non-nil slice even for an empty batch: nil Weights means
		// all-1, so the weight about to be appended would be lost.
		if need := max(len(b.Rows)+1, cap(b.Rows)); cap(ws) < need {
			ws = make([]int64, 0, need)
		}
		b.Weights = ws[:len(b.Rows)]
		for i := range b.Weights {
			b.Weights[i] = 1
		}
	}
	b.Rows = append(b.Rows, r)
	if b.Weights != nil {
		b.Weights = append(b.Weights, w)
	}
}

// Iterator is a pull-based stream of row batches.
//
// Next fills b (after resetting it) and reports whether the batch holds
// any data; it returns false exactly once, after which the stream is
// exhausted. Close releases resources and may be called at any point —
// in particular before exhaustion, which is how LIMIT abandons the rest
// of a pipeline. Implementations must tolerate Close without Open (a
// pipeline that failed to open partway is still closed whole).
type Iterator interface {
	Open() error
	Next(b *Batch) (bool, error)
	Close() error
}

// sliceIter streams a pre-materialised slice of weighted rows.
type sliceIter struct {
	rows    []value.Row
	weights []int64
	pos     int
}

// FromRows returns an iterator over materialised rows with optional
// weights (nil = all 1). The slices are not copied.
func FromRows(rows []value.Row, weights []int64) Iterator {
	return &sliceIter{rows: rows, weights: weights}
}

func (s *sliceIter) Open() error { return nil }

func (s *sliceIter) Next(b *Batch) (bool, error) {
	b.Reset()
	if s.pos >= len(s.rows) {
		return false, nil
	}
	end := s.pos + BatchSize
	if end > len(s.rows) {
		end = len(s.rows)
	}
	for i := s.pos; i < end; i++ {
		w := int64(1)
		if s.weights != nil {
			w = s.weights[i]
		}
		b.Append(s.rows[i], w)
	}
	s.pos = end
	return true, nil
}

func (s *sliceIter) Close() error { return nil }

// Empty returns an iterator that yields nothing.
func Empty() Iterator { return &sliceIter{} }

// Collect drains it (opening and closing it) and returns all rows and,
// when any weight differs from 1, the parallel weight slice.
func Collect(it Iterator) ([]value.Row, []int64, error) {
	if err := it.Open(); err != nil {
		it.Close()
		return nil, nil, err
	}
	defer it.Close()
	var rows []value.Row
	var weights []int64
	var b Batch
	for {
		ok, err := it.Next(&b)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			return rows, weights, nil
		}
		for i, r := range b.Rows {
			w := b.Weight(i)
			if w != 1 && weights == nil {
				weights = make([]int64, len(rows), len(rows)+b.Len())
				for j := range weights {
					weights[j] = 1
				}
			}
			rows = append(rows, r)
			if weights != nil {
				weights = append(weights, w)
			}
		}
	}
}

// Counted wraps it so that *n accrues the number of rows streamed —
// the row-count probes of the execution statistics.
func Counted(it Iterator, n *int64) Iterator {
	return &counted{it: it, n: n}
}

type counted struct {
	it Iterator
	n  *int64
}

func (c *counted) Open() error  { return c.it.Open() }
func (c *counted) Close() error { return c.it.Close() }

func (c *counted) Next(b *Batch) (bool, error) {
	ok, err := c.it.Next(b)
	*c.n += int64(b.Len())
	return ok, err
}

// WithContext wraps it so that every Open and Next observes ctx: once
// the context is cancelled or its deadline passes, the next pull fails
// with ctx's error instead of producing data. Contexts that can never be
// cancelled add no overhead — the iterator is returned unchanged.
//
// Cancellation propagates through a pull pipeline for free: blocking
// stages (hash-join builds, sort drains, aggregation folds) sit in loops
// pulling from their inputs, so a ctx-checked source terminates them
// mid-flight at the next batch boundary.
func WithContext(ctx context.Context, it Iterator) Iterator {
	if ctx == nil || ctx.Done() == nil {
		return it
	}
	return &ctxIter{ctx: ctx, it: it}
}

type ctxIter struct {
	ctx context.Context
	it  Iterator
}

func (c *ctxIter) Open() error {
	if err := c.ctx.Err(); err != nil {
		return err
	}
	return c.it.Open()
}

func (c *ctxIter) Next(b *Batch) (bool, error) {
	if err := c.ctx.Err(); err != nil {
		b.Reset()
		return false, err
	}
	return c.it.Next(b)
}

func (c *ctxIter) Close() error { return c.it.Close() }

// OnClose wraps it so that fn runs exactly once when the stream is
// closed or exhausted — used to finalise execution statistics.
func OnClose(it Iterator, fn func()) Iterator {
	return &onClose{it: it, fn: fn}
}

type onClose struct {
	it   Iterator
	fn   func()
	done bool
}

func (o *onClose) Open() error { return o.it.Open() }

func (o *onClose) Next(b *Batch) (bool, error) {
	ok, err := o.it.Next(b)
	if (!ok || err != nil) && !o.done {
		o.done = true
		o.fn()
	}
	return ok, err
}

func (o *onClose) Close() error {
	err := o.it.Close()
	if !o.done {
		o.done = true
		o.fn()
	}
	return err
}
