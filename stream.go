package beas

import (
	"context"
	"fmt"

	"github.com/bounded-eval/beas/internal/iter"
	"github.com/bounded-eval/beas/internal/value"
)

// RowIter is a streaming cursor over a query result: batches of rows are
// produced on demand by the same pull pipeline Query uses, so the full
// result — and the intermediate relations feeding it — are never
// materialised at once. Iterate with NextBatch (or the per-row Next) and
// always Close when done; abandoning the cursor early (e.g. after the
// first batch of a huge join) stops the underlying scans and index
// probes.
//
// The cursor holds the catalog read lock until Close (DDL and
// access-schema changes block), but row writes do not: inserting into
// or deleting from a table an open cursor is scanning fails the cursor
// with a "mutated during scan" error on its next pull rather than
// tearing the stream, and bounded cursors probe the live constraint
// indices. Close is idempotent and is called automatically when the
// stream is exhausted or errors.
type RowIter struct {
	r     run
	it    iter.Iterator
	batch iter.Batch
	rows  []Row // per-row cursor state for Next
	pos   int

	opened, closed bool
	// drained: the consumer read the stream to its end. Only then does a
	// storing run offer its answer to the result cache at Close — an
	// abandoned or failed cursor has a partial answer.
	drained bool
	err     error
}

// QueryIter evaluates sql exactly like Query — bounded when covered,
// partially bounded or conventional otherwise, per UNION branch — but
// returns a streaming cursor instead of a materialised Result. Both pull
// from one pipeline, so they produce the same rows in the same order and
// the same statistics; QueryIter additionally guarantees that a consumer
// which stops early never pays for the rows it did not read.
func (db *DB) QueryIter(sql string) (*RowIter, error) {
	return db.QueryIterContext(context.Background(), sql)
}

// QueryIterContext is QueryIter under a context: once ctx is cancelled
// or its deadline passes, the cursor's next pull fails with ctx's error
// and the underlying fetch loops, scans and joins stop at the next batch
// boundary. The cursor still must be Closed (cancellation does not
// release the catalog read lock); its statistics then reflect only the
// work performed before the cancellation.
func (db *DB) QueryIterContext(ctx context.Context, sql string) (*RowIter, error) {
	return db.queryIter(ctx, &Stmt{db: db, sql: sql})
}

// queryIter wraps the answer stream begin builds — the one Query
// collects — in a cursor. A result-cache hit streams the stored answer
// instead of executing.
func (db *DB) queryIter(ctx context.Context, st *Stmt) (*RowIter, error) {
	ri := &RowIter{}
	it, err := db.begin(ctx, st, true, &ri.r)
	if err != nil {
		return nil, err
	}
	if it == nil {
		it = iter.FromRows(ri.r.res.Rows, nil)
	}
	ri.it = it
	return ri, nil
}

// Columns returns the output column names.
func (ri *RowIter) Columns() []string { return ri.r.res.Columns }

// NextBatch returns the next batch of result rows, or nil when the
// stream is exhausted (the cursor closes itself then). The returned
// slice is only valid until the next NextBatch call; the rows in it are
// immutable and stay valid — read them, never write them.
func (ri *RowIter) NextBatch() ([]Row, error) {
	if ri.closed {
		return nil, ri.err
	}
	if !ri.opened {
		if err := ri.it.Open(); err != nil {
			ri.fail(err)
			return nil, err
		}
		ri.opened = true
	}
	ok, err := ri.it.Next(&ri.batch)
	if err != nil {
		ri.fail(err)
		return nil, err
	}
	if !ok {
		ri.drained = true
		ri.Close()
		return nil, nil
	}
	ri.r.rowsOut += int64(len(ri.batch.Rows))
	if ri.r.tvs != nil {
		ri.r.rows = append(ri.r.rows, ri.batch.Rows...)
	}
	return ri.batch.Rows, nil
}

// Next returns the next single row; ok is false once the stream is
// exhausted. Use either Next or NextBatch on a cursor, not both.
func (ri *RowIter) Next() (Row, bool, error) {
	for ri.pos >= len(ri.rows) {
		rows, err := ri.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if rows == nil {
			return nil, false, nil
		}
		ri.rows, ri.pos = rows, 0
	}
	r := ri.rows[ri.pos]
	ri.pos++
	return r, true, nil
}

// Close releases the cursor: the pipeline is shut down (stopping any
// remaining scans and index probes), execution statistics are finalised
// and the database read lock is released. Idempotent.
func (ri *RowIter) Close() error {
	if ri.closed {
		return nil
	}
	ri.closed = true
	// Close even when Open failed partway: iterators tolerate Close
	// without Open, and a half-opened pipeline must be shut down whole.
	err := ri.it.Close()
	if ri.err == nil {
		ri.err = err
	}
	ri.r.complete = ri.drained
	ri.r.end(ri.err)
	return err
}

// Stats returns the execution statistics. Counters accrue while the
// cursor streams and are final once it is exhausted or closed; with
// early termination they reflect only the work actually performed.
func (ri *RowIter) Stats() *Stats { return &ri.r.res.Stats }

// Err returns the first error the cursor encountered, if any.
func (ri *RowIter) Err() error { return ri.err }

func (ri *RowIter) fail(err error) {
	if ri.err == nil {
		ri.err = fmt.Errorf("beas: streaming query: %w", err)
	}
	ri.Close()
}

// unionIter concatenates the UNION branches of a statement. Branches up
// to and including dedupThrough share one seen-set (plain UNION
// semantics: iterated dedup over the concatenation keeps first
// occurrences); branches after it are UNION ALL tails and append freely.
type unionIter struct {
	parts        []iter.Iterator
	dedupThrough int // index of last deduplicated branch; -1 = none

	cur    int
	opened int // how many parts have been opened
	seen   map[string]struct{}
	kb     []byte
	buf    iter.Batch
}

func (u *unionIter) Open() error {
	if u.dedupThrough >= 0 {
		u.seen = make(map[string]struct{})
	}
	// Branches open lazily as the cursor reaches them, so a consumer that
	// stops inside branch 0 never starts branch 1's pipeline.
	return u.openTo(0)
}

func (u *unionIter) openTo(i int) error {
	for u.opened <= i && u.opened < len(u.parts) {
		if err := u.parts[u.opened].Open(); err != nil {
			return err
		}
		u.opened++
	}
	return nil
}

func (u *unionIter) Next(b *iter.Batch) (bool, error) {
	b.Reset()
	for b.Len() == 0 {
		if u.cur >= len(u.parts) {
			return false, nil
		}
		if err := u.openTo(u.cur); err != nil {
			return false, err
		}
		ok, err := u.parts[u.cur].Next(&u.buf)
		if err != nil {
			return false, err
		}
		if !ok {
			u.cur++
			continue
		}
		for i, r := range u.buf.Rows {
			if u.cur <= u.dedupThrough {
				u.kb = value.AppendRowKey(u.kb[:0], r, nil)
				if _, dup := u.seen[string(u.kb)]; dup {
					continue
				}
				u.seen[string(u.kb)] = struct{}{}
			}
			b.Append(r, u.buf.Weight(i))
		}
	}
	return true, nil
}

func (u *unionIter) Close() error {
	var err error
	for _, p := range u.parts {
		if cerr := p.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
