package beas

import (
	"context"
	"fmt"
	"time"

	"github.com/bounded-eval/beas/internal/core"
	"github.com/bounded-eval/beas/internal/iter"
	"github.com/bounded-eval/beas/internal/obs"
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
	db      *DB
	columns []string
	it      iter.Iterator
	res     *Result
	final   []func() // fold per-branch execution stats into res at close
	finish  func()   // finish the trace this cursor started (nil-safe set)
	start   time.Time

	batch  iter.Batch
	rows   []Row // per-row cursor state for Next
	pos    int
	opened bool
	closed bool
	err    error

	// Workload-digest state: the set installed when the cursor opened,
	// the statement text and a count of rows actually streamed. The
	// observation happens once, at Close, with the terminal outcome.
	digests *obs.DigestSet
	sql     string
	rowsOut int64

	// Store-on-drain state for the semantic result cache. A cursor that
	// streams a fully covered statement to exhaustion has materialised
	// the complete bounded answer anyway (it is at most the deduced
	// bound M rows), so Close admits it exactly like Query does; an
	// abandoned or failed cursor has a partial answer and never stores.
	run       run
	cacheRows []value.Row
	drained   bool
}

// QueryIter evaluates sql exactly like Query — bounded when covered,
// partially bounded or conventional otherwise, per UNION branch — but
// returns a streaming cursor instead of a materialised Result. The two
// produce identical row bags; QueryIter additionally guarantees that a
// consumer which stops early never pays for the rows it did not read.
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

func (db *DB) queryIter(ctx context.Context, st *Stmt) (*RowIter, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, finishTrace := db.startTrace(ctx, "query", st.sql)
	db.mu.RLock()
	ok := false
	defer func() {
		if !ok {
			db.mu.RUnlock()
			finishTrace()
		}
	}()
	ri := &RowIter{db: db, finish: finishTrace, digests: db.digests.Load(), sql: st.sql}
	r := &ri.run
	if err := db.beginLocked(ctx, st, r); err != nil {
		return nil, err
	}
	pr := r.pr
	ri.columns, ri.start = pr.columns, r.start
	ri.res = &Result{Columns: pr.columns, Stats: pr.stats}

	// Result-cache hit: the fresh materialized answer streams from the
	// snapshot instead of re-executing. On a miss the cursor accumulates
	// the bounded answer as it drains and stores it at Close — but only
	// when the consumer read the stream to exhaustion without error.
	if r.hit {
		ri.res = db.serveCachedLocked(r)
		ri.it = iter.FromRows(r.cached.Rows, nil)
		ok = true
		return ri, nil
	}

	parts := make([]iter.Iterator, 0, len(pr.branches))
	for i := range pr.branches {
		b := &pr.branches[i]
		if b.plan != nil {
			plan := r.plan(b)
			var it iter.Iterator
			var cst *core.Stats
			if db.par > 1 {
				// Parallel mode: the bounded branch executes eagerly across
				// the worker pool (its size is bounded by the deduced bound
				// M) and the cursor streams the materialised result. A
				// consumer that stops early has already paid the bounded
				// cost — which is exactly what the checker promised.
				rows, pst, err := core.RunParallelContext(ctx, plan, db.par)
				if err != nil {
					return nil, err
				}
				it, cst = iter.FromRows(rows, nil), pst
			} else {
				it, cst = core.StreamContext(ctx, plan)
			}
			ri.final = append(ri.final, func() { foldBounded(&ri.res.Stats, cst) })
			if r.tvs != nil {
				r.ran = append(r.ran, ranBranch{b: b, plan: plan, st: cst})
			}
			parts = append(parts, it)
			continue
		}
		// Not covered: partially bounded plan. The bounded sub-query runs
		// eagerly here (its size is bounded by the access schema); the
		// conventional join over it streams.
		it, subStats, engStats, err := core.StreamPartialContext(ctx, b.partial, b.q, db.fallback, db.par)
		if err != nil {
			return nil, err
		}
		foldBounded(&ri.res.Stats, subStats)
		ri.final = append(ri.final, func() {
			ri.res.Stats.TuplesScanned += engStats.Scanned
			for _, o := range engStats.Ops {
				ri.res.Stats.Ops = append(ri.res.Stats.Ops, OpStat(o))
			}
		})
		parts = append(parts, it)
	}

	// UNION semantics: every branch up to the last plain (non-ALL) UNION
	// shares one duplicate-elimination set; branches after it append
	// freely. This matches Query's fold of exec.Dedup over the branches.
	dedupThrough := -1
	for i, all := range r.tmpl.Parsed.(*parsed).unionAll {
		if i > 0 && !all {
			dedupThrough = i
		}
	}
	ri.it = &unionIter{parts: parts, dedupThrough: dedupThrough}
	if tr, parent := obs.FromContext(ctx); tr != nil {
		// The stream span measures time spent pulling result batches
		// through the cursor — including the upstream pipeline; the fetch
		// and operator spans break out where it went.
		streamStart := time.Now()
		ri.it = iter.Timed(ri.it, func(batches, rows int64, d time.Duration) {
			tr.AddSpan(parent, "stream", streamStart, d,
				obs.Attr{Key: "batches", Val: batches},
				obs.Attr{Key: "rows", Val: rows},
			)
		})
	}
	ok = true
	return ri, nil
}

// Columns returns the output column names.
func (ri *RowIter) Columns() []string { return ri.columns }

// NextBatch returns the next batch of result rows, or nil when the
// stream is exhausted (the cursor closes itself then). The returned
// slice is only valid until the next NextBatch call.
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
	ri.rowsOut += int64(len(ri.batch.Rows))
	if ri.run.tvs != nil {
		// Batch storage is reused between pulls; the cache keeps its own
		// copy of each row.
		for _, r := range ri.batch.Rows {
			ri.cacheRows = append(ri.cacheRows, append(value.Row(nil), r...))
		}
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
	for _, f := range ri.final {
		f()
	}
	st := &ri.res.Stats
	st.Duration = time.Since(ri.start)
	if st.Mode == ModeBounded && st.TuplesFetched == 0 && st.Bound == 0 {
		st.Mode = ModeEmpty
	}
	if ri.run.tvs != nil && ri.drained && err == nil && ri.err == nil {
		// Still under db.mu (read), execution statistics already folded.
		ri.db.storeLocked(&ri.run, ri.columns, ri.cacheRows, st)
	}
	ri.db.mu.RUnlock()
	if ri.finish != nil {
		ri.finish()
	}
	if ri.err == nil {
		ri.err = err
	}
	if ri.digests != nil {
		// Outside the catalog lock: the digest set has its own mutex and
		// the cursor is single-consumer, so its stats are stable here.
		ri.digests.Observe(digestObservation(st.Fingerprint, ri.sql, st, ri.rowsOut, ri.err, st.Duration))
	}
	return err
}

// Stats returns the execution statistics. Counters accrue while the
// cursor streams and are final once it is exhausted or closed; with
// early termination they reflect only the work actually performed.
func (ri *RowIter) Stats() *Stats { return &ri.res.Stats }

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
