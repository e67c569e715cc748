package core

import (
	"context"
	"time"

	"github.com/bounded-eval/beas/internal/iter"
	"github.com/bounded-eval/beas/internal/obs"
)

// execTail wraps the relational tail (internal/exec) of a bounded plan
// with a timing decorator when the context carries a trace, emitting an
// "exec.tail" span at close. The tail pulls from the fetch-step chain,
// so its measured wall time includes upstream pull time; the fetch-step
// spans' self-times show how much of it was index probing.
func execTail(ctx context.Context, out iter.Iterator, start time.Time) iter.Iterator {
	tr, parent := obs.FromContext(ctx)
	if tr == nil {
		return out
	}
	return iter.Timed(out, func(batches, rows int64, d time.Duration) {
		tr.AddSpan(parent, "exec.tail", start, d,
			obs.Attr{Key: "batches", Val: batches},
			obs.Attr{Key: "rows", Val: rows},
		)
	})
}

// emitStepSpans files a bounded execution's per-step statistics as
// trace spans under the context's current span. Step durations are
// self-times (disjoint per step, see colStepOp.NextCols); the spans' start
// times all anchor at the pipeline start, since streaming steps
// interleave rather than run back to back. Attrs carry the full
// estimated-vs-actual breakdown: the a-priori worst-case bounds, the
// optimizer's estimates (zero when it did not run) and the actual
// counters.
func emitStepSpans(ctx context.Context, start time.Time, st *Stats) {
	tr, parent := obs.FromContext(ctx)
	if tr == nil {
		return
	}
	for i := range st.Steps {
		s := &st.Steps[i]
		attrs := []obs.Attr{
			{Key: "constraint", Val: s.Constraint},
			{Key: "keyBound", Val: s.KeyBound},
			{Key: "outBound", Val: s.OutBound},
			{Key: "keys", Val: s.DistinctKey},
			{Key: "fetched", Val: s.Fetched},
			{Key: "rows", Val: s.RowsOut},
		}
		if s.EstKeys != 0 || s.EstFetched != 0 || s.EstRows != 0 {
			attrs = append(attrs,
				obs.Attr{Key: "estKeys", Val: s.EstKeys},
				obs.Attr{Key: "estFetched", Val: s.EstFetched},
				obs.Attr{Key: "estRows", Val: s.EstRows},
			)
		}
		tr.AddSpan(parent, "fetch "+s.Atom, start, s.Duration, attrs...)
	}
}
