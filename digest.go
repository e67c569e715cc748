package beas

import (
	"context"
	"errors"
	"time"

	"github.com/bounded-eval/beas/internal/obs"
)

// DigestSet aggregates per-fingerprint workload statistics: calls,
// error/cancel counts, latency quantiles, deduced bound vs actual
// fetch volume, optimizer-estimate honesty and result-cache hit
// ratios, bounded to the top-K statements by total execution time.
type DigestSet = obs.DigestSet

// DigestSnapshot is the rendered aggregate of one fingerprint.
type DigestSnapshot = obs.DigestSnapshot

// NewDigestSet creates a digest set retaining the top topK fingerprints
// by total execution time (topK <= 0 selects the default of 128).
func NewDigestSet(topK int) *DigestSet { return obs.NewDigestSet(topK) }

// SetDigests installs (or, with nil, removes) the workload digest set.
// Every finished Query/QueryIter/QueryApprox execution — including
// cancellations and failures after analysis — folds into it. Like
// SetTracer this is atomic: it never blocks queries in flight, and a
// disabled digest layer costs the query path one atomic load.
func (db *DB) SetDigests(d *DigestSet) { db.digests.Store(d) }

// Digests returns the installed digest set, or nil when disabled.
func (db *DB) Digests() *DigestSet { return db.digests.Load() }

// digestOutcome classifies a terminal error for the digest layer.
func digestOutcome(err error) string {
	switch {
	case err == nil:
		return obs.OutcomeOK
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return obs.OutcomeCanceled
	default:
		return obs.OutcomeError
	}
}

// digestObservation assembles the digest view of one finished
// execution. st may be nil (statement failed before producing stats);
// fp may be empty (failed before analysis), in which case the set falls
// back to a text fingerprint.
func digestObservation(fp, sql string, st *Stats, rows int64, err error, dur time.Duration) obs.DigestObservation {
	o := obs.DigestObservation{
		Fingerprint: fp,
		SQL:         sql,
		Outcome:     digestOutcome(err),
		Rows:        rows,
		Duration:    dur,
	}
	if st != nil {
		o.Mode = string(st.Mode)
		o.CacheHit = st.CacheHit
		o.Bound = st.Bound
		o.Fetched = st.TuplesFetched
		o.Scanned = st.TuplesScanned
		if st.Optimized && !st.CacheHit {
			for _, s := range st.FetchSteps {
				o.EstKeys += s.EstKeys
				o.EstFetched += s.EstFetched
				o.ActualKeys += s.DistinctKey
			}
		}
	}
	return o
}
