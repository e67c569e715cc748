package beas

import (
	"context"
	"time"

	"github.com/bounded-eval/beas/internal/obs"
)

// Tracing and metrics wiring for the public API. The observability
// types themselves live in internal/obs and are re-exported here as
// aliases, so embedders configure tracing without importing an internal
// package.

// Tracer samples and retains query-lifecycle traces; see NewTracer.
type Tracer = obs.Tracer

// TracerOptions configures a Tracer.
type TracerOptions = obs.TracerOptions

// MetricsRegistry is a metrics registry with Prometheus text
// exposition; see NewMetricsRegistry.
type MetricsRegistry = obs.Registry

// NewTracer creates a query tracer for DB.SetTracer (or
// Options.Tracer). Every query run against a DB with a tracer installed
// records a span tree — parse, plan-cache outcome, check, optimize and
// per-fetch-step spans with estimated-vs-actual counters — and the
// tracer retains a sampled subset (plus everything slower than the slow
// threshold or force-kept) in a fixed-size ring for inspection.
func NewTracer(opts TracerOptions) *Tracer { return obs.NewTracer(opts) }

// NewMetricsRegistry creates an empty metrics registry for
// DB.SetMetrics (servers typically share one registry between the DB
// and their own counters).
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// SetTracer installs (nil removes) the query tracer. Queries whose
// context already carries a trace — e.g. started by a serving layer —
// keep it; for all others the DB starts and finishes a trace itself.
func (db *DB) SetTracer(t *Tracer) { db.tracer.Store(t) }

// Tracer returns the installed query tracer (nil when tracing is off).
func (db *DB) Tracer() *Tracer { return db.tracer.Load() }

// startTrace returns ctx carrying a trace for one statement. A trace
// already on ctx is reused (finish is then a no-op — whoever started it
// finishes it); otherwise, with a tracer installed, a fresh trace
// starts here and finish stamps and retains it.
func (db *DB) startTrace(ctx context.Context, name, sql string) (context.Context, func()) {
	if tr, _ := obs.FromContext(ctx); tr != nil {
		return ctx, func() {}
	}
	t := db.tracer.Load()
	if t == nil {
		return ctx, func() {}
	}
	tr := t.StartTrace(name, obs.Attr{Key: "sql", Val: sql})
	return obs.With(ctx, tr, tr.Root()), func() { t.Finish(tr) }
}

// SetMetrics wires the database's internal instrumentation into reg:
// plan-cache hit/miss counters, WAL append counters and fsync-latency
// histogram (via the log's observer hook), and durability gauges (WAL
// size, last LSN). Registration is get-or-create, so calling SetMetrics
// again — or pointing several databases at one registry — is safe; the
// WAL observer, however, is per-log, so the last call wins for it.
func (db *DB) SetMetrics(reg *MetricsRegistry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("beas_plan_cache_hits_total", "Query parses served from the plan cache.", nil, func() int64 {
		h, _ := db.PlanCacheStats()
		return int64(h)
	})
	reg.CounterFunc("beas_plan_cache_misses_total", "Query parses analysed from scratch.", nil, func() int64 {
		_, m := db.PlanCacheStats()
		return int64(m)
	})
	reg.CounterFunc("beas_result_cache_hits_total", "Queries served from the semantic result cache.", nil, func() int64 {
		return int64(db.ResultCacheStats().Hits)
	})
	reg.CounterFunc("beas_result_cache_misses_total", "Result-cache lookups that missed (or found a stale entry).", nil, func() int64 {
		return int64(db.ResultCacheStats().Misses)
	})
	reg.CounterFunc("beas_result_cache_stores_total", "Materialized answers admitted into the result cache.", nil, func() int64 {
		return int64(db.ResultCacheStats().Stores)
	})
	reg.CounterFunc("beas_result_cache_patches_total", "Cached answers patched in place under mutations.", nil, func() int64 {
		return int64(db.ResultCacheStats().Patches)
	})
	reg.CounterFunc("beas_result_cache_invalidations_total", "Cached answers invalidated by relevant mutations or DDL.", nil, func() int64 {
		return int64(db.ResultCacheStats().Invalidations)
	})
	reg.CounterFunc("beas_result_cache_evictions_total", "Cached answers evicted by the byte budget (LRU).", nil, func() int64 {
		return int64(db.ResultCacheStats().Evictions)
	})
	reg.GaugeFunc("beas_result_cache_entries", "Live entries in the result tier.", nil, func() float64 {
		return float64(db.ResultCacheStats().Entries)
	})
	reg.GaugeFunc("beas_result_cache_bytes", "Approximate bytes held by the result tier.", nil, func() float64 {
		return float64(db.ResultCacheStats().Bytes)
	})
	reg.GaugeFunc("beas_plan_cache_bytes", "Approximate bytes held by the template tier.", nil, func() float64 {
		return float64(db.ResultCacheStats().TemplateBytes)
	})
	reg.GaugeFunc("beas_wal_size_bytes", "On-disk size of all live WAL segments.", nil, func() float64 {
		return float64(db.Durability().WALBytes)
	})
	reg.GaugeFunc("beas_wal_last_lsn", "Sequence number of the most recent WAL record.", nil, func() float64 {
		return float64(db.Durability().LastLSN)
	})
	reg.GaugeFunc("beas_digest_entries", "Fingerprints retained by the workload digest set.", nil, func() float64 {
		return float64(db.Digests().Len())
	})
	reg.CounterFunc("beas_digest_observations_total", "Finished executions folded into the workload digests.", nil, func() int64 {
		return int64(db.Digests().Observations())
	})
	reg.CounterFunc("beas_digest_evictions_total", "Digest fingerprints evicted by the top-K retention.", nil, func() int64 {
		return int64(db.Digests().Evictions())
	})
	reg.GaugeFunc("beas_digest_drift_flagged", "Fingerprints whose actual fetch volume drifted past the estimate threshold.", nil, func() float64 {
		return float64(db.Digests().DriftCount())
	})
	reg.GaugeFunc("beas_digest_drift_worst_ratio", "Largest est-vs-actual drift severity over retained fingerprints (1 = honest, 0 = no estimates).", nil, func() float64 {
		return db.Digests().WorstDriftRatio()
	})
	appends := reg.Counter("beas_wal_appends_total", "WAL records appended.", nil)
	bytes := reg.Counter("beas_wal_append_bytes_total", "Framed bytes appended to the WAL.", nil)
	fsync := reg.Histogram("beas_wal_fsync_seconds", "Per-record WAL fsync latency in seconds.", obs.LatencyBuckets, nil)
	db.mu.RLock()
	w := db.wal
	db.mu.RUnlock()
	if w != nil {
		w.SetObserver(func(n int, syncDur time.Duration) {
			appends.Inc()
			bytes.Add(int64(n))
			if syncDur > 0 {
				fsync.Observe(syncDur.Seconds())
			}
		})
	}
}
