package server

import (
	"time"

	beas "github.com/bounded-eval/beas"
	"github.com/bounded-eval/beas/internal/obs"
)

// boundEdges are the upper edges of the deduced-bound histogram, in
// tuples. A query's a-priori access bound M lands in the first bucket
// whose edge is ≥ M; queries the checker cannot bound at all (not
// covered) are counted separately. Powers of ten keep the histogram
// readable across the orders of magnitude access schemas span.
var boundEdges = []float64{0, 1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000}

var boundLabels = []string{"0", "1", "10", "100", "1e3", "1e4", "1e5", "1e6", "1e7", "1e8", "+Inf"}

// metrics is the server's monitoring state, backed by an obs.Registry so
// the same counters serve both the JSON /stats view and the Prometheus
// /metrics exposition. Registration is get-or-create, so servers sharing
// a registry share the series. Everything is lock-free on the hot path;
// snapshot reads are consistent enough for monitoring (counters may be
// mid-update relative to each other, never torn individually).
type metrics struct {
	reg *obs.Registry

	queries           *obs.Counter // /query requests carrying a statement (parse failures count as failed)
	admitted          *obs.Counter // requests that reached execution
	rejectedBudget    *obs.Counter // covered, but deduced bound exceeded the budget
	rejectedUncovered *obs.Counter // not covered and AllowUncovered is off
	rejectedBusy      *obs.Counter // worker pool and wait queue both full
	downgraded        *obs.Counter // over-budget, rerouted to approximation
	queued            *obs.Counter // over-budget, serialised through the heavy lane

	canceled     *obs.Counter // context cancelled or deadline hit mid-execution
	failed       *obs.Counter // execution errors other than cancellation
	disconnected *obs.Counter // client stopped reading mid-stream (write error)

	rowsStreamed  *obs.Counter // rows delivered on successfully completed streams
	rowsAbandoned *obs.Counter // rows written before a cancel/disconnect/failure
	tuplesFetched *obs.Counter // partial tuples via constraint indices (Σ |D_Q|)
	tuplesScanned *obs.Counter // base rows read by conventional scans

	modeBounded      *obs.Counter
	modePartial      *obs.Counter
	modeConventional *obs.Counter
	modeEmpty        *obs.Counter

	boundHist      *obs.Histogram // deduced access bound M per checked query
	boundUncovered *obs.Counter
	// boundRatio is the bound-accuracy signal: actual fetched / deduced
	// bound M per completed bounded query. Ratios near 0 mean the bound
	// was loose; a ratio in the +Inf bucket would mean the a-priori
	// guarantee was violated.
	boundRatio *obs.Histogram

	latency      *obs.Histogram // end-to-end /query latency, seconds
	stageCheck   *obs.Histogram // parse + check + admission, seconds
	stageExecute *obs.Histogram // execution + streaming, seconds

	slowLogged    *obs.Counter
	slowWriteErrs *obs.Counter
}

func newMetrics(reg *obs.Registry) *metrics {
	adm := func(outcome string) *obs.Counter {
		return reg.Counter("beas_admission_total", "Admission decisions by outcome.", obs.Labels{"outcome": outcome})
	}
	res := func(outcome string) *obs.Counter {
		return reg.Counter("beas_query_results_total", "Executed queries by terminal outcome.", obs.Labels{"outcome": outcome})
	}
	mode := func(m string) *obs.Counter {
		return reg.Counter("beas_query_mode_total", "Completed executions by evaluation mode.", obs.Labels{"mode": m})
	}
	stage := func(st string) *obs.Histogram {
		return reg.Histogram("beas_stage_duration_seconds", "Per-stage query latency in seconds.", obs.LatencyBuckets, obs.Labels{"stage": st})
	}
	return &metrics{
		reg:               reg,
		queries:           reg.Counter("beas_queries_total", "Query requests carrying a statement.", nil),
		admitted:          adm("admitted"),
		rejectedBudget:    adm("rejected_budget"),
		rejectedUncovered: adm("rejected_uncovered"),
		rejectedBusy:      adm("rejected_busy"),
		downgraded:        adm("downgraded"),
		queued:            adm("queued"),
		canceled:          res("canceled"),
		failed:            res("failed"),
		disconnected:      res("disconnected"),
		rowsStreamed:      reg.Counter("beas_rows_streamed_total", "Result rows delivered on successfully completed streams.", nil),
		rowsAbandoned:     reg.Counter("beas_rows_abandoned_total", "Result rows written to streams that ended in cancel, disconnect or failure.", nil),
		tuplesFetched:     reg.Counter("beas_tuples_fetched_total", "Partial tuples fetched through constraint indices.", nil),
		tuplesScanned:     reg.Counter("beas_tuples_scanned_total", "Base rows read by conventional scans.", nil),
		modeBounded:       mode(string(beas.ModeBounded)),
		modePartial:       mode(string(beas.ModePartial)),
		modeConventional:  mode(string(beas.ModeConventional)),
		modeEmpty:         mode(string(beas.ModeEmpty)),
		boundHist:         reg.Histogram("beas_query_bound_tuples", "Deduced a-priori access bound M per checked query, in tuples.", boundEdges, nil),
		boundUncovered:    reg.Counter("beas_bound_uncovered_total", "Checked queries with no deduced bound (not covered).", nil),
		boundRatio:        reg.Histogram("beas_bound_accuracy_ratio", "Actual fetched tuples / deduced bound M per completed bounded query.", obs.RatioBuckets, nil),
		latency:           reg.Histogram("beas_query_duration_seconds", "End-to-end query latency in seconds.", obs.LatencyBuckets, nil),
		stageCheck:        stage("check"),
		stageExecute:      stage("execute"),
		slowLogged:        reg.Counter("beas_slow_queries_total", "Queries written to the slow-query log.", nil),
		slowWriteErrs:     reg.Counter("beas_slow_log_write_errors_total", "Slow-query log entries lost to write failures.", nil),
	}
}

// observeBound files a checker verdict into the bound histogram.
func (m *metrics) observeBound(info *beas.CheckInfo) {
	if !info.Covered {
		m.boundUncovered.Inc()
		return
	}
	if info.EmptyGuaranteed {
		m.boundHist.Observe(0)
		return
	}
	m.boundHist.Observe(float64(info.Bound))
}

// observeResult folds a finished (or cancelled) execution's statistics
// into the counters. delivered says whether the stream completed and the
// client got every row; rows written to an abandoned stream count
// separately, so the streamed-row counter measures useful work only.
func (m *metrics) observeResult(st *beas.Stats, rows int64, delivered bool) {
	if delivered {
		m.rowsStreamed.Add(rows)
	} else {
		m.rowsAbandoned.Add(rows)
	}
	m.tuplesFetched.Add(st.TuplesFetched)
	m.tuplesScanned.Add(st.TuplesScanned)
	if st.Covered && st.Bound > 0 && st.TuplesFetched > 0 {
		m.boundRatio.Observe(float64(st.TuplesFetched) / float64(st.Bound))
	}
	switch st.Mode {
	case beas.ModeBounded:
		m.modeBounded.Inc()
	case beas.ModePartial:
		m.modePartial.Inc()
	case beas.ModeConventional:
		m.modeConventional.Inc()
	case beas.ModeEmpty:
		m.modeEmpty.Inc()
	}
}

// BoundBucket is one histogram bucket of deduced access bounds.
type BoundBucket struct {
	LE    string `json:"le"` // inclusive upper edge ("+Inf" = overflow)
	Count uint64 `json:"count"`
}

// StatsSnapshot is the JSON shape of the /stats endpoint — a view over
// the same registry /metrics renders.
type StatsSnapshot struct {
	Queries           uint64 `json:"queries"`
	Admitted          uint64 `json:"admitted"`
	RejectedBudget    uint64 `json:"rejectedBudget"`
	RejectedUncovered uint64 `json:"rejectedUncovered"`
	RejectedBusy      uint64 `json:"rejectedBusy"`
	Downgraded        uint64 `json:"downgraded"`
	Queued            uint64 `json:"queued"`
	Canceled          uint64 `json:"canceled"`
	Failed            uint64 `json:"failed"`
	Disconnected      uint64 `json:"disconnected"`

	RowsStreamed  int64 `json:"rowsStreamed"`
	RowsAbandoned int64 `json:"rowsAbandoned"`
	TuplesFetched int64 `json:"tuplesFetched"`
	TuplesScanned int64 `json:"tuplesScanned"`

	Modes map[string]uint64 `json:"modes"`

	// BoundHistogram buckets every checked query by its deduced access
	// bound; BoundUncovered counts queries with no bound at all.
	BoundHistogram []BoundBucket `json:"boundHistogram"`
	BoundUncovered uint64        `json:"boundUncovered"`

	// SlowQueries counts entries written to the slow-query log;
	// SlowLogWriteErrors counts entries lost to failed writes.
	SlowQueries        uint64 `json:"slowQueries"`
	SlowLogWriteErrors uint64 `json:"slowLogWriteErrors"`

	// Digests is present when the served database keeps workload
	// digests; the aggregates themselves live at /digests.
	Digests *DigestsSnapshot `json:"digests,omitempty"`

	// Capture is present when the flight recorder is on.
	Capture *CaptureSnapshot `json:"capture,omitempty"`

	PlanCacheHits   uint64 `json:"planCacheHits"`
	PlanCacheMisses uint64 `json:"planCacheMisses"`

	// ResultCache is the semantic result cache section: the template
	// (plan) tier is always live, the result tier only when enabled.
	ResultCache ResultCacheSnapshot `json:"resultCache"`

	// Optimizer reports the cost-based optimizer's setting and the
	// statistics catalog it plans with.
	Optimizer OptimizerSnapshot `json:"optimizer"`

	// Durability is present when the served database is backed by the
	// WAL + snapshot storage engine.
	Durability *DurabilitySnapshot `json:"durability,omitempty"`
}

// ResultCacheSnapshot is the semantic-result-cache section of /stats.
type ResultCacheSnapshot struct {
	Enabled       bool   `json:"enabled"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Stores        uint64 `json:"stores"`
	Patches       uint64 `json:"patches"`
	Invalidations uint64 `json:"invalidations"`
	Evictions     uint64 `json:"evictions"`
	Entries       int    `json:"entries"`
	Bytes         int64  `json:"bytes"`
	TemplateBytes int64  `json:"templateBytes"`
}

// OptimizerSnapshot is the optimizer + statistics section of /stats.
type OptimizerSnapshot struct {
	Enabled bool `json:"enabled"`
	// Tables and Constraints dump the statistics catalog: exact row
	// counts and the live per-constraint fan-out distributions
	// (declared worst-case bound N next to the observed mean/p50/p95/max).
	Tables      []TableStatsJSON      `json:"tables"`
	Constraints []ConstraintStatsJSON `json:"constraints"`
}

// TableStatsJSON is one table of the statistics-catalog dump.
type TableStatsJSON struct {
	Name string `json:"name"`
	Rows int    `json:"rows"`
}

// ConstraintStatsJSON is one constraint of the statistics-catalog dump.
type ConstraintStatsJSON struct {
	Spec         string  `json:"spec"`
	Bound        int     `json:"bound"`
	DistinctKeys int64   `json:"distinctKeys"`
	Tuples       int64   `json:"tuples"`
	MeanFanout   float64 `json:"meanFanout"`
	P50Fanout    int     `json:"p50Fanout"`
	P95Fanout    int     `json:"p95Fanout"`
	MaxFanout    int     `json:"maxFanout"`
}

// DigestsSnapshot is the workload-digest section of /stats.
type DigestsSnapshot struct {
	Entries        int     `json:"entries"`
	Observations   uint64  `json:"observations"`
	Evictions      uint64  `json:"evictions"`
	DriftThreshold float64 `json:"driftThreshold"`
	DriftFlagged   int     `json:"driftFlagged"`
}

// CaptureSnapshot is the flight-recorder section of /stats.
type CaptureSnapshot struct {
	Dir         string `json:"dir"`
	Records     uint64 `json:"records"`
	Bytes       int64  `json:"bytes"`
	Segments    int    `json:"segments"`
	Rotations   uint64 `json:"rotations"`
	WriteErrors uint64 `json:"writeErrors"`
}

// DurabilitySnapshot is the storage-engine section of /stats.
type DurabilitySnapshot struct {
	Dir                  string  `json:"dir"`
	WALBytes             int64   `json:"walBytes"`
	LastLSN              uint64  `json:"lastLSN"`
	SnapshotLSN          uint64  `json:"snapshotLSN"`
	RecordsSinceSnapshot int     `json:"recordsSinceSnapshot"`
	Snapshots            uint64  `json:"snapshots"`
	LastSnapshotAgeSec   float64 `json:"lastSnapshotAgeSeconds,omitempty"`
	RecoveryReplayed     int     `json:"recoveryReplayedRecords"`
	RecoveryDurationMS   float64 `json:"recoveryDurationMs"`
	RecoveryTornBytes    int64   `json:"recoveryTruncatedBytes"`
	RecoveryConforms     bool    `json:"recoveryConforms"`
}

func cval(c *obs.Counter) uint64 { return uint64(c.Value()) }

// snapshot captures the counters. db supplies the plan-cache numbers.
func (m *metrics) snapshot(db *beas.DB) StatsSnapshot {
	s := StatsSnapshot{
		Queries:           cval(m.queries),
		Admitted:          cval(m.admitted),
		RejectedBudget:    cval(m.rejectedBudget),
		RejectedUncovered: cval(m.rejectedUncovered),
		RejectedBusy:      cval(m.rejectedBusy),
		Downgraded:        cval(m.downgraded),
		Queued:            cval(m.queued),
		Canceled:          cval(m.canceled),
		Failed:            cval(m.failed),
		Disconnected:      cval(m.disconnected),
		RowsStreamed:      m.rowsStreamed.Value(),
		RowsAbandoned:     m.rowsAbandoned.Value(),
		TuplesFetched:     m.tuplesFetched.Value(),
		TuplesScanned:     m.tuplesScanned.Value(),
		Modes: map[string]uint64{
			string(beas.ModeBounded):      cval(m.modeBounded),
			string(beas.ModePartial):      cval(m.modePartial),
			string(beas.ModeConventional): cval(m.modeConventional),
			string(beas.ModeEmpty):        cval(m.modeEmpty),
		},
		BoundUncovered:     cval(m.boundUncovered),
		SlowQueries:        cval(m.slowLogged),
		SlowLogWriteErrors: cval(m.slowWriteErrs),
	}
	if d := db.Digests(); d != nil {
		s.Digests = &DigestsSnapshot{
			Entries:        d.Len(),
			Observations:   d.Observations(),
			Evictions:      d.Evictions(),
			DriftThreshold: d.DriftThreshold(),
			DriftFlagged:   d.DriftCount(),
		}
	}
	s.PlanCacheHits, s.PlanCacheMisses = db.PlanCacheStats()
	rc := db.ResultCacheStats()
	s.ResultCache = ResultCacheSnapshot{
		Enabled:       db.ResultCacheEnabled(),
		Hits:          rc.Hits,
		Misses:        rc.Misses,
		Stores:        rc.Stores,
		Patches:       rc.Patches,
		Invalidations: rc.Invalidations,
		Evictions:     rc.Evictions,
		Entries:       rc.Entries,
		Bytes:         rc.Bytes,
		TemplateBytes: rc.TemplateBytes,
	}
	s.Optimizer.Enabled = db.OptimizerEnabled()
	tables, cons := db.DataStats()
	for _, t := range tables {
		s.Optimizer.Tables = append(s.Optimizer.Tables, TableStatsJSON{Name: t.Name, Rows: t.Rows})
	}
	for _, c := range cons {
		s.Optimizer.Constraints = append(s.Optimizer.Constraints, ConstraintStatsJSON{
			Spec:         c.Spec,
			Bound:        c.Bound,
			DistinctKeys: c.DistinctKeys,
			Tuples:       c.Tuples,
			MeanFanout:   c.MeanFanout,
			P50Fanout:    c.P50Fanout,
			P95Fanout:    c.P95Fanout,
			MaxFanout:    c.MaxFanout,
		})
	}
	buckets := m.boundHist.Buckets()
	s.BoundHistogram = make([]BoundBucket, len(boundLabels))
	for i, l := range boundLabels {
		s.BoundHistogram[i] = BoundBucket{LE: l, Count: uint64(buckets[i])}
	}
	if d := db.Durability(); d.Durable {
		ds := &DurabilitySnapshot{
			Dir:                  d.Dir,
			WALBytes:             d.WALBytes,
			LastLSN:              d.LastLSN,
			SnapshotLSN:          d.SnapshotLSN,
			RecordsSinceSnapshot: d.RecordsSinceSnapshot,
			Snapshots:            d.Snapshots,
			RecoveryReplayed:     d.Recovery.ReplayedRecords,
			RecoveryDurationMS:   float64(d.Recovery.Duration) / float64(time.Millisecond),
			RecoveryTornBytes:    d.Recovery.TruncatedBytes,
			RecoveryConforms:     d.Recovery.Conforms,
		}
		if !d.LastSnapshot.IsZero() {
			ds.LastSnapshotAgeSec = time.Since(d.LastSnapshot).Seconds()
		}
		s.Durability = ds
	}
	return s
}
