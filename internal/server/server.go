// Package server is BEAS's concurrent query service: an HTTP/JSON front
// end over a shared *beas.DB that executes queries through a bounded
// worker pool and streams result rows as NDJSON. A response is flushed
// one row batch behind the executor: batch k goes out once batch k+1
// exists. A one-batch answer is never flushed, so when it fits
// net/http's 2 KiB response buffer it leaves in a single write with a
// Content-Length; a longer answer streams.
//
// Its defining feature is bound-based admission control. BEAS deduces
// the access bound of a query — how many tuples a bounded plan may fetch
// — from the query and the access schema alone, before touching a single
// tuple. The server runs that check on every request and compares the
// bound against a configurable budget: an over-budget query is, by
// policy, rejected up front (with the bound in the error, so the client
// knows exactly why), serialised through a single-slot heavy lane so it
// cannot crowd out covered traffic, or downgraded to resource-bounded
// approximation under a fetch budget with a deterministic accuracy
// guarantee. No other admission-control signal offers this: the cost
// estimate is an a-priori guarantee, not a heuristic.
//
// Endpoints:
//
//	POST /query   {"sql": "SELECT ..."}  → NDJSON stream: a header line
//	              (columns, admission verdict, deduced bound), one line
//	              of rows per batch, and a stats trailer or an error
//	              line.
//	POST /check   {"sql": "SELECT ..."}  → the BE Checker's verdict and
//	              the admission decision, without executing anything.
//	POST /explain {"sql": "SELECT ...", "analyze": bool} → the plan with
//	              per-step constraints, worst-case bounds and optimizer
//	              estimates; with analyze the query executes (through
//	              admission control) and each step reports estimated vs
//	              actual keys, fetches and rows.
//	GET  /stats   → counters, evaluation-mode totals, the deduced-bound
//	              histogram, plan-cache hit rates, and the optimizer +
//	              statistics-catalog section (a JSON view over /metrics).
//	GET  /metrics → the same registry in Prometheus text exposition:
//	              latency and bound-accuracy histograms, admission and
//	              outcome counters, WAL fsync latency, worker occupancy
//	              and Go runtime stats.
//	GET  /trace/  → recent retained query traces; /trace/<id> renders one
//	              span tree (parse → check → optimize → fetch steps →
//	              stream, with estimated-vs-actual counters).
//	GET  /healthz → liveness plus row/constraint counts, uptime, WAL LSN
//	              and last-snapshot age.
//
// Request bodies are read up to 1 MiB; a larger one is answered 413.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"

	beas "github.com/bounded-eval/beas"
	"github.com/bounded-eval/beas/internal/obs"
	"github.com/bounded-eval/beas/internal/value"
)

// Policy says what happens to a covered query whose deduced access bound
// exceeds the configured budget.
type Policy string

// Admission policies for over-budget queries.
const (
	// PolicyReject refuses the query up front with HTTP 422; the response
	// reports the deduced bound and the budget. Nothing is executed.
	PolicyReject Policy = "reject"
	// PolicyQueue admits the query but serialises it through a
	// single-slot heavy lane, so at most one over-budget query runs at a
	// time and covered traffic keeps its workers.
	PolicyQueue Policy = "queue"
	// PolicyApprox downgrades the query to resource-bounded approximation
	// under Config.ApproxBudget; the stats trailer carries the
	// deterministic accuracy lower bound.
	PolicyApprox Policy = "approx"
)

// ParsePolicy converts a policy name (as used in flags and configs).
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case PolicyReject, PolicyQueue, PolicyApprox:
		return Policy(s), nil
	case "":
		return PolicyReject, nil
	default:
		return "", fmt.Errorf("server: unknown admission policy %q (want reject, queue or approx)", s)
	}
}

// Config tunes the service.
type Config struct {
	// MaxConcurrent bounds the number of queries executing at once
	// (default: GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth bounds how many admitted requests may wait for a worker
	// slot before the server answers 503 (default 64).
	QueueDepth int
	// BoundBudget is the admission budget on the deduced access bound, in
	// tuples; 0 means unlimited. Covered queries whose bound exceeds it
	// are handled per OverBudget.
	BoundBudget uint64
	// OverBudget is the policy for covered queries over the budget
	// (default PolicyReject).
	OverBudget Policy
	// AllowUncovered admits queries the access schema does not cover;
	// they run partially bounded or conventionally, with no a-priori
	// bound. Off by default: an uncovered query is rejected with the
	// checker's reason.
	AllowUncovered bool
	// ApproxBudget is the fetch budget for PolicyApprox downgrades
	// (default: BoundBudget, saturating at MaxInt64).
	ApproxBudget int64
	// QueryTimeout caps each query's execution; 0 means no deadline.
	//
	// Think carefully before running a public-facing server without one:
	// a streaming cursor holds the database's catalog read lock until it
	// is closed, so a client that accepts the connection and then stops
	// reading pins the lock via TCP backpressure. Once a DDL writer
	// queues behind it, new readers queue behind the writer — a single
	// stalled client can wedge the service for as long as it stalls.
	// The timeout bounds that exposure (cmd/beasd defaults to 1m).
	QueryTimeout time.Duration

	// Metrics is the registry /metrics renders and /stats reads. nil
	// creates a private one. The server registers its own counters, the
	// database's instrumentation (plan cache, WAL) and Go runtime gauges
	// on it; sharing one registry between servers merges their series.
	Metrics *obs.Registry
	// Tracer samples query-lifecycle traces. nil disables tracing: no
	// spans are recorded, /trace answers 404 and responses carry no
	// X-Beas-Trace-Id header.
	Tracer *obs.Tracer
	// SlowQueryLog, when non-nil, receives a JSON line for every query
	// whose latency or fetch volume crosses its thresholds.
	SlowQueryLog *obs.SlowLog
	// Capture, when non-nil, is the query flight recorder: every
	// executed /query (and downgraded approximation) appends one
	// JSON-lines record — fingerprint, parameter vector, admission,
	// mode, bound, row count and row hash — replayable with beasreplay.
	Capture *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.OverBudget == "" {
		c.OverBudget = PolicyReject
	}
	if c.ApproxBudget <= 0 {
		if c.BoundBudget > 0 && c.BoundBudget <= uint64(1<<62) {
			c.ApproxBudget = int64(c.BoundBudget)
		} else {
			c.ApproxBudget = 1 << 62
		}
	}
	return c
}

// Server serves queries over one shared database.
type Server struct {
	db  *beas.DB
	cfg Config

	sem     chan struct{} // worker pool: one token per executing query
	heavy   chan struct{} // single-slot lane for PolicyQueue admissions
	waiting chan struct{} // bounds the wait queue for worker slots

	m       *metrics
	tracer  *obs.Tracer   // nil = tracing off
	slow    *obs.SlowLog  // nil = no slow-query log
	capture *obs.Recorder // nil = no flight recorder
	start   time.Time
	mux     *http.ServeMux

	// afterAdmit, set only by tests, runs between a statement's admission
	// and its execution: the window in which a DDL can make it stale.
	afterAdmit func()
}

// New creates a Server over db. The database may be shared with other
// users; the server only takes read locks (queries) on it — but it does
// wire the database's instrumentation (plan-cache, WAL) into its metrics
// registry, so /metrics covers the full query lifecycle.
func New(db *beas.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		db:      db,
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		heavy:   make(chan struct{}, 1),
		waiting: make(chan struct{}, cfg.QueueDepth),
		m:       newMetrics(reg),
		tracer:  cfg.Tracer,
		slow:    cfg.SlowQueryLog,
		capture: cfg.Capture,
		start:   time.Now(),
	}
	s.slow.SetLogged(s.m.slowLogged)
	s.slow.SetWriteErrors(s.m.slowWriteErrs)
	if s.capture != nil {
		reg.CounterFunc("beas_capture_records_total", "Queries appended to the flight-recorder capture log.", nil, func() int64 {
			return int64(s.capture.Stats().Records)
		})
		reg.CounterFunc("beas_capture_write_errors_total", "Capture-log writes that failed (records dropped).", nil, func() int64 {
			return int64(s.capture.Stats().WriteErrors)
		})
		reg.GaugeFunc("beas_capture_segments", "Capture-log segment files currently retained.", nil, func() float64 {
			return float64(s.capture.Stats().Segments)
		})
		reg.GaugeFunc("beas_capture_bytes", "Bytes written across live capture-log segments.", nil, func() float64 {
			return float64(s.capture.Stats().Bytes)
		})
	}
	db.SetMetrics(reg)
	reg.RegisterGoRuntime()
	reg.GaugeFunc("beas_workers_busy", "Queries currently holding a worker slot.", nil, func() float64 {
		return float64(len(s.sem))
	})
	reg.GaugeFunc("beas_workers_max", "Size of the worker pool.", nil, func() float64 {
		return float64(cfg.MaxConcurrent)
	})
	reg.GaugeFunc("beas_queue_waiting", "Admitted requests waiting for a worker slot.", nil, func() float64 {
		return float64(len(s.waiting))
	})
	reg.GaugeFunc("beas_heavy_lane_busy", "Whether the single-slot heavy lane is occupied (0 or 1).", nil, func() float64 {
		return float64(len(s.heavy))
	})
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/check", s.handleCheck)
	s.mux.HandleFunc("/explain", s.handleExplain)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/trace", s.handleTrace)
	s.mux.HandleFunc("/trace/", s.handleTrace)
	s.mux.HandleFunc("/digests", s.handleDigests)
	s.mux.HandleFunc("/digests/", s.handleDigests)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// Registry returns the metrics registry /metrics renders.
func (s *Server) Registry() *obs.Registry { return s.m.reg }

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats snapshots the server's counters.
func (s *Server) Stats() StatsSnapshot {
	snap := s.m.snapshot(s.db)
	if s.capture != nil {
		cs := s.capture.Stats()
		snap.Capture = &CaptureSnapshot{
			Dir:         cs.Dir,
			Records:     cs.Records,
			Bytes:       cs.Bytes,
			Segments:    cs.Segments,
			Rotations:   cs.Rotations,
			WriteErrors: cs.WriteErrors,
		}
	}
	return snap
}

// decision is the admission verdict for one request.
type decision string

const (
	decideAdmit           decision = "admitted"
	decideQueue           decision = "queued"
	decideDowngrade       decision = "downgraded"
	decideReject          decision = "rejected-budget"
	decideRejectUncovered decision = "rejected-uncovered"
)

// admit applies the admission policy to a checker verdict. It inspects
// no data — only the deduced bound.
func (s *Server) admit(info *beas.CheckInfo) decision {
	if info.EmptyGuaranteed {
		return decideAdmit // the empty answer is free, whatever the budget
	}
	if !info.Covered {
		if s.cfg.AllowUncovered {
			return decideAdmit
		}
		return decideRejectUncovered
	}
	if s.cfg.BoundBudget == 0 || info.Bound <= s.cfg.BoundBudget {
		return decideAdmit
	}
	switch s.cfg.OverBudget {
	case PolicyApprox:
		return decideDowngrade
	case PolicyQueue:
		return decideQueue
	default:
		return decideReject
	}
}

// errBusy reports a full worker pool and wait queue.
var errBusy = errors.New("server: all workers busy and wait queue full")

// acquire takes a worker slot, waiting in the bounded queue when the
// pool is full. It fails fast with errBusy when the queue is full too,
// and honours ctx while waiting.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	select {
	case s.waiting <- struct{}{}:
	default:
		return errBusy
	}
	defer func() { <-s.waiting }()
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() { <-s.sem }

// queryRequest is the JSON body of /query and /check.
type queryRequest struct {
	SQL string `json:"sql"`
}

// readSQL extracts the statement from a "q" parameter or a JSON body.
func readSQL(w http.ResponseWriter, r *http.Request) (string, error) {
	if r.URL.RawQuery != "" {
		if q := r.URL.Query().Get("q"); q != "" {
			return q, nil
		}
	}
	var req queryRequest
	if err := decodeBody(w, r, &req); err != nil {
		return "", err
	}
	if req.SQL == "" {
		return "", errors.New("empty sql")
	}
	return req.SQL, nil
}

// maxBodyBytes caps a request body; a larger one is answered 413.
const maxBodyBytes = 1 << 20

// decodeBody unmarshals r's JSON body into v. The body is read through a
// maxBodyBytes limit into a pooled buffer; an over-limit body yields an
// error wrapping *http.MaxBytesError (see requestErrorStatus).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	if r.Body == nil {
		return errors.New("missing query")
	}
	bp := getBuf()
	defer putBuf(bp)
	buf := bytes.NewBuffer(*bp)
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	*bp = buf.Bytes()
	if err != nil {
		return fmt.Errorf("reading request body: %w", err)
	}
	if err := json.Unmarshal(*bp, v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

// requestErrorStatus is the status for a request that could not be read:
// 413 for a body over maxBodyBytes, 400 otherwise.
func requestErrorStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// errorResponse is the JSON shape of every non-streaming error.
type errorResponse struct {
	Error string `json:"error"`
	// Bound and Budget are set on admission rejections, so the client
	// sees exactly how far over budget the query was — before anything
	// was executed.
	Bound  uint64 `json:"bound,omitempty"`
	Budget uint64 `json:"budget,omitempty"`
	Reason string `json:"reason,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// queryHeader is the first NDJSON line of a /query response.
type queryHeader struct {
	Columns   []string `json:"columns"`
	Admission string   `json:"admission"`
	Covered   bool     `json:"covered"`
	// Bound is the deduced access bound (covered queries only).
	Bound uint64 `json:"bound,omitempty"`
}

// stepJSON is the per-fetch-step breakdown in the stats trailer.
type stepJSON struct {
	Atom        string `json:"atom"`
	Constraint  string `json:"constraint"`
	DistinctKey int64  `json:"distinctKeys"`
	Fetched     int64  `json:"fetched"`
	RowsOut     int64  `json:"rowsOut"`
}

// statsJSON is the trailer of a /query stream.
type statsJSON struct {
	Mode            string     `json:"mode"`
	Rows            int64      `json:"rows"`
	Bound           uint64     `json:"bound,omitempty"`
	ConstraintsUsed int        `json:"constraintsUsed,omitempty"`
	TuplesFetched   int64      `json:"tuplesFetched"`
	TuplesScanned   int64      `json:"tuplesScanned,omitempty"`
	FetchSteps      []stepJSON `json:"fetchSteps,omitempty"`
	DurationMS      float64    `json:"durationMs"`
	// Coverage is the deterministic accuracy lower bound of a downgraded
	// (approximated) query; 1 means the answer is exact.
	Coverage float64 `json:"coverage,omitempty"`
	// CacheHit marks an answer served from the semantic result cache.
	CacheHit bool `json:"cacheHit,omitempty"`
}

func statsFrom(st *beas.Stats, rows int64) statsJSON {
	out := statsJSON{
		Mode:            string(st.Mode),
		Rows:            rows,
		Bound:           st.Bound,
		ConstraintsUsed: st.ConstraintsUsed,
		TuplesFetched:   st.TuplesFetched,
		TuplesScanned:   st.TuplesScanned,
		DurationMS:      float64(st.Duration) / float64(time.Millisecond),
		CacheHit:        st.CacheHit,
	}
	for _, s := range st.FetchSteps {
		out.FetchSteps = append(out.FetchSteps, stepJSON{
			Atom:        s.Atom,
			Constraint:  s.Constraint,
			DistinctKey: s.DistinctKey,
			Fetched:     s.Fetched,
			RowsOut:     s.RowsOut,
		})
	}
	return out
}

// jsonRow converts a result row to JSON-native values.
func jsonRow(r beas.Row) []any {
	out := make([]any, len(r))
	for i, v := range r {
		switch v.K {
		case value.Int:
			out[i] = v.I
		case value.Float:
			out[i] = v.F
		case value.String:
			out[i] = v.S
		case value.Bool:
			out[i] = v.I != 0
		default:
			out[i] = nil
		}
	}
	return out
}

// chunkOutcome classifies a failed row-chunk write. An unencodable value
// fails the query. Any other error is a write error: the client is gone.
// With the request context already cancelled that is a deliberate
// cancellation (client cancel, deadline) reported through the
// connection; with a live context it is a plain disconnect.
func chunkOutcome(ctx context.Context, err error) string {
	var bad *unencodableError
	switch {
	case errors.As(err, &bad):
		return outcomeFailed
	case ctx.Err() != nil:
		return outcomeCanceled
	default:
		return outcomeDisconnected
	}
}

func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// traceRequest starts a trace for one request (no-op without a tracer)
// and advertises its ID to the client before the response body starts.
// The database reuses a trace it finds on the context, so the handler
// owns the trace's lifecycle and must Finish it.
func (s *Server) traceRequest(ctx context.Context, w http.ResponseWriter, name, sql string) (context.Context, *obs.Trace) {
	tr := s.tracer.StartTrace(name, obs.Attr{Key: "sql", Val: sql})
	if tr == nil {
		return ctx, nil
	}
	w.Header().Set("X-Beas-Trace-Id", tr.ID)
	return obs.With(ctx, tr, tr.Root()), tr
}

// Terminal outcomes of an executed query, as counted by
// beas_query_results_total and reported in the slow-query log.
const (
	outcomeOK           = "ok"
	outcomeCanceled     = "canceled"     // context cancelled or deadline hit
	outcomeFailed       = "failed"       // execution error
	outcomeDisconnected = "disconnected" // client stopped reading mid-stream
)

// finishQuery folds one terminal execution outcome into the counters,
// the slow-query log and the trace retention policy. Rows that reached a
// client which then vanished are accounted separately from delivered
// rows; slow or non-ok queries force their trace into the ring.
func (s *Server) finishQuery(sql, outcome string, st *beas.Stats, rows int64, start time.Time, tr *obs.Trace) {
	d := time.Since(start)
	s.m.observeResult(st, rows, outcome == outcomeOK)
	switch outcome {
	case outcomeCanceled:
		s.m.canceled.Inc()
	case outcomeFailed:
		s.m.failed.Inc()
	case outcomeDisconnected:
		s.m.disconnected.Inc()
	}
	if outcome != outcomeOK {
		tr.ForceKeep()
	}
	if !s.slow.Qualifies(d, st.TuplesFetched) {
		return
	}
	tr.ForceKeep()
	e := obs.SlowEntry{
		SQL:         sql,
		Fingerprint: st.Fingerprint,
		Mode:        string(st.Mode),
		Outcome:     outcome,
		CacheHit:    st.CacheHit,
		Bound:       st.Bound,
		Fetched:     st.TuplesFetched,
		Scanned:     st.TuplesScanned,
		Rows:        rows,
		DurationMS:  float64(d) / float64(time.Millisecond),
	}
	if tr != nil {
		e.TraceID = tr.ID
	}
	for _, fs := range st.FetchSteps {
		e.Steps = append(e.Steps, obs.SlowStep{
			Atom:       fs.Atom,
			Constraint: fs.Constraint,
			KeyBound:   fs.KeyBound,
			OutBound:   fs.OutBound,
			EstKeys:    fs.EstKeys,
			EstFetched: fs.EstFetched,
			Keys:       fs.DistinctKey,
			Fetched:    fs.Fetched,
			Rows:       fs.RowsOut,
			DurationMS: float64(fs.Duration) / float64(time.Millisecond),
		})
	}
	s.slow.Observe(e)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// The trace starts before the request is even validated, so every
	// response — malformed bodies and admission rejections included —
	// carries the X-Beas-Trace-Id header when tracing is on.
	sql, rerr := readSQL(w, r)
	ctx := r.Context()
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	start := time.Now()
	ctx, tr := s.traceRequest(ctx, w, "query", sql)
	defer s.tracer.Finish(tr)
	if rerr != nil {
		tr.ForceKeep()
		writeJSON(w, requestErrorStatus(rerr), errorResponse{Error: rerr.Error()})
		return
	}
	defer func() { s.m.latency.Observe(time.Since(start).Seconds()) }()
	s.m.queries.Add(1)
	// A statement that went stale between admission and execution has
	// run nothing and written nothing: it re-enters admission once.
	if s.admitQuery(ctx, w, sql, start, tr) && s.admitQuery(ctx, w, sql, start, tr) {
		s.failStale(w, tr)
	}
}

// admitQuery prepares sql, decides admission on the prepared verdict and
// executes that same statement, so the bound the client is told is the
// bound of the plan that runs. It reports stale, with nothing written,
// when a catalog or settings change landed between the two.
func (s *Server) admitQuery(ctx context.Context, w http.ResponseWriter, sql string, start time.Time, tr *obs.Trace) (stale bool) {
	// Admission: the checker deduces the access bound without executing
	// anything, so rejection costs zero data access.
	c0 := time.Now()
	stmt, err := s.db.PrepareContext(ctx, sql)
	s.m.stageCheck.Observe(time.Since(c0).Seconds())
	if err != nil {
		tr.ForceKeep()
		if canceled(err) {
			s.m.canceled.Add(1)
		} else {
			s.m.failed.Add(1) // parse/analysis error
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return false
	}
	info := stmt.CheckInfo()
	s.m.observeBound(info)
	dec := s.admit(info)
	if tr != nil {
		// Rejected queries are always retained: the trace shows the check
		// that produced the over-budget bound, which is the whole story.
		if dec == decideReject || dec == decideRejectUncovered {
			tr.ForceKeep()
		}
		tr.AddSpan(tr.Root(), "admission", c0, time.Since(c0),
			obs.Attr{Key: "decision", Val: string(dec)},
			obs.Attr{Key: "covered", Val: info.Covered},
			obs.Attr{Key: "bound", Val: info.Bound},
		)
	}
	release, ok := s.gate(ctx, w, info, dec, "query")
	if !ok {
		return false
	}
	defer release()
	if s.afterAdmit != nil {
		s.afterAdmit()
	}

	e0 := time.Now()
	defer func() { s.m.stageExecute.Observe(time.Since(e0).Seconds()) }()
	if dec == decideDowngrade {
		return s.streamApprox(ctx, w, stmt, info, start, tr)
	}
	return s.streamQuery(ctx, w, stmt, dec, start, tr)
}

// failOpen answers a statement that failed before its response started;
// a stale statement is left unanswered for the caller to re-admit.
func (s *Server) failOpen(w http.ResponseWriter, err error, tr *obs.Trace) (stale bool) {
	if errors.Is(err, beas.ErrStmtStale) {
		return true
	}
	tr.ForceKeep()
	if canceled(err) {
		s.m.canceled.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	} else {
		s.m.failed.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	}
	return false
}

// failStale answers a statement whose re-admission went stale as well:
// the catalog is changing faster than the request can be admitted.
func (s *Server) failStale(w http.ResponseWriter, tr *obs.Trace) {
	tr.ForceKeep()
	s.m.failed.Add(1)
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "access schema or settings changed during admission, twice; retry"})
}

// gate enforces an admission decision's control flow for an executing
// endpoint: rejections are answered here, queued statements wait in the
// single-slot heavy lane (over-budget queries contend only with each
// other there, then take a normal worker slot like everyone else), and
// a worker slot is acquired. On ok the caller must defer release();
// otherwise the response has been written. Downgrade handling is the
// caller's (approximation on /query; /explain maps it to a rejection
// before calling).
func (s *Server) gate(ctx context.Context, w http.ResponseWriter, info *beas.CheckInfo, dec decision, verb string) (release func(), ok bool) {
	switch dec {
	case decideReject:
		s.m.rejectedBudget.Add(1)
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{
			Error:  fmt.Sprintf("%s rejected: deduced access bound %d exceeds budget %d", verb, info.Bound, s.cfg.BoundBudget),
			Bound:  info.Bound,
			Budget: s.cfg.BoundBudget,
		})
		return nil, false
	case decideRejectUncovered:
		s.m.rejectedUncovered.Add(1)
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{
			Error:  verb + " rejected: not covered by the access schema",
			Reason: info.Reason,
		})
		return nil, false
	case decideQueue:
		s.m.queued.Add(1)
		select {
		case s.heavy <- struct{}{}:
		case <-ctx.Done():
			s.m.canceled.Add(1)
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: ctx.Err().Error()})
			return nil, false
		}
		if err := s.acquire(ctx); err != nil {
			<-s.heavy
			s.failAcquire(w, err)
			return nil, false
		}
		return func() { s.release(); <-s.heavy }, true
	}
	if err := s.acquire(ctx); err != nil {
		s.failAcquire(w, err)
		return nil, false
	}
	return s.release, true
}

// failAcquire answers a failed worker-slot acquisition.
func (s *Server) failAcquire(w http.ResponseWriter, err error) {
	if errors.Is(err, errBusy) {
		s.m.rejectedBusy.Add(1)
		w.Header().Set("Retry-After", "1")
	} else {
		s.m.canceled.Add(1)
	}
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
}

// streamQuery executes the admitted statement through a streaming
// cursor and writes the NDJSON response: header, row chunks, stats
// trailer. start is when the request began (for latency-based slow-query
// logging) and tr its trace (nil when tracing is off).
func (s *Server) streamQuery(ctx context.Context, w http.ResponseWriter, stmt *beas.Stmt, dec decision, start time.Time, tr *obs.Trace) (stale bool) {
	sql := stmt.SQL()
	ri, err := stmt.QueryIterContext(ctx)
	if err != nil {
		return s.failOpen(w, err, tr)
	}
	defer ri.Close()
	st := ri.Stats()
	s.m.admitted.Add(1)

	// Surface the semantic-result-cache outcome before the body starts:
	// a hit streams the materialized answer without re-executing.
	switch {
	case !s.db.ResultCacheEnabled():
		w.Header().Set("X-Beas-Cache", "off")
	case st.CacheHit:
		w.Header().Set("X-Beas-Cache", "hit")
	default:
		w.Header().Set("X-Beas-Cache", "miss")
	}

	out := newNDJSON(w)
	defer out.close()
	out.header(queryHeader{Columns: ri.Columns(), Admission: string(dec), Covered: st.Covered, Bound: st.Bound})

	var hasher *obs.RowHash
	if s.capture != nil {
		hasher = obs.NewRowHash()
	}
	var rows int64
	batch, err := ri.NextBatch()
	for batch != nil {
		if err := out.chunk(batch, hasher); err != nil {
			// Stop pulling rows nobody will see.
			ri.Close()
			outcome := chunkOutcome(ctx, err)
			if outcome != outcomeFailed {
				// The batch went to a client that is gone: the rows written
				// so far were never delivered in full and count as abandoned.
				rows += int64(len(batch))
			}
			s.finishQuery(sql, outcome, ri.Stats(), rows, start, tr)
			s.captureQuery(sql, string(dec), outcome, ri.Stats(), rows, hasher, 0, start, tr)
			if outcome == outcomeFailed {
				out.fail(err)
			}
			return false
		}
		rows += int64(len(batch))
		// Chunk k is flushed only once batch k+1 exists: a one-batch answer
		// is never flushed, and a longer one streams one batch behind the
		// executor.
		batch, err = ri.NextBatch()
		if batch != nil {
			out.flush()
		}
	}
	if err != nil {
		// Fold the partial execution stats in before flagging the
		// outcome, so a /stats reader that sees the canceled/failed tick
		// also sees the work that preceded it.
		ri.Close()
		outcome := outcomeFailed
		if canceled(err) {
			outcome = outcomeCanceled
		}
		s.finishQuery(sql, outcome, ri.Stats(), rows, start, tr)
		s.captureQuery(sql, string(dec), outcome, ri.Stats(), rows, hasher, 0, start, tr)
		out.fail(err)
		return false
	}
	ri.Close()
	s.finishQuery(sql, outcomeOK, ri.Stats(), rows, start, tr)
	s.captureQuery(sql, string(dec), outcomeOK, ri.Stats(), rows, hasher, 0, start, tr)
	out.trailer(statsFrom(ri.Stats(), rows))
	return false
}

// captureQuery appends one flight-recorder line for a terminal query
// outcome. The parameter vector comes from the statement's canonical
// form (a template-cache hit at this point); the row hash covers the
// rows as serialized on the wire, so a replay diff detects any change
// in content, order or encoding.
func (s *Server) captureQuery(sql, admission, outcome string, st *beas.Stats, rows int64, hasher *obs.RowHash, coverage float64, start time.Time, tr *obs.Trace) {
	if s.capture == nil {
		return
	}
	rec := obs.CaptureRecord{
		SQL:         sql,
		Fingerprint: st.Fingerprint,
		Admission:   admission,
		Mode:        string(st.Mode),
		Outcome:     outcome,
		Bound:       st.Bound,
		Rows:        rows,
		Fetched:     st.TuplesFetched,
		Scanned:     st.TuplesScanned,
		CacheHit:    st.CacheHit,
		Coverage:    coverage,
		DurationMS:  float64(time.Since(start)) / float64(time.Millisecond),
	}
	if hasher != nil {
		rec.RowsHash = hasher.Sum()
	}
	if tr != nil {
		rec.TraceID = tr.ID
	}
	for _, fs := range st.FetchSteps {
		rec.Constraints = append(rec.Constraints, fs.Atom+"="+fs.Constraint)
		rec.EstFetched += fs.EstFetched
	}
	if _, params, err := s.db.Canonicalize(sql); err == nil && len(params) > 0 {
		rec.Params = jsonRow(beas.Row(params))
	}
	s.capture.Record(rec)
}

// streamApprox executes a downgraded statement under the approximation
// budget and writes the same NDJSON shape, with the accuracy lower bound
// in the trailer.
func (s *Server) streamApprox(ctx context.Context, w http.ResponseWriter, stmt *beas.Stmt, info *beas.CheckInfo, start time.Time, tr *obs.Trace) (stale bool) {
	sql := stmt.SQL()
	res, coverage, err := stmt.QueryApproxContext(ctx, s.cfg.ApproxBudget)
	if err != nil {
		return s.failOpen(w, err, tr)
	}
	s.m.admitted.Add(1)
	s.m.downgraded.Add(1)
	// All rows are in hand, so nothing is flushed: the response leaves as
	// net/http's buffer fills and when the handler returns.
	out := newNDJSON(w)
	defer out.close()
	out.header(queryHeader{Columns: res.Columns, Admission: string(decideDowngrade), Covered: true, Bound: info.Bound})
	var hasher *obs.RowHash
	if s.capture != nil {
		hasher = obs.NewRowHash()
	}
	for i := 0; i < len(res.Rows); i += 256 {
		end := min(i+256, len(res.Rows))
		if err := out.chunk(res.Rows[i:end], hasher); err != nil {
			outcome := chunkOutcome(ctx, err)
			s.finishQuery(sql, outcome, &res.Stats, int64(i), start, tr)
			s.captureQuery(sql, string(decideDowngrade), outcome, &res.Stats, int64(i), hasher, coverage, start, tr)
			if outcome == outcomeFailed {
				out.fail(err)
			}
			return false
		}
	}
	s.finishQuery(sql, outcomeOK, &res.Stats, int64(len(res.Rows)), start, tr)
	// An approximated answer is not an exact baseline: record it with
	// its coverage so a replay can tell it apart from exact results
	// (replays only diff coverage-1.0 "approx-ok" records byte-exactly).
	approxOutcome := outcomeOK
	if coverage < 1 {
		approxOutcome = "approx"
	}
	s.captureQuery(sql, string(decideDowngrade), approxOutcome, &res.Stats, int64(len(res.Rows)), hasher, coverage, start, tr)
	st := statsFrom(&res.Stats, int64(len(res.Rows)))
	st.Coverage = coverage
	out.trailer(st)
	return false
}

// checkResponse is the /check endpoint's verdict.
type checkResponse struct {
	Covered         bool   `json:"covered"`
	Reason          string `json:"reason,omitempty"`
	Bound           uint64 `json:"bound"`
	OutputBound     uint64 `json:"outputBound"`
	ConstraintsUsed int    `json:"constraintsUsed"`
	EmptyGuaranteed bool   `json:"emptyGuaranteed"`
	Plan            string `json:"plan,omitempty"`
	// Decision is what /query would do with this statement right now.
	Decision string `json:"decision"`
	Budget   uint64 `json:"budget,omitempty"`
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	sql, err := readSQL(w, r)
	if err != nil {
		writeJSON(w, requestErrorStatus(err), errorResponse{Error: err.Error()})
		return
	}
	info, err := s.db.CheckContext(r.Context(), sql)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, checkResponse{
		Covered:         info.Covered,
		Reason:          info.Reason,
		Bound:           info.Bound,
		OutputBound:     info.OutputBound,
		ConstraintsUsed: info.ConstraintsUsed,
		EmptyGuaranteed: info.EmptyGuaranteed,
		Plan:            info.Plan,
		Decision:        string(s.admit(info)),
		Budget:          s.cfg.BoundBudget,
	})
}

// explainRequest is the JSON body of /explain.
type explainRequest struct {
	SQL string `json:"sql"`
	// Analyze executes the query (through admission control) so the
	// response carries actual counters next to the estimates.
	Analyze bool `json:"analyze"`
}

// explainStepJSON is one fetch step of an /explain response.
type explainStepJSON struct {
	Atom       string  `json:"atom"`
	Constraint string  `json:"constraint"`
	KeyBound   uint64  `json:"keyBound"`
	OutBound   uint64  `json:"outBound"`
	EstKeys    float64 `json:"estKeys,omitempty"`
	EstFetched float64 `json:"estFetched,omitempty"`
	EstRows    float64 `json:"estRows,omitempty"`
	// Actual counters are present only with analyze.
	ActualKeys    int64   `json:"actualKeys,omitempty"`
	ActualFetched int64   `json:"actualFetched,omitempty"`
	ActualRows    int64   `json:"actualRows,omitempty"`
	DurationMS    float64 `json:"durationMs,omitempty"`
}

// explainOpJSON is one conventional operator of an analyzed plan.
type explainOpJSON struct {
	Op         string  `json:"op"`
	EstRows    float64 `json:"estRows,omitempty"`
	RowsIn     int64   `json:"rowsIn"`
	RowsOut    int64   `json:"rowsOut"`
	DurationMS float64 `json:"durationMs"`
}

// explainResponse is the /explain verdict.
type explainResponse struct {
	Covered   bool   `json:"covered"`
	Reason    string `json:"reason,omitempty"`
	Bound     uint64 `json:"bound"`
	Optimized bool   `json:"optimized"`
	Decision  string `json:"decision"`
	Plan      string `json:"plan,omitempty"`

	Analyzed      bool              `json:"analyzed"`
	Mode          string            `json:"mode,omitempty"`
	Rows          int               `json:"rows,omitempty"`
	TuplesFetched int64             `json:"tuplesFetched,omitempty"`
	TuplesScanned int64             `json:"tuplesScanned,omitempty"`
	Steps         []explainStepJSON `json:"steps,omitempty"`
	Ops           []explainOpJSON   `json:"ops,omitempty"`
	DurationMS    float64           `json:"durationMs,omitempty"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	// Like /query, the trace starts before validation so 4xx responses
	// carry X-Beas-Trace-Id too.
	var req explainRequest
	var rerr error
	if q := r.URL.Query().Get("q"); q != "" {
		req.SQL = q
		req.Analyze = r.URL.Query().Get("analyze") == "true"
	} else {
		rerr = decodeBody(w, r, &req)
	}
	if rerr == nil && req.SQL == "" {
		rerr = errors.New("empty sql")
	}
	ctx := r.Context()
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	start := time.Now()
	ctx, tr := s.traceRequest(ctx, w, "explain", req.SQL)
	defer s.tracer.Finish(tr)
	if rerr != nil {
		tr.ForceKeep()
		writeJSON(w, requestErrorStatus(rerr), errorResponse{Error: rerr.Error()})
		return
	}
	if s.explain(ctx, w, req, start, tr) && s.explain(ctx, w, req, start, tr) {
		s.failStale(w, tr)
	}
}

// explain answers /explain from one prepared statement: the verdict and,
// with analyze, that statement's execution behind the admission gates of
// /query. Like admitQuery it reports stale with nothing written.
func (s *Server) explain(ctx context.Context, w http.ResponseWriter, req explainRequest, start time.Time, tr *obs.Trace) (stale bool) {
	stmt, err := s.db.PrepareContext(ctx, req.SQL)
	if err != nil {
		tr.ForceKeep()
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return false
	}
	info := stmt.CheckInfo()
	dec := s.admit(info)
	resp := explainResponse{
		Covered:   info.Covered,
		Reason:    info.Reason,
		Bound:     info.Bound,
		Optimized: s.db.OptimizerEnabled(),
		Decision:  string(dec),
		Plan:      info.Plan,
	}
	if !req.Analyze {
		writeJSON(w, http.StatusOK, resp)
		return false
	}
	// There is no approximation downgrade for an analysis — an
	// over-budget statement under PolicyApprox is rejected instead.
	s.m.queries.Add(1)
	s.m.observeBound(info)
	if dec == decideDowngrade {
		dec = decideReject
	}
	release, ok := s.gate(ctx, w, info, dec, "explain analyze")
	if !ok {
		return false
	}
	defer release()
	if s.afterAdmit != nil {
		s.afterAdmit()
	}

	ri, err := stmt.QueryIterContext(ctx)
	if err != nil {
		return s.failOpen(w, err, tr)
	}
	defer ri.Close()

	// Drain the cursor: the analysis wants the counters, not the rows.
	var rows int64
	for {
		batch, err := ri.NextBatch()
		if err != nil {
			ri.Close()
			outcome := outcomeFailed
			if canceled(err) {
				outcome = outcomeCanceled
			}
			s.finishQuery(req.SQL, outcome, ri.Stats(), rows, start, tr)
			if outcome == outcomeCanceled {
				writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
			} else {
				writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			}
			return false
		}
		if batch == nil {
			break
		}
		rows += int64(len(batch))
	}
	ri.Close()
	s.m.admitted.Add(1)
	s.finishQuery(req.SQL, outcomeOK, ri.Stats(), rows, start, tr)
	ea := beas.NewExplainAnalysis(req.SQL, ri.Stats(), int(rows))
	resp.Analyzed = true
	resp.Mode = string(ea.Mode)
	resp.Rows = ea.Rows
	resp.TuplesFetched = ea.TuplesFetched
	resp.TuplesScanned = ea.TuplesScanned
	resp.Plan = ea.Plan
	resp.DurationMS = float64(ea.Duration) / float64(time.Millisecond)
	for _, st := range ea.Steps {
		resp.Steps = append(resp.Steps, explainStepJSON{
			Atom:          st.Atom,
			Constraint:    st.Constraint,
			KeyBound:      st.KeyBound,
			OutBound:      st.OutBound,
			EstKeys:       st.EstKeys,
			EstFetched:    st.EstFetched,
			EstRows:       st.EstRows,
			ActualKeys:    st.ActualKeys,
			ActualFetched: st.ActualFetched,
			ActualRows:    st.ActualRows,
			DurationMS:    float64(st.Duration) / float64(time.Millisecond),
		})
	}
	for _, op := range ea.Ops {
		resp.Ops = append(resp.Ops, explainOpJSON{
			Op:         op.Op,
			EstRows:    op.EstRows,
			RowsIn:     op.RowsIn,
			RowsOut:    op.RowsOut,
			DurationMS: float64(op.Duration) / float64(time.Millisecond),
		})
	}
	writeJSON(w, http.StatusOK, resp)
	return false
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleMetrics renders the registry in the Prometheus text exposition
// format (version 0.0.4).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.m.reg.WritePrometheus(w)
}

// handleTrace serves the retained-trace ring: /trace lists recent
// traces, /trace/<id> renders one span tree.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "tracing disabled (start the server with a tracer)"})
		return
	}
	id := strings.Trim(strings.TrimPrefix(r.URL.Path, "/trace"), "/")
	if id == "" {
		writeJSON(w, http.StatusOK, s.tracer.Recent())
		return
	}
	tr := s.tracer.Get(id)
	if tr == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no retained trace with id " + id})
		return
	}
	writeJSON(w, http.StatusOK, tr.Tree())
}

// digestsResponse is the GET /digests body: the retained per-fingerprint
// aggregates, heaviest first.
type digestsResponse struct {
	DriftThreshold float64              `json:"driftThreshold"`
	Observations   uint64               `json:"observations"`
	Evictions      uint64               `json:"evictions,omitempty"`
	Digests        []obs.DigestSnapshot `json:"digests"`
}

// handleDigests serves the workload digests: /digests lists every
// retained fingerprint ordered by total execution time, /digests/<id>
// resolves one by its DigestID.
func (s *Server) handleDigests(w http.ResponseWriter, r *http.Request) {
	d := s.db.Digests()
	if d == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "digests disabled (start the server with digests enabled, e.g. beasd -digest-topk 128)"})
		return
	}
	id := strings.Trim(strings.TrimPrefix(r.URL.Path, "/digests"), "/")
	if id == "" {
		writeJSON(w, http.StatusOK, digestsResponse{
			DriftThreshold: d.DriftThreshold(),
			Observations:   d.Observations(),
			Evictions:      d.Evictions(),
			Digests:        d.Snapshot(),
		})
		return
	}
	snap, ok := d.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no digest with id " + id})
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	d := s.db.Durability()
	resp := map[string]any{
		"ok":             true,
		"rows":           s.db.TotalRows(),
		"constraints":    len(s.db.Constraints()),
		"workers":        s.cfg.MaxConcurrent,
		"durable":        d.Durable,
		"uptime_seconds": time.Since(s.start).Seconds(),
	}
	if d.Durable {
		resp["wal_last_lsn"] = d.LastLSN
		if !d.LastSnapshot.IsZero() {
			resp["last_snapshot_age_seconds"] = time.Since(d.LastSnapshot).Seconds()
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
