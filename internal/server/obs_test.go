package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/bounded-eval/beas/internal/obs"
)

// scrape fetches and parses /metrics, failing the test on any structural
// or lint error — every scrape must be valid exposition at all times.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	exp, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("parsing /metrics: %v", err)
	}
	if err := obs.Lint(exp); err != nil {
		t.Fatalf("linting /metrics: %v", err)
	}
	out := make(map[string]float64, len(exp.Samples))
	for _, s := range exp.Samples {
		out[s.Key()] = s.Value
	}
	return out
}

// TestMetricsEndpointDeltas: /metrics is valid Prometheus exposition and
// its counters move in lockstep with the query stats the client sees.
func TestMetricsEndpointDeltas(t *testing.T) {
	db := newOrdersDB(t, 2, 40)
	s := New(db, Config{BoundBudget: 100})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	before := scrape(t, ts.URL)

	res, er, status := mustRunQuery(t, ts.URL, "SELECT item FROM orders WHERE cust = 1")
	if er != nil {
		t.Fatalf("status %d: %s", status, er.Error)
	}
	if res.stats == nil {
		t.Fatal("missing stats trailer")
	}
	// A rejected query moves the admission counter but not the results.
	if _, er, _ = mustRunQuery(t, ts.URL, "SELECT item FROM orders"); er == nil {
		t.Fatal("uncovered query was not rejected")
	}

	after := scrape(t, ts.URL)
	deltas := []struct {
		key  string
		want float64
	}{
		{"beas_queries_total", 2},
		{`beas_admission_total{outcome="admitted"}`, 1},
		{`beas_admission_total{outcome="rejected_uncovered"}`, 1},
		{`beas_query_results_total{outcome="canceled"}`, 0},
		{`beas_query_results_total{outcome="disconnected"}`, 0},
		{"beas_rows_streamed_total", float64(len(res.rows))},
		{"beas_tuples_fetched_total", float64(res.stats.TuplesFetched)},
		{`beas_query_mode_total{mode="bounded"}`, 1},
		{"beas_query_duration_seconds_count", 2},
		{`beas_stage_duration_seconds_count{stage="check"}`, 2},
		{`beas_stage_duration_seconds_count{stage="execute"}`, 1},
		{"beas_bound_uncovered_total", 1},
		{"beas_bound_accuracy_ratio_count", 1},
	}
	for _, d := range deltas {
		if got := after[d.key] - before[d.key]; got != d.want {
			t.Errorf("%s moved by %v, want %v", d.key, got, d.want)
		}
	}
	// The bound-accuracy ratio for this query is fetched/bound = 40/40;
	// it must land in the le=1 bucket, not +Inf (bound violated).
	if got := after[`beas_bound_accuracy_ratio_bucket{le="1"}`] - before[`beas_bound_accuracy_ratio_bucket{le="1"}`]; got != 1 {
		t.Errorf("bound-accuracy le=1 bucket moved by %v, want 1", got)
	}
	// DB-level and runtime families are wired into the same registry.
	for _, fam := range []string{"beas_plan_cache_misses_total", "beas_workers_max", "go_goroutines", "process_uptime_seconds"} {
		if _, ok := after[fam]; !ok {
			t.Errorf("family %s missing from /metrics", fam)
		}
	}
}

// TestStatsMatchesMetrics: /stats is a JSON view over the same registry.
func TestStatsMatchesMetrics(t *testing.T) {
	db := newOrdersDB(t, 1, 25)
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, er, _ := mustRunQuery(t, ts.URL, "SELECT item FROM orders WHERE cust = 0"); er != nil {
		t.Fatalf("query failed: %s", er.Error)
	}
	m := scrape(t, ts.URL)
	st := s.Stats()
	if float64(st.Queries) != m["beas_queries_total"] {
		t.Errorf("stats.Queries %d != metrics %v", st.Queries, m["beas_queries_total"])
	}
	if float64(st.RowsStreamed) != m["beas_rows_streamed_total"] {
		t.Errorf("stats.RowsStreamed %d != metrics %v", st.RowsStreamed, m["beas_rows_streamed_total"])
	}
	var histTotal uint64
	for _, b := range st.BoundHistogram {
		histTotal += b.Count
	}
	if float64(histTotal) != m[`beas_query_bound_tuples_bucket{le="+Inf"}`] {
		t.Errorf("bound histogram total %d != +Inf bucket %v", histTotal, m[`beas_query_bound_tuples_bucket{le="+Inf"}`])
	}
}

// TestTraceEndpoint: a traced query advertises its trace ID and the
// retained span tree covers the full lifecycle.
func TestTraceEndpoint(t *testing.T) {
	db := newOrdersDB(t, 1, 30)
	tracer := obs.NewTracer(obs.TracerOptions{SampleRate: 1})
	s := New(db, Config{Tracer: tracer})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(queryRequest{SQL: "SELECT item FROM orders WHERE cust = 0"})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	id := resp.Header.Get("X-Beas-Trace-Id")
	io := new(bytes.Buffer)
	io.ReadFrom(resp.Body)
	resp.Body.Close()
	if id == "" {
		t.Fatal("no X-Beas-Trace-Id header on a traced query")
	}

	tresp, err := http.Get(ts.URL + "/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /trace/%s: status %d", id, tresp.StatusCode)
	}
	var tree obs.TraceJSON
	if err := json.NewDecoder(tresp.Body).Decode(&tree); err != nil {
		t.Fatal(err)
	}
	if tree.Root == nil || tree.Root.Name != "query" {
		t.Fatalf("root span = %+v", tree.Root)
	}
	names := map[string]bool{}
	var walk func(n *obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		names[n.Name] = true
		if strings.HasPrefix(n.Name, "fetch ") {
			names["fetch"] = true
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree.Root)
	for _, want := range []string{"parse", "check", "admission", "fetch", "stream"} {
		if !names[want] {
			t.Errorf("span %q missing from trace (got %v)", want, names)
		}
	}

	// The listing knows the trace too.
	lresp, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var recent []obs.TraceSummary
	if err := json.NewDecoder(lresp.Body).Decode(&recent); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range recent {
		if r.ID == id {
			found = true
		}
	}
	if !found {
		t.Errorf("trace %s not in /trace listing", id)
	}
}

func TestTraceDisabled(t *testing.T) {
	db := newOrdersDB(t, 1, 5)
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(queryRequest{SQL: "SELECT item FROM orders WHERE cust = 0"})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Beas-Trace-Id"); got != "" {
		t.Errorf("untraced server sent X-Beas-Trace-Id %q", got)
	}
	tresp, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /trace with tracing off: status %d, want 404", tresp.StatusCode)
	}
}

// TestSlowQueryLog: a query over the fetch threshold lands in the log
// with its statement, bound, trace ID and per-step statistics.
func TestSlowQueryLog(t *testing.T) {
	db := newOrdersDB(t, 1, 50)
	var buf bytes.Buffer
	tracer := obs.NewTracer(obs.TracerOptions{SampleRate: 0}) // retention only via force-keep
	s := New(db, Config{
		Tracer:       tracer,
		SlowQueryLog: obs.NewSlowLog(&buf, 0, 10, nil), // fetch threshold only
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, er, _ := mustRunQuery(t, ts.URL, "SELECT item FROM orders WHERE cust = 0"); er != nil {
		t.Fatalf("query failed: %s", er.Error)
	}
	line := strings.TrimSpace(buf.String())
	if line == "" {
		t.Fatal("no slow-query entry for a 50-tuple fetch over a 10-tuple threshold")
	}
	var e obs.SlowEntry
	if err := json.Unmarshal([]byte(line), &e); err != nil {
		t.Fatalf("slow log line is not JSON: %v\n%s", err, line)
	}
	if e.SQL == "" || e.Outcome != "ok" || e.Mode != "bounded" {
		t.Errorf("entry = %+v", e)
	}
	if e.Fetched != 50 || e.Bound == 0 {
		t.Errorf("fetched=%d bound=%d", e.Fetched, e.Bound)
	}
	if len(e.Steps) == 0 || e.Steps[0].Constraint == "" {
		t.Errorf("steps = %+v", e.Steps)
	}
	if e.TraceID == "" {
		t.Error("slow entry has no trace ID despite an installed tracer")
	}
	// Slow queries are force-kept even at sample rate 0.
	if tracer.Get(e.TraceID) == nil {
		t.Error("slow query's trace was not retained")
	}
	if s.Stats().SlowQueries != 1 {
		t.Errorf("SlowQueries = %d, want 1", s.Stats().SlowQueries)
	}
}

// failingWriter lets the first write (the NDJSON header) through, then
// fails — a client that vanished mid-stream without cancelling.
type failingWriter struct {
	hdr    http.Header
	writes int
}

func (f *failingWriter) Header() http.Header {
	if f.hdr == nil {
		f.hdr = http.Header{}
	}
	return f.hdr
}
func (f *failingWriter) WriteHeader(int) {}
func (f *failingWriter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > 1 {
		return 0, fmt.Errorf("broken pipe")
	}
	return len(p), nil
}

// TestDisconnectAccounting: rows written to a vanished client count as
// abandoned, not streamed, and the outcome is disconnected — not
// canceled, not failed.
func TestDisconnectAccounting(t *testing.T) {
	db := newOrdersDB(t, 1, 60)
	s := New(db, Config{})

	w := &failingWriter{}
	stmt, err := db.Prepare("SELECT item FROM orders WHERE cust = 0")
	if err != nil {
		t.Fatal(err)
	}
	s.streamQuery(context.Background(), w, stmt, decideAdmit, time.Now(), nil)

	st := s.Stats()
	if st.Disconnected != 1 {
		t.Errorf("Disconnected = %d, want 1", st.Disconnected)
	}
	if st.Canceled != 0 || st.Failed != 0 {
		t.Errorf("Canceled=%d Failed=%d, want 0/0", st.Canceled, st.Failed)
	}
	if st.RowsStreamed != 0 {
		t.Errorf("RowsStreamed = %d, want 0 (stream never completed)", st.RowsStreamed)
	}
	if st.RowsAbandoned == 0 {
		t.Error("RowsAbandoned = 0, want the rows written before the disconnect")
	}
	// The fetch work that preceded the disconnect is still accounted.
	if st.TuplesFetched == 0 {
		t.Error("TuplesFetched = 0, want partial work folded in")
	}
}

// TestHealthzFields: the liveness endpoint reports uptime (and, for
// durable stores, WAL position — covered in restart_test.go).
func TestHealthzFields(t *testing.T) {
	db := newOrdersDB(t, 1, 5)
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	time.Sleep(5 * time.Millisecond)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	up, ok := h["uptime_seconds"].(float64)
	if !ok || up <= 0 {
		t.Errorf("uptime_seconds = %v", h["uptime_seconds"])
	}
	if _, present := h["wal_last_lsn"]; present {
		t.Error("in-memory database reports wal_last_lsn")
	}
}
