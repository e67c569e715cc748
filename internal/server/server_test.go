package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	beas "github.com/bounded-eval/beas"
)

// newOrdersDB builds a database where customer c owns exactly itemsPer
// items c*10000 .. c*10000+itemsPer-1, covered by one access constraint.
func newOrdersDB(tb testing.TB, customers, itemsPer int) *beas.DB {
	tb.Helper()
	db := beas.NewDB()
	db.MustCreateTable("orders", "cust INT", "item INT")
	for c := 0; c < customers; c++ {
		for j := 0; j < itemsPer; j++ {
			db.MustInsert("orders", c, c*10000+j)
		}
	}
	db.MustRegisterConstraint(fmt.Sprintf("orders({cust} -> {item}, %d)", itemsPer))
	return db
}

// ndjsonResult is a parsed /query stream.
type ndjsonResult struct {
	header  queryHeader
	rows    [][]any
	stats   *statsJSON
	errLine string
}

// runQuery posts sql to the server and parses the NDJSON stream. For
// non-200 responses it returns the decoded error response instead. It
// reports failures as an error (never via testing.TB), so it is safe to
// call from spawned client goroutines.
func runQuery(base, sql string) (*ndjsonResult, *errorResponse, int, error) {
	body, _ := json.Marshal(queryRequest{SQL: sql})
	resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, 0, fmt.Errorf("POST /query: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			return nil, nil, resp.StatusCode, fmt.Errorf("decoding error response (status %d): %w", resp.StatusCode, err)
		}
		return nil, &er, resp.StatusCode, nil
	}
	out := &ndjsonResult{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if first {
			first = false
			if err := json.Unmarshal(line, &out.header); err != nil {
				return nil, nil, resp.StatusCode, fmt.Errorf("decoding header %q: %w", line, err)
			}
			continue
		}
		var probe struct {
			Rows  [][]any    `json:"rows"`
			Stats *statsJSON `json:"stats"`
			Error string     `json:"error"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, nil, resp.StatusCode, fmt.Errorf("decoding line %q: %w", line, err)
		}
		switch {
		case probe.Error != "":
			out.errLine = probe.Error
		case probe.Stats != nil:
			out.stats = probe.Stats
		default:
			out.rows = append(out.rows, probe.Rows...)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, resp.StatusCode, fmt.Errorf("reading stream: %w", err)
	}
	return out, nil, resp.StatusCode, nil
}

// mustRunQuery is runQuery for single-goroutine call sites.
func mustRunQuery(tb testing.TB, base, sql string) (*ndjsonResult, *errorResponse, int) {
	tb.Helper()
	res, er, status, err := runQuery(base, sql)
	if err != nil {
		tb.Fatal(err)
	}
	return res, er, status
}

// TestConcurrentClientsDisjointStreams is acceptance (a): N concurrent
// clients, each streaming its own slice of the data through a worker
// pool smaller than N, every stream complete and uncontaminated.
func TestConcurrentClientsDisjointStreams(t *testing.T) {
	const customers, itemsPer = 8, 300
	db := newOrdersDB(t, customers, itemsPer)
	s := New(db, Config{MaxConcurrent: 3, BoundBudget: 1000})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make(chan error, customers)
	for c := 0; c < customers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res, er, status, err := runQuery(ts.URL, fmt.Sprintf("SELECT item FROM orders WHERE cust = %d ORDER BY item", c))
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", c, err)
				return
			}
			if er != nil {
				errs <- fmt.Errorf("client %d: status %d: %s", c, status, er.Error)
				return
			}
			if res.errLine != "" {
				errs <- fmt.Errorf("client %d: stream error: %s", c, res.errLine)
				return
			}
			if res.header.Admission != string(decideAdmit) {
				errs <- fmt.Errorf("client %d: admission %q", c, res.header.Admission)
				return
			}
			if len(res.rows) != itemsPer {
				errs <- fmt.Errorf("client %d: got %d rows, want %d", c, len(res.rows), itemsPer)
				return
			}
			for j, r := range res.rows {
				want := float64(c*10000 + j) // JSON numbers decode as float64
				if len(r) != 1 || r[0] != want {
					errs <- fmt.Errorf("client %d row %d: got %v, want [%v]", c, j, r, want)
					return
				}
			}
			if res.stats == nil {
				errs <- fmt.Errorf("client %d: missing stats trailer", c)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := s.Stats()
	if st.Admitted != customers {
		t.Errorf("admitted = %d, want %d", st.Admitted, customers)
	}
	if st.RowsStreamed != customers*itemsPer {
		t.Errorf("rowsStreamed = %d, want %d", st.RowsStreamed, customers*itemsPer)
	}
}

// TestOverBudgetRejectedBeforeFetch is acceptance (b): a query whose
// deduced bound exceeds the budget is refused before any fetch runs,
// and the response carries the bound.
func TestOverBudgetRejectedBeforeFetch(t *testing.T) {
	db := beas.NewDB()
	db.MustCreateTable("big", "k INT", "v INT")
	for i := 0; i < 10; i++ {
		db.MustInsert("big", 1, i)
	}
	// The declared bound N (the admission signal) is far above the data:
	// admission must trust the constraint, not peek at the instance.
	db.MustRegisterConstraint("big({k} -> {v}, 50000)")
	s := New(db, Config{BoundBudget: 100})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res, er, status := mustRunQuery(t, ts.URL, "SELECT v FROM big WHERE k = 1")
	if res != nil {
		t.Fatalf("over-budget query executed: %+v", res.header)
	}
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", status)
	}
	if er.Bound != 50000 || er.Budget != 100 {
		t.Errorf("error bound/budget = %d/%d, want 50000/100", er.Bound, er.Budget)
	}
	st := s.Stats()
	if st.TuplesFetched != 0 || st.TuplesScanned != 0 {
		t.Errorf("rejected query touched data: fetched=%d scanned=%d", st.TuplesFetched, st.TuplesScanned)
	}
	if st.RejectedBudget != 1 || st.Admitted != 0 {
		t.Errorf("rejectedBudget=%d admitted=%d, want 1/0", st.RejectedBudget, st.Admitted)
	}
}

// TestUncoveredRejected: without AllowUncovered, a non-covered query is
// refused with the checker's reason.
func TestUncoveredRejected(t *testing.T) {
	db := newOrdersDB(t, 1, 5)
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res, er, status := mustRunQuery(t, ts.URL, "SELECT cust FROM orders WHERE item = 3")
	if res != nil {
		t.Fatalf("uncovered query executed")
	}
	if status != http.StatusUnprocessableEntity || er.Reason == "" {
		t.Fatalf("status=%d reason=%q, want 422 with reason", status, er.Reason)
	}
	if st := s.Stats(); st.RejectedUncovered != 1 {
		t.Errorf("rejectedUncovered = %d, want 1", st.RejectedUncovered)
	}
}

// TestUncoveredFallback: with AllowUncovered the same query runs through
// the conventional engine and streams correct rows.
func TestUncoveredFallback(t *testing.T) {
	db := newOrdersDB(t, 2, 5)
	s := New(db, Config{AllowUncovered: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res, er, _ := mustRunQuery(t, ts.URL, "SELECT cust FROM orders WHERE item = 10003")
	if er != nil {
		t.Fatalf("fallback query rejected: %s", er.Error)
	}
	if len(res.rows) != 1 || res.rows[0][0] != float64(1) {
		t.Fatalf("rows = %v, want [[1]]", res.rows)
	}
	if res.header.Covered {
		t.Error("header claims covered for an uncovered query")
	}
	if res.stats == nil || res.stats.TuplesScanned == 0 {
		t.Error("conventional fallback reported no scanned tuples")
	}
}

// TestQueuePolicy: an over-budget query under PolicyQueue is admitted
// through the heavy lane and completes correctly.
func TestQueuePolicy(t *testing.T) {
	db := newOrdersDB(t, 1, 20)
	// itemsPer=20 > budget 10 → over budget.
	s := New(db, Config{BoundBudget: 10, OverBudget: PolicyQueue})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res, er, _ := mustRunQuery(t, ts.URL, "SELECT item FROM orders WHERE cust = 0")
	if er != nil {
		t.Fatalf("queued query rejected: %s", er.Error)
	}
	if res.header.Admission != string(decideQueue) {
		t.Errorf("admission = %q, want %q", res.header.Admission, decideQueue)
	}
	if len(res.rows) != 20 {
		t.Errorf("rows = %d, want 20", len(res.rows))
	}
	if st := s.Stats(); st.Queued != 1 || st.Admitted != 1 {
		t.Errorf("queued=%d admitted=%d, want 1/1", st.Queued, st.Admitted)
	}
}

// TestApproxDowngrade: an over-budget query under PolicyApprox is
// rerouted to resource-bounded approximation; the trailer reports the
// deterministic accuracy lower bound.
func TestApproxDowngrade(t *testing.T) {
	const items = 1000
	db := newOrdersDB(t, 1, items)
	s := New(db, Config{BoundBudget: 100, OverBudget: PolicyApprox, ApproxBudget: 100})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res, er, _ := mustRunQuery(t, ts.URL, "SELECT item FROM orders WHERE cust = 0")
	if er != nil {
		t.Fatalf("downgraded query rejected: %s", er.Error)
	}
	if res.header.Admission != string(decideDowngrade) {
		t.Errorf("admission = %q, want %q", res.header.Admission, decideDowngrade)
	}
	if len(res.rows) != 100 {
		t.Errorf("rows = %d, want 100 (the fetch budget)", len(res.rows))
	}
	if res.stats == nil {
		t.Fatal("missing stats trailer")
	}
	if got, want := res.stats.Coverage, 0.1; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("coverage = %v, want %v", got, want)
	}
	if len(res.stats.FetchSteps) == 0 {
		t.Error("trailer carries no fetchSteps")
	}
	if got := res.stats.TuplesFetched; got > 100 {
		t.Errorf("trailer tuplesFetched = %d, over the approximation budget 100", got)
	}
	if st := s.Stats(); st.Downgraded != 1 {
		t.Errorf("downgraded = %d, want 1", st.Downgraded)
	}
	if st := s.Stats(); st.TuplesFetched != 100 {
		t.Errorf("tuplesFetched = %d, want exactly the budget 100", st.TuplesFetched)
	}
}

// TestCancelledRequestStopsFetchLoop is acceptance (c): a client that
// cancels mid-stream terminates the server-side fetch loop early; the
// per-step statistics folded into the server counters show only a
// fraction of the full |D_Q| was fetched.
func TestCancelledRequestStopsFetchLoop(t *testing.T) {
	const n = 100_000
	db := beas.NewDB()
	db.MustCreateTable("t1", "a INT", "b INT")
	db.MustCreateTable("t2", "b INT", "pad STRING")
	pad := make([]byte, 120)
	for i := range pad {
		pad[i] = 'x'
	}
	for i := 0; i < n; i++ {
		db.MustInsert("t1", 1, i)
		db.MustInsert("t2", i, string(pad))
	}
	db.MustRegisterConstraint(fmt.Sprintf("t1({a} -> {b}, %d)", n))
	db.MustRegisterConstraint("t2({b} -> {pad}, 1)")
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Full execution would fetch n (step 1) + n (step 2 probes) tuples.
	const fullFetch = 2 * n

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body, _ := json.Marshal(queryRequest{SQL: "SELECT t2.pad FROM t1, t2 WHERE t1.a = 1 AND t2.b = t1.b"})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Read just the header line, then walk away: the server keeps
	// streaming until its write buffers fill, and must stop fetching the
	// moment the cancellation reaches it.
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatalf("reading header: %v", err)
	}
	cancel()

	// The server classifies the abort as canceled when it observes the
	// request context's cancellation, or — if the connection write fails
	// before the cancellation propagates — as a disconnect; either way it
	// must stop the fetch loop.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats()
		if st.Canceled+st.Disconnected > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never observed the cancellation")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := s.Stats()
	if st.TuplesFetched == 0 {
		// Legal but rare: the cancellation can land before the first
		// fetch (the pipeline is lazy). The load-bearing assertion is
		// that the loop never ran to completion.
		t.Log("cancellation propagated before the first fetch")
	}
	if st.TuplesFetched >= fullFetch {
		t.Errorf("fetch loop ran to completion: fetched %d of %d", st.TuplesFetched, fullFetch)
	}
	t.Logf("cancelled after fetching %d of %d tuples (%.1f%%)",
		st.TuplesFetched, fullFetch, 100*float64(st.TuplesFetched)/fullFetch)
}

// TestCheckEndpoint: /check returns the verdict and the would-be
// admission decision without executing.
func TestCheckEndpoint(t *testing.T) {
	db := newOrdersDB(t, 1, 50)
	s := New(db, Config{BoundBudget: 10})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(queryRequest{SQL: "SELECT item FROM orders WHERE cust = 0"})
	resp, err := http.Post(ts.URL+"/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr checkResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if !cr.Covered || cr.Bound != 50 {
		t.Errorf("covered=%v bound=%d, want true/50", cr.Covered, cr.Bound)
	}
	if cr.Decision != string(decideReject) {
		t.Errorf("decision = %q, want %q", cr.Decision, decideReject)
	}
	if st := s.Stats(); st.TuplesFetched != 0 {
		t.Errorf("/check touched data: fetched=%d", st.TuplesFetched)
	}
}

// TestStatsEndpoint: the monitoring endpoint aggregates admission
// counters, the bound histogram and plan-cache hits.
func TestStatsEndpoint(t *testing.T) {
	db := newOrdersDB(t, 1, 50)
	s := New(db, Config{BoundBudget: 1000})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		if _, er, _ := mustRunQuery(t, ts.URL, "SELECT item FROM orders WHERE cust = 0"); er != nil {
			t.Fatalf("query %d: %s", i, er.Error)
		}
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Queries != 3 || st.Admitted != 3 {
		t.Errorf("queries=%d admitted=%d, want 3/3", st.Queries, st.Admitted)
	}
	if st.PlanCacheHits < 2 {
		t.Errorf("planCacheHits = %d, want ≥ 2 (repeated statement)", st.PlanCacheHits)
	}
	var histTotal uint64
	for _, b := range st.BoundHistogram {
		histTotal += b.Count
	}
	if histTotal != 3 {
		t.Errorf("bound histogram holds %d observations, want 3", histTotal)
	}
	if st.Modes[string(beas.ModeBounded)] != 3 {
		t.Errorf("bounded mode count = %d, want 3", st.Modes[string(beas.ModeBounded)])
	}
}
