package beas

// End-to-end observability tests over the public facade: a traced TLC
// query must yield a span tree covering the whole lifecycle with
// estimated-vs-actual fetch counters, and SetMetrics must expose a
// lintable Prometheus page whose counters track query work. The
// benchmarks at the bottom quantify the cost of leaving tracing and
// metrics installed (the tracing-off case is the one the perf gate
// holds to PR 6 numbers).

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"github.com/bounded-eval/beas/internal/obs"
)

// walkSpans flattens a span tree depth-first.
func walkSpans(n *obs.SpanNode, visit func(*obs.SpanNode)) {
	if n == nil {
		return
	}
	visit(n)
	for _, c := range n.Children {
		walkSpans(c, visit)
	}
}

func TestTracedQueryLifecycle(t *testing.T) {
	db := MustNewTLCDB(1)
	db.SetOptimizer(true)
	defer db.SetOptimizer(false)
	tc := NewTracer(TracerOptions{SampleRate: 1, RingSize: 8})
	db.SetTracer(tc)

	sql := tlcSQLFor(t, "Q1")
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Mode != ModeBounded {
		t.Fatalf("Q1 ran in mode %v, want bounded", res.Stats.Mode)
	}

	recent := tc.Recent()
	if len(recent) != 1 {
		t.Fatalf("tracer retained %d traces, want 1", len(recent))
	}
	tr := tc.Get(recent[0].ID)
	if tr == nil {
		t.Fatal("retained trace not resolvable by ID")
	}
	tree := tr.Tree()
	if tree.Root == nil || tree.Root.Name != "query" {
		t.Fatalf("root span = %+v, want query", tree.Root)
	}
	if tree.DurationMS <= 0 {
		t.Errorf("trace duration = %v, want > 0", tree.DurationMS)
	}
	if got := tree.Root.Attrs["sql"]; got != sql {
		t.Errorf("root sql attr = %v", got)
	}

	// The lifecycle stages must all appear somewhere in the tree.
	seen := map[string]int{}
	var fetchSpans []*obs.SpanNode
	walkSpans(tree.Root, func(n *obs.SpanNode) {
		switch {
		case strings.HasPrefix(n.Name, "fetch "):
			seen["fetch"]++
			fetchSpans = append(fetchSpans, n)
		default:
			seen[n.Name]++
		}
	})
	for _, want := range []string{"parse", "check", "optimize", "fetch"} {
		if seen[want] == 0 {
			t.Errorf("no %q span in trace (saw %v)", want, seen)
		}
	}
	if len(fetchSpans) != len(res.Stats.FetchSteps) {
		t.Fatalf("%d fetch spans for %d fetch steps", len(fetchSpans), len(res.Stats.FetchSteps))
	}

	// Fetch spans carry the estimated-vs-actual breakdown. Actual
	// counters must match Stats exactly; estimates appear because the
	// optimizer ran (they may still be absent for a step it had no
	// statistics for, so require them on at least one span).
	var sawEstimates bool
	var fetched int64
	for i, n := range fetchSpans {
		st := res.Stats.FetchSteps[i]
		if n.Attrs["constraint"] != st.Constraint {
			t.Errorf("fetch span %d constraint = %v, want %v", i, n.Attrs["constraint"], st.Constraint)
		}
		if n.Attrs["keys"] != st.DistinctKey || n.Attrs["fetched"] != st.Fetched || n.Attrs["rows"] != st.RowsOut {
			t.Errorf("fetch span %d actuals = %v, want keys=%d fetched=%d rows=%d",
				i, n.Attrs, st.DistinctKey, st.Fetched, st.RowsOut)
		}
		if _, ok := n.Attrs["estFetched"]; ok {
			sawEstimates = true
		}
		fetched += st.Fetched
	}
	if !sawEstimates {
		t.Error("optimizer ran but no fetch span carries estimates")
	}
	if fetched != res.Stats.TuplesFetched {
		t.Errorf("fetch steps sum to %d tuples, Stats says %d", fetched, res.Stats.TuplesFetched)
	}

	// Removing the tracer stops retention.
	db.SetTracer(nil)
	if _, err := db.Query(sql); err != nil {
		t.Fatal(err)
	}
	if got := len(tc.Recent()); got != 1 {
		t.Errorf("query after SetTracer(nil) retained a trace: %d", got)
	}
}

func TestSetMetricsTracksQueries(t *testing.T) {
	db := MustNewTLCDB(1)
	reg := NewMetricsRegistry()
	db.SetMetrics(reg)

	scrape := func() map[string]float64 {
		var buf bytes.Buffer
		reg.WritePrometheus(&buf)
		exp, err := obs.ParsePrometheus(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("parse exposition: %v", err)
		}
		if err := obs.Lint(exp); err != nil {
			t.Fatalf("lint exposition: %v", err)
		}
		vals := map[string]float64{}
		for _, s := range exp.Samples {
			vals[s.Key()] = s.Value
		}
		return vals
	}

	before := scrape()
	sql := tlcSQLFor(t, "Q3")
	if _, err := db.Query(sql); err != nil { // fresh statement: cache miss
		t.Fatal(err)
	}
	if _, err := db.Query(sql); err != nil { // repeat: cache hit
		t.Fatal(err)
	}
	after := scrape()

	if d := after["beas_plan_cache_misses_total"] - before["beas_plan_cache_misses_total"]; d != 1 {
		t.Errorf("plan-cache misses grew by %v, want 1", d)
	}
	if d := after["beas_plan_cache_hits_total"] - before["beas_plan_cache_hits_total"]; d < 1 {
		t.Errorf("plan-cache hits grew by %v, want >= 1", d)
	}
	// In-memory database: WAL series exist (the page is stable whether
	// or not durability is on) and stay zero.
	for _, name := range []string{"beas_wal_size_bytes", "beas_wal_last_lsn", "beas_wal_appends_total"} {
		v, ok := after[name]
		if !ok {
			t.Errorf("%s missing from exposition", name)
		} else if v != 0 {
			t.Errorf("%s = %v on an in-memory store, want 0", name, v)
		}
	}
}

// TestDigestsRecordFailedStatements: a statement that fails before it
// produces rows — a context already cancelled, an analysis error, an
// uncovered statement under QueryBounded — still folds exactly one
// observation with its outcome into the workload digests, through Query
// and through QueryIter alike (beasd serves through QueryIter).
func TestDigestsRecordFailedStatements(t *testing.T) {
	db := randomDB(t, rand.New(rand.NewSource(5)))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	const covered, unknownCol = "SELECT r.c FROM r WHERE r.a = 1", "SELECT r.nope FROM r WHERE r.a = 1"
	query := func(ctx context.Context, sql string) error {
		_, err := db.QueryContext(ctx, sql)
		return err
	}
	cursor := func(ctx context.Context, sql string) error {
		ri, err := db.QueryIterContext(ctx, sql)
		if err == nil {
			ri.Close()
		}
		return err
	}
	bounded := func(ctx context.Context, sql string) error {
		_, err := db.QueryBoundedContext(ctx, sql)
		return err
	}
	for _, c := range []struct {
		name     string
		run      func(context.Context, string) error
		ctx      context.Context
		sql      string
		canceled bool
	}{
		{"Query/cancelled", query, cancelled, covered, true},
		{"Query/analysis error", query, context.Background(), unknownCol, false},
		{"QueryIter/cancelled", cursor, cancelled, covered, true},
		{"QueryIter/analysis error", cursor, context.Background(), unknownCol, false},
		{"QueryBounded/uncovered", bounded, context.Background(), "SELECT r.a FROM r WHERE r.c = 'c1'", false},
	} {
		d := NewDigestSet(0)
		db.SetDigests(d)
		if err := c.run(c.ctx, c.sql); err == nil {
			t.Fatalf("%s: statement succeeded", c.name)
		}
		if n := d.Observations(); n != 1 {
			t.Errorf("%s: %d digest observations, want 1", c.name, n)
			continue
		}
		snap := d.Snapshot()
		want := DigestSnapshot{Calls: 1, Errors: 1}
		if c.canceled {
			want = DigestSnapshot{Calls: 1, Cancels: 1}
		}
		if len(snap) != 1 || snap[0].Calls != want.Calls || snap[0].Errors != want.Errors || snap[0].Cancels != want.Cancels {
			t.Errorf("%s: digests = %+v, want one entry with calls=1 errors=%d cancels=%d",
				c.name, snap, want.Errors, want.Cancels)
		}
	}
	db.SetDigests(nil)
}

// BenchmarkTracedQuery prices the tracer on the hot query path: off
// (the default every query pays), installed-but-unsampled (spans are
// recorded, retention skipped) and sampled (full retention). The "off"
// series is what the PR 6 perf gate compares against.
func BenchmarkTracedQuery(b *testing.B) {
	sql := tlcSQLFor(b, "Q1")
	for _, mode := range []struct {
		name string
		tc   *Tracer
	}{
		{"off", nil},
		{"unsampled", NewTracer(TracerOptions{SampleRate: 0, RingSize: 8})},
		{"sampled", NewTracer(TracerOptions{SampleRate: 1, RingSize: 8})},
	} {
		b.Run(mode.name, func(b *testing.B) {
			db := tlcDB(b, 1)
			db.SetTracer(mode.tc)
			defer db.SetTracer(nil) // tlcCache instances are shared
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.QueryBounded(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMetricsOverhead prices an installed metrics registry on the
// same path. DB-level metrics are scrape-time (CounterFunc/GaugeFunc
// over existing internal counters), so "on" should be indistinguishable
// from "off".
func BenchmarkMetricsOverhead(b *testing.B) {
	sql := tlcSQLFor(b, "Q1")
	b.Run("off", func(b *testing.B) {
		db := tlcDB(b, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryBounded(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		db := tlcDB(b, 1)
		db.SetMetrics(NewMetricsRegistry())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryBounded(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
}
