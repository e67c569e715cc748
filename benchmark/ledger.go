package main

// The outside-in cost ledger. The traced run walks sampled requests
// through the layers' exported functions, from this file, and records a
// span (name, start, end, parent, request id) around every call. Nothing
// inside the program is instrumented: where a call's interior cannot be
// reached from outside (the handler's calls into the facade, the
// facade's calls into the layers) the walker makes the same calls again
// right after the real one and hangs them under it as "replay" spans.
// Spans stay in memory and are written as JSON lines when the run ends.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/bounded-eval/beas/internal/access"
	"github.com/bounded-eval/beas/internal/analyze"
	"github.com/bounded-eval/beas/internal/core"
	"github.com/bounded-eval/beas/internal/engine"
	"github.com/bounded-eval/beas/internal/opt"
	"github.com/bounded-eval/beas/internal/qcache"
	"github.com/bounded-eval/beas/internal/schema"
	"github.com/bounded-eval/beas/internal/sqlparser"
	"github.com/bounded-eval/beas/internal/stats"
	"github.com/bounded-eval/beas/internal/storage"
	"github.com/bounded-eval/beas/internal/tlc"
	"github.com/bounded-eval/beas/internal/value"
)

// Span kinds. A real span timed the workload's own execution; a replay
// repeated a call its parent made out of reach; a derived span is cut
// out of its parent with clocks the program already exposes
// (core.Stats step durations); a probe is a call the workload's path
// does not make, taken so that every layer has a cost on every
// workload's instance. Probes never count into self times or coverage.
const (
	kindReal    = "real"
	kindReplay  = "replay"
	kindDerived = "derived"
	kindProbe   = "probe"
)

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = the request itself
	Req    int    `json:"req"`
	Name   string `json:"name"` // layer.call; the layer is the package name
	Kind   string `json:"kind"`
	Start  int64  `json:"start_ns"` // since the ledger's epoch
	End    int64  `json:"end_ns"`
}

func (s *span) dur() float64 { return float64(s.End - s.Start) }

func (s *span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// ledger collects spans. The handler span is recorded on a server
// goroutine, hence the mutex; everything else is the single walker.
type ledger struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// cur is the request and parent span the handler middleware files its
	// span under; recording is off (cur.req < 0) outside the walk.
	curReq, curParent int
	curKind           string
	bytesOut          int64
}

func newLedger() *ledger { return &ledger{epoch: time.Now(), curReq: -1} }

func (l *ledger) add(req, parent int, name, kind string, start time.Time, d time.Duration) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	s := start.Sub(l.epoch).Nanoseconds()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name, Kind: kind, Start: s, End: s + d.Nanoseconds()})
	return id
}

// begin opens a span whose id a nested recorder needs before it ends.
func (l *ledger) begin(req, parent int, name, kind string) int {
	return l.add(req, parent, name, kind, time.Now(), 0)
}

func (l *ledger) finish(id int) {
	end := time.Since(l.epoch).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].End = end
	l.mu.Unlock()
}

// announce tells the handler middleware which request and parent span
// the next handler call belongs to; req < 0 turns recording off.
func (l *ledger) announce(req, parent int, kind string) {
	l.mu.Lock()
	l.curReq, l.curParent, l.curKind = req, parent, kind
	l.mu.Unlock()
}

// lastNamed returns the id of the newest span of req called name.
func (l *ledger) lastNamed(req int, name string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.spans) - 1; i >= 0; i-- {
		if l.spans[i].Req == req && l.spans[i].Name == name {
			return l.spans[i].ID
		}
	}
	return 0
}

// timed records a span around fn.
func (l *ledger) timed(req, parent int, name, kind string, fn func()) int {
	t0 := time.Now()
	fn()
	return l.add(req, parent, name, kind, t0, time.Since(t0))
}

// durOf returns the duration of span id in ns.
func (l *ledger) durOf(id int) float64 { return l.spans[id-1].dur() }

// middleware records the real handler span of the request the walker
// announced, and counts the bytes the handler wrote.
func (l *ledger) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.mu.Lock()
		req, parent, kind := l.curReq, l.curParent, l.curKind
		l.mu.Unlock()
		if req < 0 {
			next.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		t0 := time.Now()
		next.ServeHTTP(cw, r)
		l.add(req, parent, "server.handler", kind, t0, time.Since(t0))
		l.mu.Lock()
		l.bytesOut += cw.n
		l.mu.Unlock()
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// durations returns the ns durations of every span called name.
func (l *ledger) durations(name string) []float64 {
	var out []float64
	for i := range l.spans {
		if l.spans[i].Name == name {
			out = append(out, l.spans[i].dur())
		}
	}
	return out
}

func (l *ledger) medianOf(name string) (float64, int) {
	d := l.durations(name)
	return median(d), len(d)
}

// selfs returns every span's self time (indexed by id-1): its duration
// minus its children's. A probe child is not part of an on-path parent.
func (l *ledger) selfs() []float64 {
	out := make([]float64, len(l.spans))
	for i := range l.spans {
		out[i] = l.spans[i].dur()
	}
	for i := range l.spans {
		s := &l.spans[i]
		if s.Parent == 0 {
			continue
		}
		if p := &l.spans[s.Parent-1]; s.Kind != kindProbe || p.Kind == kindProbe {
			out[s.Parent-1] -= s.dur()
		}
	}
	return out
}

// selfOfNamed is, per request, the summed self time of the spans called
// one of names — of the probe spans when probes is set, else of the
// spans on the workload's path. Requests without such a span are absent.
func (l *ledger) selfOfNamed(probes bool, names ...string) []float64 {
	selfs := l.selfs()
	per := make(map[int]float64)
	for i := range l.spans {
		s := &l.spans[i]
		if (s.Kind == kindProbe) != probes {
			continue
		}
		for _, n := range names {
			if s.Name == n {
				per[s.Req] += selfs[i]
			}
		}
	}
	out := make([]float64, 0, len(per))
	for _, v := range per {
		out = append(out, v)
	}
	return out
}

// leafTime is, per request, the time spent inside calls the walker made
// into the layers on the workload's path: the on-path spans that have
// no on-path child.
func (l *ledger) leafTime() map[int]float64 {
	parent := make([]bool, len(l.spans))
	for i := range l.spans {
		if s := &l.spans[i]; s.Parent != 0 && s.Kind != kindProbe {
			parent[s.Parent-1] = true
		}
	}
	out := make(map[int]float64)
	for i := range l.spans {
		s := &l.spans[i]
		if s.Req < 0 || s.Kind == kindProbe || s.Kind == kindReal || parent[i] {
			continue
		}
		out[s.Req] += s.dur()
	}
	return out
}

// layerSelf is each layer's on-path self time, as the median over the
// walked requests (0 for a request that never entered the layer).
func (l *ledger) layerSelf() map[string]float64 {
	selfs := l.selfs()
	per := make(map[int]map[string]float64)
	layers := make(map[string]bool)
	for i := range l.spans {
		s := &l.spans[i]
		if s.Kind == kindProbe || s.Req < 0 {
			continue
		}
		if per[s.Req] == nil {
			per[s.Req] = make(map[string]float64)
		}
		per[s.Req][s.layer()] += selfs[i]
		layers[s.layer()] = true
	}
	out := make(map[string]float64, len(layers))
	for layer := range layers {
		var v []float64
		for _, m := range per {
			v = append(v, m[layer])
		}
		out[layer] = median(v)
	}
	return out
}

func (l *ledger) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stack is the benchmark's own assembly of the layers under the facade,
// over the same generated instance: the facade's fields are unexported,
// so the walker cannot call core.Check on the facade's access schema —
// it calls it on this one.
type stack struct {
	sch   *schema.Database
	store *storage.Store
	as    *access.Schema
	optz  *opt.Optimizer
	qc    *qcache.Cache
	eng   *engine.Engine
	// footprint is the heap the constraint indices took per base row.
	footprint float64
}

func newStack(scale int, resultCache bool) (*stack, error) {
	s := &stack{sch: tlc.Database()}
	s.store = storage.NewStore(s.sch)
	// The facade's generator seed (tlc.go): the same instance.
	if err := tlc.Generate(s.store, tlc.Config{Scale: scale, Seed: 20170514}); err != nil {
		return nil, err
	}
	before := heapAlloc()
	s.as = access.NewSchema(s.store)
	for _, spec := range tlc.AccessSchemaSpecs() {
		c, err := access.ParseConstraint(s.sch, spec)
		if err != nil {
			return nil, err
		}
		if _, err := s.as.Register(c, false); err != nil {
			return nil, err
		}
	}
	s.footprint = (heapAlloc() - before) / float64(max(s.store.TotalRows(), 1))
	s.optz = opt.New(stats.NewCatalog(s.store, s.as))
	s.qc = qcache.New(0, 0, resultCache)
	s.eng = engine.New(s.store, engine.ProfilePostgres).WithVectorized(true)
	return s, nil
}

// walked is what one layered execution of a statement did.
type walked struct {
	fetched, keys, tailIn, rows int64
	bound                       uint64
	cacheHit                    bool
}

// analysed is the walker's template payload (the facade's is private).
type analysed struct{ q *analyze.Query }

// frontEnd is parse + analyse + canonicalise, each under its span.
func (s *stack) frontEnd(l *ledger, req, parent int, kind, sql string) (*qcache.Template, error) {
	var stmt *sqlparser.Statement
	var q *analyze.Query
	var err error
	l.timed(req, parent, "sqlparser.parse", kind, func() { stmt, err = sqlparser.Parse(sql) })
	if err != nil {
		return nil, err
	}
	if stmt.Union != nil {
		return nil, fmt.Errorf("ledger: UNION statements are not in any workload")
	}
	l.timed(req, parent, "analyze.analyze", kind, func() { q, err = analyze.Analyze(stmt.Select, s.sch) })
	if err != nil {
		return nil, err
	}
	t := &qcache.Template{Text: sql, Parsed: &analysed{q}}
	l.timed(req, parent, "analyze.canonical", kind, func() {
		fp, params, ok := analyze.Canonical(q)
		t.Fingerprint, t.Params, t.Shareable = fp, params, ok
		t.ResultKey = "!text\x00" + sql
		if ok {
			t.ResultKey = fp + "\x00" + value.Key(params)
		}
	})
	return t, nil
}

// template is the facade's parseLocked: a template-tier lookup, and on
// a miss the front end plus the insert. With probe set the front end
// runs even on a hit, as probe spans.
func (s *stack) template(l *ledger, req, parent int, kind, sql string, probe bool) (*qcache.Template, error) {
	var t *qcache.Template
	var hit bool
	l.timed(req, parent, "qcache.template_get", kind, func() { t, hit = s.qc.GetTemplate(sql, 0) })
	if hit {
		if probe {
			if _, err := s.frontEnd(l, req, parent, kindProbe, sql); err != nil {
				return nil, err
			}
		}
		return t, nil
	}
	t, err := s.frontEnd(l, req, parent, kind, sql)
	if err != nil {
		return nil, err
	}
	l.timed(req, parent, "qcache.template_put", kind, func() { s.qc.PutTemplate(t) })
	return t, nil
}

// check is the facade's checkSpanLocked: the BE checker, then the
// optimizer when the workload has it on (as a probe when it has not and
// probe is set).
func (s *stack) check(l *ledger, req, parent int, q *analyze.Query, optimizer, probe bool) *core.CheckResult {
	var chk *core.CheckResult
	l.timed(req, parent, "core.check", kindReplay, func() { chk = core.Check(q, s.as) })
	if optimizer {
		l.timed(req, parent, "opt.rewrite", kindReplay, func() { chk = s.optz.Rewrite(q, chk, s.as) })
	} else if probe {
		l.timed(req, parent, "opt.rewrite", kindProbe, func() { s.optz.Rewrite(q, chk, s.as) })
	}
	return chk
}

// walkCheck replays DB.CheckContext: template, check, plan, plan text.
func (s *stack) walkCheck(l *ledger, req, parent int, sql string, optimizer bool) error {
	t, err := s.template(l, req, parent, kindReplay, sql, false)
	if err != nil {
		return err
	}
	q := t.Parsed.(*analysed).q
	chk := s.check(l, req, parent, q, optimizer, false)
	var plan *core.Plan
	l.timed(req, parent, "core.newplan", kindReplay, func() { plan, err = core.NewPlan(q, chk) })
	if err != nil {
		return err
	}
	l.timed(req, parent, "core.describe", kindReplay, func() { _ = plan.Describe() })
	return nil
}

// run executes a bounded plan under a core.run span and cuts the span
// into access.fetch (the executor's own per-step clocks, which exclude
// upstream and downstream time) and exec.tail (the remainder).
func (s *stack) run(l *ledger, req, parent int, kind string, plan *core.Plan) (*core.Stats, []value.Row, error) {
	plan.Vectorized = true
	var st *core.Stats
	var rows []value.Row
	var err error
	t0 := time.Now()
	id := l.timed(req, parent, "core.run", kind, func() { rows, st, err = core.RunContext(context.Background(), plan) })
	if err != nil {
		return nil, nil, err
	}
	var fetch time.Duration
	for i := range st.Steps {
		fetch += st.Steps[i].Duration
	}
	total := time.Duration(l.durOf(id))
	fetch = min(fetch, total)
	l.add(req, id, "access.fetch", kindDerived, t0, fetch)
	l.add(req, id, "exec.tail", kindDerived, t0.Add(fetch), total-fetch)
	return st, rows, nil
}

// walkRead replays DB.Query / QueryIter below the facade for one
// statement. With probe set it also takes the calls this workload's
// path skips, and the comparisons that need a second execution.
func (s *stack) walkRead(l *ledger, req, parent int, sql string, w *workload, probe bool, agg *ledgerCounts) (walked, error) {
	var out walked
	t, err := s.template(l, req, parent, kindReplay, sql, probe)
	if err != nil {
		return out, err
	}
	q := t.Parsed.(*analysed).q
	if w.resultCache {
		var cr qcache.CachedResult
		l.timed(req, parent, "qcache.result_get", kindReplay, func() { cr, out.cacheHit = s.qc.GetResult(t.ResultKey) })
		if out.cacheHit {
			out.rows, out.fetched, out.bound = int64(len(cr.Rows)), cr.TuplesFetched, cr.Bound
			return out, nil
		}
	} else if probe {
		l.timed(req, parent, "qcache.result_get", kindProbe, func() { s.qc.GetResult(t.ResultKey) })
	}
	var tvs []qcache.TableVersion
	if w.resultCache {
		for _, a := range q.Atoms {
			tab := s.store.MustTable(a.Rel.Name)
			tvs = append(tvs, qcache.TableVersion{Table: tab, Version: tab.Version()})
		}
	}
	chk := s.check(l, req, parent, q, w.optimizer, probe)
	var plan *core.Plan
	l.timed(req, parent, "core.newplan", kindReplay, func() { plan, err = core.NewPlan(q, chk) })
	if err != nil {
		return out, err
	}
	plan.CollectKeys = w.resultCache
	st, rows, err := s.run(l, req, parent, kindReplay, plan)
	if err != nil {
		return out, err
	}
	out.rows, out.fetched, out.bound = int64(len(rows)), st.Fetched, chk.TotalBound
	for i := range st.Steps {
		out.keys += st.Steps[i].DistinctKey
	}
	if n := len(st.Steps); n > 0 {
		out.tailIn = st.Steps[n-1].RowsOut
	}
	if w.resultCache {
		l.timed(req, parent, "qcache.store", kindReplay, func() { s.store1(t, q, plan, chk, st, rows, tvs, w.optimizer) })
	}
	if probe {
		if err := s.probeRead(l, req, parent, q, chk, w, st.Fetched, agg); err != nil {
			return out, err
		}
	}
	return out, nil
}

// store1 admits one executed answer into the stack's result tier the
// way the facade's queryEval does.
func (s *stack) store1(t *qcache.Template, q *analyze.Query, plan *core.Plan, chk *core.CheckResult, st *core.Stats, rows []value.Row, tvs []qcache.TableVersion, optimizer bool) {
	var regs []qcache.StepReg
	for si := range plan.Steps {
		var keys []string
		if st.StepKeys != nil {
			keys = st.StepKeys[si]
		}
		regs = append(regs, qcache.StepReg{Table: s.store.MustTable(q.Atoms[plan.Steps[si].Atom].Rel.Name),
			Step: &plan.Steps[si], Keys: keys, StatIdx: si})
	}
	s.qc.Store(&qcache.StoreRequest{
		Key: t.ResultKey,
		Result: &qcache.CachedResult{Columns: q.OutputNames(), Rows: rows, Bound: chk.TotalBound,
			ConstraintsUsed: chk.ConstraintsUsed, TuplesFetched: st.Fetched, Steps: st.Steps, Optimized: optimizer},
		Branches: 1, Query: q, Plan: plan, Steps: regs, Tables: tvs, OptimizerOn: optimizer,
	})
}

// ledgerCounts accumulates the counts the walk takes at the same
// boundaries as its spans.
type ledgerCounts struct {
	reads                     int64 // bounded executions walked
	fetched, keys, tailIn     int64
	bound                     float64
	probeKeys, probeRows      int64
	fetchedOpt, fetchedGreedy int64
	scanned, baselineRuns     int64
}

// probeRead takes, for one statement, the measurements that need a
// second execution: every probed key fetched straight from its index
// (access.fetch_ns_per_key), and the other planner's fetch volume
// (opt.fetched_vs_greedy_ratio).
func (s *stack) probeRead(l *ledger, req, parent int, q *analyze.Query, chk *core.CheckResult, w *workload, fetched int64, agg *ledgerCounts) error {
	plan, err := core.NewPlan(q, chk)
	if err != nil {
		return err
	}
	plan.Vectorized, plan.CollectKeys = true, true
	_, st, err := core.RunContext(context.Background(), plan)
	if err != nil {
		return err
	}
	l.timed(req, parent, "access.fetch_keys", kindProbe, func() {
		for si := range plan.Steps {
			ix := plan.Steps[si].Index
			for _, k := range st.StepKeys[si] {
				_, _, n := ix.FetchWeightedEncoded(k)
				agg.probeKeys++
				agg.probeRows += int64(n)
			}
		}
	})
	other := core.Check(q, s.as) // greedy
	if !w.optimizer {
		other = s.optz.Rewrite(q, other, s.as)
	}
	op, err := core.NewPlan(q, other)
	if err != nil {
		return err
	}
	op.Vectorized = true
	_, ost, err := core.RunContext(context.Background(), op)
	if err != nil {
		return err
	}
	if w.optimizer {
		agg.fetchedOpt += fetched
		agg.fetchedGreedy += ost.Fetched
	} else {
		agg.fetchedOpt += ost.Fetched
		agg.fetchedGreedy += fetched
	}
	return nil
}

// walkBaseline replays DB.QueryBaseline below the facade.
func (s *stack) walkBaseline(l *ledger, req, parent int, kind, sql string, agg *ledgerCounts) error {
	t, err := s.template(l, req, parent, kind, sql, false)
	if err != nil {
		return err
	}
	var est *engine.Stats
	l.timed(req, parent, "engine.run", kind, func() {
		_, est, err = s.eng.RunContext(context.Background(), t.Parsed.(*analysed).q)
	})
	if err != nil {
		return err
	}
	agg.scanned += est.Scanned
	agg.baselineRuns++
	return nil
}

func heapAlloc() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}
