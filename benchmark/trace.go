package main

// The traced ledger run: a shortened untraced window (for the counters
// and the workload-specific end-to-end numbers), then the walk of
// sampled requests through the layers under spans, then the probes that
// give every layer a measured cost on this workload's instance.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	beas "github.com/bounded-eval/beas"
	"github.com/bounded-eval/beas/internal/access"
	"github.com/bounded-eval/beas/internal/obs"
	"github.com/bounded-eval/beas/internal/server"
	"github.com/bounded-eval/beas/internal/storage"
	"github.com/bounded-eval/beas/internal/tlc"
	"github.com/bounded-eval/beas/internal/value"
	"github.com/bounded-eval/beas/internal/wal"
)

// probeEvery: one walked request in this many also takes the off-path
// calls; baselineEvery: one in this many also runs the conventional
// engine where the workload itself never does.
const (
	probeEvery    = 8
	baselineEvery = 32
	probeReqBase  = 1_000_000 // request ids of the embedded workloads' HTTP probe
)

func (w *workload) runTraced(cfg *runConfig, why string) (*runResult, error) {
	l := newLedger()
	var wrap func(http.Handler) http.Handler
	if w.http {
		wrap = l.middleware
	}
	e, setupD, err := w.setup(cfg, wrap)
	if err != nil {
		return nil, err
	}
	defer e.close()
	p, err := w.prepare(cfg, e)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	if w.http {
		reg = e.srv.Registry()
	} else {
		e.db.SetMetrics(reg)
	}

	half := *cfg
	half.window, half.warmup = cfg.window/2, cfg.warmup/2
	res, err := w.runWindow(&half, e, p)
	if err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	appends := reg.Counter("beas_wal_appends_total", "", nil).Value()
	fsyncs := reg.Histogram("beas_wal_fsync_seconds", "", obs.LatencyBuckets, nil).Count()
	post, err := w.verifyAfter(e, p, res)
	if err != nil {
		return nil, err
	}
	r := newResult(w, why, true)
	w.fold(r, res, post, setupD.Seconds())
	w.secondary(r, res, post)
	r.Checks = w.validity(&half, e, p, res, post)
	w.describe(r, e, p)

	r.set("runtime.gc_cpu_fraction", ms.GCCPUFraction, 0)
	r.set("runtime.heap_inuse_mb", float64(ms.HeapInuse)/(1<<20), 0)
	c0, c1 := res.cacheStart, res.cacheEnd
	tHits, tMiss := c1.TemplateHits-c0.TemplateHits, c1.TemplateMisses-c0.TemplateMisses
	r.set("qcache.template_hit_ratio", ratio(tHits, tHits+tMiss), int(tHits+tMiss))
	r.set("qcache.template_evictions", math.Max(0, float64(c1.TemplateMisses)-float64(c1.TemplateEntries)), 0)
	r.set("qcache.result_hit_ratio", ratio(c1.Hits-c0.Hits, c1.Hits-c0.Hits+c1.Misses-c0.Misses), int(c1.Hits-c0.Hits+c1.Misses-c0.Misses))
	r.set("qcache.patches", float64(c1.Patches-c0.Patches), 0)
	r.set("qcache.invalidations", float64(c1.Invalidations-c0.Invalidations), 0)
	r.set("qcache.stores", float64(c1.Stores-c0.Stores), 0)
	if appends > 0 {
		r.set("wal.fsyncs_per_mutation", float64(fsyncs)/float64(appends), int(appends))
	}
	if w.http {
		if err := serverMetrics(r, res.metrics); err != nil {
			return nil, err
		}
	}

	t := &tracedRun{w: w, cfg: cfg, e: e, p: p, l: l, r: r, windowEnd: res.clients[0].ops, applied: res.writer.applied}
	if err := t.run(); err != nil {
		return nil, err
	}
	if cfg.traceOut != "" {
		if err := l.write(cfg.traceOut); err != nil {
			return nil, err
		}
	}
	for _, d := range perLayer {
		if _, ok := r.Metrics[d.name]; !ok {
			return nil, fmt.Errorf("traced run produced no %s", d.name)
		}
	}
	return r, nil
}

// serverMetrics reads the stage histograms and admission counters out of
// the /metrics text the server already publishes.
func serverMetrics(r *runResult, text []byte) error {
	exp, err := obs.ParsePrometheus(bytes.NewReader(text))
	if err != nil {
		return fmt.Errorf("parsing /metrics: %w", err)
	}
	get := func(name, labels string) float64 {
		for _, s := range exp.Samples {
			if s.Name == name && s.Labels == labels {
				return s.Value
			}
		}
		return 0
	}
	stage := func(st string) (float64, int) {
		lab := `{stage="` + st + `"}`
		n := get("beas_stage_duration_seconds_count", lab)
		if n == 0 {
			return 0, 0
		}
		return 1e9 * get("beas_stage_duration_seconds_sum", lab) / n, int(n)
	}
	c, n := stage("check")
	r.set("server.check_stage_ns", c, n)
	x, n := stage("execute")
	r.set("server.execute_stage_ns", x, n)
	var rejects float64
	for _, o := range []string{"rejected_budget", "rejected_uncovered", "rejected_busy"} {
		rejects += get("beas_admission_total", `{outcome="`+o+`"}`)
	}
	r.set("server.rejects", rejects, 0)
	return nil
}

// tracedRun is the state of one ledger walk.
type tracedRun struct {
	w   *workload
	cfg *runConfig
	e   *env
	p   *prepared
	l   *ledger
	r   *runResult

	big, small *stack
	agg        ledgerCounts
	cl         *httpClient
	op         opFunc          // client 0's operation, as the window ran it
	windowEnd  int             // client 0's position in its list when the window ended
	applied    int             // how far into the mutation list the window's writer got
	rows       map[int]float64 // result rows per walked request
	inserts    []int           // indices into p.in.muts the probes may apply, fresh keys
	hotInserts []int
	next       int // next unused entry of inserts
}

// Passes over the sampled requests. http_coldtext's texts must be new to
// the template tier whenever they are sent, so each pass reads its own
// stretch of client 0's list: passOffset beyond where the window left
// it (the tier holds at most the ~14 000 texts before that point),
// passStride apart — a multiple of coldBases, so request i has the same
// base statement in every pass. The other workloads repeat their texts
// anyway.
const (
	passUntraced = iota
	passTraced
	passReplay
	passStride = 8 * coldBases
	passOffset = 16 * coldBases
)

// pos is where sampled request i of a pass sits in client 0's request
// order — the j its opFunc takes.
func (t *tracedRun) pos(pass, i int) int {
	if len(t.p.in.texts) > len(t.p.in.bases) {
		i += t.windowEnd + passOffset + pass*passStride
	}
	return i
}

// request is sampled request i of a pass: a text and, for scale_sweep,
// an arm (the opFuncs' own mapping from j).
func (t *tracedRun) request(pass, i int) (text int32, arm int) {
	order, j := t.p.in.reqs[0], t.pos(pass, i)
	if t.w.sweep {
		return order[(j/sweepArms)%len(order)], j % sweepArms
	}
	return order[j%len(order)], 0
}

func (t *tracedRun) run() error {
	w, e, r := t.w, t.e, t.r
	var err error
	if t.big, err = newStack(e.scale, w.resultCache); err != nil {
		return err
	}
	r.set("access.footprint_bytes_per_row", t.big.footprint, t.big.store.TotalRows())
	if w.sweep {
		if t.small, err = newStack(1, false); err != nil {
			return err
		}
	}
	switch {
	case w.http:
		if t.cl, err = dialHTTP(e.addr); err != nil {
			return err
		}
		defer t.cl.close()
		t.op = w.httpOp(t.p, 0, t.cl)
	case w.sweep:
		t.op = w.sweepOp(e, t.p)
	default:
		t.op = w.embeddedOp(e, t.p, 0)
	}
	t.rows = make(map[int]float64)
	t.pickInserts()

	n := t.cfg.ledgerReqs
	untraced, err := t.untracedPass(n)
	if err != nil {
		return err
	}
	top, err := t.walk(n)
	if err != nil {
		return err
	}
	if !w.http {
		if err := t.httpProbe(min(n, 256)); err != nil {
			return err
		}
	}
	if err := t.writeWalk(); err != nil {
		return err
	}
	t.scanProbe()
	if err := t.facadeProbes(); err != nil {
		return err
	}
	t.layerMetrics(untraced, top)
	return nil
}

// pickInserts lists the writer operations kept back for the probes:
// the tail of the workload's own list, or a standard seeded list where
// the workload has no writer.
func (t *tracedRun) pickInserts() {
	if t.w.writeRate == 0 {
		t.p.in.muts = genMutations(t.cfg.seed, t.cfg.probeMutations, nil)
		t.p.args = mutationArgs(t.p.in.muts)
	}
	from := max(len(t.p.in.muts)-t.cfg.probeMutations, t.applied)
	for i := from; i < len(t.p.in.muts); i++ {
		m := &t.p.in.muts[i]
		switch {
		case m.del:
		case m.hot:
			t.hotInserts = append(t.hotInserts, i)
		default:
			t.inserts = append(t.inserts, i)
		}
	}
}

// take hands out the next n unused fresh-key inserts.
func (t *tracedRun) take(n int) []int {
	n = min(n, len(t.inserts)-t.next)
	out := t.inserts[t.next : t.next+n]
	t.next += n
	return out
}

// primary performs request i the way the workload's clients do and
// fails on anything but a verified answer.
func (t *tracedRun) primary(i int) error {
	var st clientStats
	if class, _ := t.op(t.pos(passUntraced, i), &st); class >= 0 {
		text, _ := t.request(passUntraced, i)
		return fmt.Errorf("ledger: request %d (%s): %s", i, t.p.in.texts[text], failNames[class])
	}
	return nil
}

// untracedPass runs the sampled requests once with no span recorded:
// the single-client latency the ledger is held against, and the
// allocation counts of the primary path.
func (t *tracedRun) untracedPass(n int) ([]float64, error) {
	for i := 0; i < min(n, 256); i++ { // connection, caches, template tier
		if err := t.primary(i); err != nil {
			return nil, err
		}
	}
	lat := make([]float64, 0, n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := t.primary(i); err != nil {
			return nil, err
		}
		lat = append(lat, float64(time.Since(t0)))
	}
	runtime.ReadMemStats(&m1)
	t.r.set("beas.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(n), n)
	t.r.set("beas.alloc_bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n), n)
	return lat, nil
}

// drain is DB.QueryIter read to the end, the call the handler makes.
func drain(db *beas.DB, sql string) error {
	ri, err := db.QueryIter(sql)
	if err != nil {
		return err
	}
	defer ri.Close()
	for {
		b, err := ri.NextBatch()
		if err != nil || b == nil {
			return err
		}
	}
}

// exchange sends request i over HTTP under a net.roundtrip span, with
// the handler's span (recorded by the middleware, in the same execution)
// beneath it, then replays the handler's two calls into the facade
// beneath that. It returns the roundtrip's and the QueryIter replay's ids.
func (t *tracedRun) exchange(i int, kind, replayKind string) (rt, iter int, err error) {
	l, db := t.l, t.e.db
	text, _ := t.request(passTraced, i%probeReqBase)
	again, _ := t.request(passReplay, i%probeReqBase)
	sql, replaySQL := t.p.in.texts[text], t.p.in.texts[again]
	rt = l.begin(i, 0, "net.roundtrip", kind)
	l.announce(i, rt, kind)
	status, _, err := t.cl.do(t.p.reqs[text])
	l.finish(rt)
	l.announce(-1, 0, "")
	if err != nil || status != http.StatusOK {
		return 0, 0, fmt.Errorf("status %d: %v", status, err)
	}
	h := l.lastNamed(i, "server.handler")
	chk := l.timed(i, h, "beas.check", replayKind, func() { _, err = db.CheckContext(context.Background(), replaySQL) })
	if err == nil && replayKind == kindReplay {
		err = t.big.walkCheck(l, i, chk, sql, t.w.optimizer)
	}
	if err != nil {
		return 0, 0, err
	}
	iter = l.timed(i, h, "beas.queryiter", replayKind, func() { err = drain(db, replaySQL) })
	return rt, iter, err
}

// walk is the traced pass: every sampled request again, under spans.
// It returns the durations of the top-level span of each request.
func (t *tracedRun) walk(n int) ([]float64, error) {
	w, l := t.w, t.l
	top := make([]float64, 0, n)
	deadline := time.Now().Add(60 * time.Second)
	for i := 0; i < n && time.Now().Before(deadline); i++ {
		text, arm := t.request(passTraced, i)
		sql := t.p.in.texts[text]
		probe := i%probeEvery == 0
		st, db := t.big, t.e.db
		if w.sweep && (arm == armBoundedSmall || arm == armBaselineSmall) {
			st, db = t.small, t.e.small
		}
		var err error
		var topID, facade int
		switch {
		case w.http:
			if topID, facade, err = t.exchange(i, kindReal, kindReplay); err == nil && probe {
				l.timed(i, 0, "beas.query", kindProbe, func() { _, err = db.Query(sql) })
			}
		case w.sweep && (arm == armBaselineSmall || arm == armBaselineBig):
			topID = l.timed(i, 0, "beas.baseline", kindReal, func() { _, err = db.QueryBaseline(sql, beas.BaselinePostgres) })
			if err == nil {
				err = st.walkBaseline(l, i, topID, kindReplay, sql, &t.agg)
			}
		default:
			topID = l.timed(i, 0, "beas.query", kindReal, func() { _, err = db.Query(sql) })
			facade = topID
			if err == nil && probe {
				l.timed(i, 0, "beas.queryiter", kindProbe, func() { err = drain(db, sql) })
			}
		}
		if err == nil && facade != 0 {
			var wk walked
			if wk, err = st.walkRead(l, i, facade, sql, w, probe, &t.agg); err == nil {
				if !wk.cacheHit {
					t.agg.reads++
					t.agg.fetched += wk.fetched
					t.agg.keys += wk.keys
					t.agg.tailIn += wk.tailIn
					t.agg.bound += float64(wk.bound)
				}
				t.rows[i] = float64(wk.rows)
				if !w.sweep && i%baselineEvery == 0 {
					err = st.walkBaseline(l, i, 0, kindProbe, sql, &t.agg)
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("ledger: request %d (%s): %w", i, sql, err)
		}
		top = append(top, l.durOf(topID))
	}
	return top, nil
}

// httpProbe gives an embedded workload its server and loopback numbers:
// the real handler over the workload's DB, n of its statements, every
// span a probe, under request ids of their own.
func (t *tracedRun) httpProbe(n int) error {
	if err := t.e.serve(t.l.middleware); err != nil {
		return err
	}
	var err error
	if t.cl, err = dialHTTP(t.e.addr); err != nil {
		return err
	}
	defer t.cl.close()
	t.p.reqs = make([][]byte, len(t.p.in.texts))
	for i, sql := range t.p.in.texts {
		t.p.reqs[i] = queryRequest(sql)
	}
	for i := 0; i < n; i++ {
		if _, _, err := t.exchange(probeReqBase+i, kindProbe, kindProbe); err != nil {
			return fmt.Errorf("ledger: http probe %d: %w", i, err)
		}
	}
	text, err := httpGet(t.e.addr, "/metrics")
	if err != nil {
		return err
	}
	return serverMetrics(t.r, text)
}

// writeWalk walks inserts through the write path's layers: the log
// (append, then fsync, as two calls), the table, and each constraint
// index of the table — on a write-side stack of empty call and sms
// tables whose indices are built but not attached as observers, so each
// call is one layer and nothing else. Request ids are negative: the
// write walk is not part of the read ledger.
func (t *tracedRun) writeWalk() error {
	l, r := t.l, t.r
	dir := filepath.Join(t.cfg.scratch, "ledger-wal")
	log, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var walBytes int64
	log.SetObserver(func(n int, _ time.Duration) { walBytes += int64(n) })

	sch := tlc.Database()
	wstore := storage.NewStore(sch)
	indexes := make(map[string][]*access.Index)
	for _, spec := range tlc.AccessSchemaSpecs() {
		c, err := access.ParseConstraint(sch, spec)
		if err != nil {
			return err
		}
		if c.Rel != "call" && c.Rel != "sms" {
			continue
		}
		ix, err := access.BuildIndex(c, wstore.MustTable(c.Rel), false)
		if err != nil {
			return err
		}
		indexes[c.Rel] = append(indexes[c.Rel], ix)
	}

	kind := kindProbe
	if t.w.writeRate > 0 {
		kind = kindReplay
	}
	walKind := kindProbe
	if t.w.durable {
		walKind = kindReplay
	}
	var userBytes int64
	picks := t.take(256)
	for j, mi := range picks {
		m := &t.p.in.muts[mi]
		req := -(j + 1)
		parent := 0
		if t.w.writeRate > 0 {
			var ierr error
			parent = l.timed(req, 0, "beas.insert", kindReal, func() { ierr = t.e.db.Insert(m.table, t.p.args[mi]...) })
			if ierr != nil {
				return ierr
			}
		}
		rec := &wal.Record{Type: wal.RecInsert, Table: m.table, Row: m.row}
		var werr error
		l.timed(req, parent, "wal.append", walKind, func() { werr = log.AppendDeferred(rec) })
		if werr == nil {
			l.timed(req, parent, "wal.fsync", walKind, func() { werr = log.Sync() })
		}
		if werr != nil {
			return werr
		}
		tab := wstore.MustTable(m.table)
		l.timed(req, parent, "storage.insert", kind, func() { werr = tab.Insert(m.row) })
		if werr != nil {
			return werr
		}
		for _, ix := range indexes[m.table] {
			l.timed(req, parent, "access.oninsert", kind, func() { ix.OnInsert(m.row) })
		}
		for _, v := range m.row {
			if v.K == value.String {
				userBytes += int64(len(v.S))
			} else {
				userBytes += 8
			}
		}
	}
	if err := log.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	log, rec, err := wal.Open(dir, wal.Options{})
	replay := time.Since(t0)
	if err != nil {
		return err
	}
	log.Close()
	if len(rec.Records) != len(picks) {
		return fmt.Errorf("ledger: log replay found %d of %d records", len(rec.Records), len(picks))
	}
	n := max(len(picks), 1)
	r.set("wal.bytes_per_record", float64(walBytes)/float64(n), n)
	r.set("wal.bytes_per_user_byte", float64(walBytes)/float64(max(userBytes, 1)), n)
	r.set("wal.replay_ns_per_record", float64(replay)/float64(n), n)
	return nil
}

// scanProbe times a full cursor scan of call, the fallback engine's
// access path, three times.
func (t *tracedRun) scanProbe() {
	tab := t.big.store.MustTable("call")
	buf := make([]value.Row, 256)
	var per []float64
	for k := 0; k < 3; k++ {
		rows := 0
		t0 := time.Now()
		cur := tab.Scan()
		for {
			n, err := cur.Next(buf)
			if n == 0 || err != nil {
				break
			}
			rows += n
		}
		d := time.Since(t0)
		t.l.add(-1000-k, 0, "storage.scan", kindProbe, t0, d)
		per = append(per, float64(d)/(float64(max(rows, 1))/1000))
	}
	t.r.set("storage.scan_ns_per_krow", median(per), tab.Len())
}

// facadeProbes are the measurements taken on the workload's own DB
// after the walk: checker calls per request (from the program's own
// tracer), cache maintenance cost on the write path, reader/writer
// interference — and, where the workload has no writer, no durable
// store or one scale only, short probes that stand in for the numbers
// those mechanisms produce in the workloads that have them.
func (t *tracedRun) facadeProbes() error {
	w, e, r, p := t.w, t.e, t.r, t.p
	r.set("core.checks_per_request", t.checksPerRequest(), 16)

	// qcache.mutation_overhead_ns: insert acknowledgement with the result
	// tier on minus off, in alternating blocks so that drift cancels.
	// rcache_churn inserts under keys its cached entries subscribed to
	// (the tier is refilled before each block); elsewhere it is empty.
	picks := t.hotInserts
	if !w.resultCache || len(picks) < 192 {
		picks = t.take(192)
	}
	var on, off []float64
	for b := 0; b+64 <= len(picks); b += 64 {
		for _, cacheOn := range []bool{true, false} {
			e.db.SetResultCache(cacheOn)
			if cacheOn && w.resultCache {
				for _, sql := range p.in.bases {
					if _, err := e.db.Query(sql); err != nil {
						return err
					}
				}
			}
			block := picks[b : b+32]
			if !cacheOn {
				block = picks[b+32 : b+64]
			}
			for _, mi := range block {
				t0 := time.Now()
				if err := e.db.Insert(p.in.muts[mi].table, p.args[mi]...); err != nil {
					return err
				}
				if d := float64(time.Since(t0)); cacheOn {
					on = append(on, d)
				} else {
					off = append(off, d)
				}
			}
		}
	}
	e.db.SetResultCache(w.resultCache)
	r.set("qcache.mutation_overhead_ns", median(on)-median(off), len(on))

	// beas.lock_interference_ratio: the same reader's p99 with a writer
	// running over its p99 with the writer idle.
	idle := t.readerTail(0, nil)
	busy := t.readerTail(500, t.take(150))
	if idle > 0 {
		r.set("beas.lock_interference_ratio", busy/idle, 0)
	} else {
		r.set("beas.lock_interference_ratio", 0, 0)
	}

	if w.writeRate == 0 {
		// No writer in this workload: a short open-loop probe at 500/s.
		var ws writerStats
		picks := t.take(150)
		start := time.Now()
		runWriter(e.db, p, picks, 500, start, start, start.Add(time.Second), &ws)
		acks := durationsUS(ws.acks)
		a99, _ := tailQuantile(acks)
		l99, _ := tailQuantile(durationsUS(ws.late))
		r.set("write_ack_p50_us", quantile(acks, 0.5), len(acks))
		r.set("write_ack_p99_us", a99, len(acks))
		r.set("write_lateness_p99_us", l99, len(acks))
	}
	if !w.durable {
		if err := t.recoveryProbe(); err != nil {
			return err
		}
	}
	if !w.sweep {
		if err := t.scaleProbe(); err != nil {
			return err
		}
	}
	return nil
}

// checksPerRequest counts the "check" spans the program's own tracer
// records for one request on the workload's path.
func (t *tracedRun) checksPerRequest() float64 {
	tr := beas.NewTracer(beas.TracerOptions{SampleRate: 1, RingSize: 32})
	const n = 16
	if t.w.http {
		h := server.New(t.e.db, server.Config{QueryTimeout: time.Minute, Tracer: tr}).Handler()
		for i := 0; i < n; i++ {
			text, _ := t.request(passReplay, i+t.cfg.ledgerReqs)
			body := t.p.reqs[text]
			body = body[bytes.Index(body, []byte("\r\n\r\n"))+4:]
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		}
	} else {
		t.e.db.SetTracer(tr)
		for i := 0; i < n; i++ {
			text, _ := t.request(passTraced, i)
			t.e.db.Query(t.p.in.texts[text])
		}
		t.e.db.SetTracer(nil)
	}
	checks, traces := 0, 0
	for _, s := range tr.Recent() {
		trace := tr.Get(s.ID)
		if trace == nil {
			continue
		}
		traces++
		for _, sp := range trace.Spans() {
			if sp.Name == "check" && sp.ID != trace.Root() {
				checks++
			}
		}
	}
	return float64(checks) / float64(max(traces, 1))
}

// readerTail runs one closed-loop embedded reader for a probe window over the
// workload's texts, beside an open-loop writer when rate > 0, and
// returns the reader's p99 in ns.
func (t *tracedRun) readerTail(rate int, picks []int) float64 {
	db, p := t.e.db, t.p
	start := time.Now()
	until := start.Add(t.cfg.probeWindow)
	var wg sync.WaitGroup
	if rate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ws writerStats
			runWriter(db, p, picks, rate, start, start, until, &ws)
		}()
	}
	var lat []float64
	order := p.in.reqs[0]
	for j := 0; time.Now().Before(until); j++ {
		sql := p.in.texts[order[j%len(order)]]
		t0 := time.Now()
		db.Query(sql)
		lat = append(lat, float64(time.Since(t0)))
	}
	wg.Wait()
	v, _ := tailQuantile(sortedCopy(lat))
	return v
}

// recoveryProbe stands in for durable_mixed's recovery on workloads
// that keep nothing on disk: the same instance in a durable directory,
// some logged inserts, and a reopen without a final snapshot.
func (t *tracedRun) recoveryProbe() error {
	dir, err := os.MkdirTemp(t.cfg.scratch, "recovery-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	db, err := beas.Open(dir, nil)
	if err != nil {
		return err
	}
	if err := db.LoadTLC(t.e.scale); err != nil {
		return err
	}
	reg := obs.NewRegistry()
	db.SetMetrics(reg)
	picks := t.take(150)
	for _, mi := range picks {
		if err := db.Insert(t.p.in.muts[mi].table, t.p.args[mi]...); err != nil {
			return err
		}
	}
	appends := reg.Counter("beas_wal_appends_total", "", nil).Value()
	fsyncs := reg.Histogram("beas_wal_fsync_seconds", "", obs.LatencyBuckets, nil).Count()
	t0 := time.Now()
	re, err := beas.Open(dir, nil) // the first handle is abandoned, not closed: no final snapshot
	if err != nil {
		return err
	}
	d := time.Since(t0)
	replayed := re.Durability().Recovery.ReplayedRecords
	re.Close()
	if replayed != len(picks) || replayed == 0 {
		return fmt.Errorf("recovery probe replayed %d of %d records", replayed, len(picks))
	}
	t.r.set("recovery_s", d.Seconds(), replayed)
	t.r.set("wal.fsyncs_per_mutation", float64(fsyncs)/float64(max(appends, 1)), int(appends))
	return nil
}

// scaleProbe stands in for scale_sweep's two ratios on a one-scale
// workload: the workload's own statements, bounded at scale 1 and at
// its scale, and a sample of them through the conventional engine.
func (t *tracedRun) scaleProbe() error {
	small, err := beas.NewTLCDB(1)
	if err != nil {
		return err
	}
	t.w.configure(small)
	small.SetResultCache(false)
	t.e.db.SetResultCache(false)
	defer t.e.db.SetResultCache(t.w.resultCache)
	bases := t.p.in.bases[:min(64, len(t.p.in.bases))]
	bounded := func(db *beas.DB) (float64, error) {
		var lat []float64
		for round := 0; round < 4; round++ {
			for _, sql := range bases {
				t0 := time.Now()
				if _, err := db.Query(sql); err != nil {
					return 0, err
				}
				if round > 0 {
					lat = append(lat, float64(time.Since(t0)))
				}
			}
		}
		return median(lat), nil
	}
	bs, err := bounded(small)
	if err != nil {
		return err
	}
	bb, err := bounded(t.e.db)
	if err != nil {
		return err
	}
	var base []float64
	deadline := time.Now().Add(5 * t.cfg.probeWindow)
	for _, sql := range bases {
		if time.Now().After(deadline) {
			break
		}
		t0 := time.Now()
		if _, err := t.e.db.QueryBaseline(sql, beas.BaselinePostgres); err != nil {
			return err
		}
		base = append(base, float64(time.Since(t0)))
	}
	t.r.set("flatness_ratio", bb/bs, 3*len(bases))
	t.r.set("baseline_speedup", median(base)/bb, len(base))
	return nil
}

// layerMetrics turns the spans and counts into the per-layer list.
func (t *tracedRun) layerMetrics(untraced, top []float64) {
	l, r, a := t.l, t.r, &t.agg
	for metric, name := range map[string]string{
		"sqlparser.parse_ns": "sqlparser.parse", "analyze.analyze_ns": "analyze.analyze", "analyze.canonical_ns": "analyze.canonical",
		"qcache.template_get_ns": "qcache.template_get", "qcache.result_get_ns": "qcache.result_get",
		"core.check_ns": "core.check", "core.newplan_ns": "core.newplan", "core.run_ns": "core.run",
		"opt.rewrite_ns": "opt.rewrite", "exec.tail_ns": "exec.tail", "engine.run_ns": "engine.run",
		"storage.insert_ns": "storage.insert", "access.oninsert_ns": "access.oninsert",
		"wal.append_ns": "wal.append", "wal.fsync_ns": "wal.fsync",
		"beas.query_ns": "beas.query", "beas.queryiter_drain_ns": "beas.queryiter",
	} {
		v, n := l.medianOf(name)
		r.set(metric, v, n)
	}

	reads := float64(max(a.reads, 1))
	r.set("core.tuples_fetched_per_op", float64(a.fetched)/reads, int(a.reads))
	r.set("core.distinct_keys_per_op", float64(a.keys)/reads, int(a.reads))
	r.set("exec.tail_rows_in_per_op", float64(a.tailIn)/reads, int(a.reads))
	r.set("core.bound_utilisation", float64(a.fetched)/math.Max(a.bound, 1), int(a.reads))
	var keyNS float64
	for _, d := range l.durations("access.fetch_keys") {
		keyNS += d
	}
	keys := float64(max(a.probeKeys, 1))
	r.set("access.fetch_ns_per_key", keyNS/keys, int(a.probeKeys))
	r.set("access.rows_per_key", float64(a.probeRows)/keys, int(a.probeKeys))
	r.set("opt.fetched_vs_greedy_ratio", float64(a.fetchedOpt)/float64(max(a.fetchedGreedy, 1)), int(a.fetchedGreedy))
	r.set("engine.tuples_scanned_per_op", float64(a.scanned)/float64(max(a.baselineRuns, 1)), int(a.baselineRuns))

	// What the walker cannot open is reported as a difference: the span
	// minus the calls replayed beneath it.
	facade := l.selfOfNamed(false, "beas.query", "beas.queryiter", "beas.check", "beas.baseline")
	r.set("beas.facade_self_ns", median(facade), len(facade))
	handler := l.selfOfNamed(!t.w.http, "server.handler")
	loop := l.selfOfNamed(!t.w.http, "net.roundtrip")
	r.set("server.handler_self_ns", median(handler), len(handler))
	r.set("net.loopback_self_ns", median(loop), len(loop))
	r.set("server.bytes_out_per_op", float64(l.bytesOut)/float64(max(len(handler), 1)), len(handler))
	r.set("server.encode_ns_per_row", t.encodeSlope(), len(t.rows))

	// Coverage: per walked request, the time inside calls the walker made
	// into the layers over that request's untraced latency.
	leaf := l.leafTime()
	var cover []float64
	for i := range top {
		cover = append(cover, leaf[i]/untraced[i])
	}
	r.set("ledger.coverage_ratio", median(cover), len(cover))
	r.set("trace.overhead_ratio", median(untraced)/median(top), len(top))
	r.Extra["untraced_single_client_ns"] = median(untraced)
	r.Extra["traced_top_span_ns"] = median(top)
	for layer, v := range l.layerSelf() {
		r.Extra["self_ns."+layer] = v
	}
}

// encodeSlope is server.encode_ns_per_row: what one more row costs the
// handler once the cursor has produced it. Responses are grouped by row
// count, each group reduced to the median of the handler's self time
// (a single scheduling hiccup is ten times the effect looked for), and
// the slope is the least-squares line through the groups, weighted by
// their size.
func (t *tracedRun) encodeSlope() float64 {
	selfs := t.l.selfs()
	byRows := make(map[float64][]float64)
	for i := range t.l.spans {
		s := &t.l.spans[i]
		if s.Name != "server.handler" {
			continue
		}
		if rows, ok := t.rows[s.Req%probeReqBase]; ok {
			byRows[rows] = append(byRows[rows], selfs[i])
		}
	}
	var x, y, w []float64
	for rows, v := range byRows {
		x, y, w = append(x, rows), append(y, median(v)), append(w, float64(len(v)))
	}
	return slope(x, y, w)
}

// slope is the weighted least-squares slope of y over x.
func slope(x, y, w []float64) float64 {
	var sw, sx, sy, sxx, sxy float64
	for i := range x {
		sw += w[i]
		sx += w[i] * x[i]
		sy += w[i] * y[i]
		sxx += w[i] * x[i] * x[i]
		sxy += w[i] * x[i] * y[i]
	}
	den := sw*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (sw*sxy - sx*sy) / den
}
