package beas

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"github.com/bounded-eval/beas/internal/analyze"
	"github.com/bounded-eval/beas/internal/core"
	"github.com/bounded-eval/beas/internal/engine"
	"github.com/bounded-eval/beas/internal/exec"
	"github.com/bounded-eval/beas/internal/iter"
	"github.com/bounded-eval/beas/internal/obs"
	"github.com/bounded-eval/beas/internal/qcache"
	"github.com/bounded-eval/beas/internal/sqlparser"
	"github.com/bounded-eval/beas/internal/value"
)

// Baseline identifies a conventional-DBMS emulation profile.
type Baseline string

// Baseline profiles mirroring the paper's comparators.
const (
	BaselinePostgres Baseline = "postgresql"
	BaselineMySQL    Baseline = "mysql"
	BaselineMariaDB  Baseline = "mariadb"
)

func baselineProfile(b Baseline) (engine.Profile, error) {
	switch b {
	case BaselinePostgres, "":
		return engine.ProfilePostgres, nil
	case BaselineMySQL:
		return engine.ProfileMySQL, nil
	case BaselineMariaDB:
		return engine.ProfileMariaDB, nil
	default:
		return engine.Profile{}, fmt.Errorf("beas: unknown baseline %q", b)
	}
}

// parsed is a fully analysed statement: one query per UNION branch, and
// — once some execution or Prepare needed it — the prepared state deduced
// from them (prepare.go).
type parsed struct {
	branches []*analyze.Query
	unionAll []bool // unionAll[i] applies between branch i-1 and i
	prep     atomic.Pointer[prepared]
}

// parseLocked parses and analyses sql through the bounded template
// cache. The caller must hold db.mu (read suffices) and keep holding it
// while it uses the returned analysis.
//
// Holding the lock across the cache lookup, the analysis and the store
// closes the store-after-invalidate race: catalogVersion only advances
// under the write lock, so while we hold the read lock a concurrent DDL
// can neither invalidate the entry we just validated nor slip between
// our version check and our PutTemplate — a stale template can never be
// re-inserted over a newer catalog. It also guarantees the caller
// executes against the same catalog the analysis saw.
func (db *DB) parseLocked(sql string) (*qcache.Template, bool, error) {
	if t, ok := db.qc.GetTemplate(sql, db.catalogVersion); ok {
		return t, true, nil
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, false, err
	}
	p := &parsed{}
	all := false
	for s := stmt; s != nil; s = s.Union {
		q, err := analyze.Analyze(s.Select, db.schema)
		if err != nil {
			return nil, false, err
		}
		p.branches = append(p.branches, q)
		p.unionAll = append(p.unionAll, all)
		all = s.UnionAll
	}
	for i := 1; i < len(p.branches); i++ {
		if len(p.branches[i].Outputs) != len(p.branches[0].Outputs) {
			return nil, false, fmt.Errorf("beas: UNION branches have different arities")
		}
	}
	t := &qcache.Template{Text: sql, Parsed: p, Version: db.catalogVersion}
	t.ResultKey, t.Fingerprint, t.Params, t.Shareable = resultKey(sql, p)
	db.qc.PutTemplate(t)
	return t, false, nil
}

// Canonicalize resolves sql to its canonical workload identity: the
// normalized fingerprint shared by all syntactic variants of the
// statement (the key of the workload digests and the capture log) and
// the extracted parameter vector in placeholder order. Statements the
// canonicalizer cannot share get a text-hash fingerprint and no
// parameters. Nothing is executed.
func (db *DB) Canonicalize(sql string) (string, []Value, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, _, err := db.parseLocked(sql)
	if err != nil {
		return "", nil, err
	}
	return t.Fingerprint, append([]Value(nil), t.Params...), nil
}

// resultKey computes the canonical identity of a statement's answer:
// the normalized fingerprints of all UNION branches (order and
// UNION/UNION ALL placement preserved — branches contribute bound and
// fetch statistics positionally) plus the extracted parameter vector.
// Statements whose canonical form is not shareable — an unknown
// expression shape, or an equality class carrying several
// constant-bearing conjuncts whose order affects probe order — fall
// back to the literal text, so they still cache, just without
// cross-text sharing.
//
// The parameter-free fingerprint and the parameter vector are returned
// alongside the key: the fingerprint groups all parameterizations of a
// statement in the workload digests and the capture log. Non-shareable
// statements get obs.TextFingerprint of the literal text and nil
// parameters.
func resultKey(sql string, p *parsed) (key, fingerprint string, params []value.Value, shareable bool) {
	var b strings.Builder
	for i, q := range p.branches {
		fp, ps, ok := analyze.Canonical(q)
		if !ok {
			return "!text\x00" + sql, obs.TextFingerprint(sql), nil, false
		}
		if i > 0 {
			if p.unionAll[i] {
				b.WriteString("\x1fUA\x1f")
			} else {
				b.WriteString("\x1fU\x1f")
			}
		}
		b.WriteString(fp)
		params = append(params, ps...)
	}
	fingerprint = b.String()
	b.WriteByte(0)
	b.WriteString(value.Key(params))
	return b.String(), fingerprint, params, true
}

// Check runs the BE Checker: is the query covered by the registered
// access schema, and how much data would a bounded plan fetch? Nothing is
// executed. For UNION queries every branch must be covered; the bound is
// the sum over branches.
func (db *DB) Check(sql string) (*CheckInfo, error) {
	return db.CheckContext(context.Background(), sql)
}

// CheckContext is Check under a context; see PrepareContext.
func (db *DB) CheckContext(ctx context.Context, sql string) (*CheckInfo, error) {
	st, err := db.PrepareContext(ctx, sql)
	if err != nil {
		return nil, err
	}
	return st.CheckInfo(), nil
}

func satAdd(a, b uint64) uint64 {
	if a+b < a {
		return ^uint64(0)
	}
	return a + b
}

// Query evaluates sql, preferring bounded evaluation: a covered query (or
// UNION branch) runs through a bounded plan; otherwise a partially
// bounded plan runs its covered sub-query boundedly and delegates the
// rest to the conventional engine.
func (db *DB) Query(sql string) (*Result, error) {
	return db.QueryContext(context.Background(), sql)
}

// QueryContext is Query under a context: cancellation or deadline expiry
// halts the fetch loops and streaming joins at the next batch boundary
// and returns ctx's error. The statistics of a cancelled query reflect
// only the work actually performed.
func (db *DB) QueryContext(ctx context.Context, sql string) (*Result, error) {
	return db.query(ctx, &Stmt{db: db, sql: sql}, true, nil)
}

// QueryBounded evaluates sql with a bounded plan only, failing when the
// query is not covered by the access schema.
func (db *DB) QueryBounded(sql string) (*Result, error) {
	return db.QueryBoundedContext(context.Background(), sql)
}

// QueryBoundedContext is QueryBounded under a context.
func (db *DB) QueryBoundedContext(ctx context.Context, sql string) (*Result, error) {
	return db.query(ctx, &Stmt{db: db, sql: sql}, false, nil)
}

// run is one execution of a statement by Query, QueryBounded, QueryIter
// or QueryApprox, from begin to end: the resolved statement, the answer
// stream's per-branch executor statistics and, for a storing run, the
// answer itself.
type run struct {
	db     *DB
	sql    string
	called time.Time // entry, the clock of the workload digest
	finish func()    // finishes the trace begin started
	tmpl   *qcache.Template
	pr     *prepared
	start  time.Time
	// budget, when non-nil, caps the tuples every branch of an
	// approximation fetches, together. Such a run neither reads nor
	// writes the result cache: its answer may be partial.
	budget *core.Budget
	// res is the Result the statistics accrue in; nil until the answer
	// stream exists, i.e. for an execution that failed before it ran.
	res *Result
	// hit: res is a fresh answer from the result cache; serve it, run
	// nothing.
	hit    bool
	cached qcache.CachedResult
	// tvs, when non-nil, says the complete answer is to be offered to the
	// result cache: every base-table version from *before* execution.
	// Store re-checks them so an interleaved mutation can never be
	// double-counted (once in the answer, once as a patch).
	tvs []qcache.TableVersion
	// one (a single-branch statement) or ran (a UNION) holds each
	// branch's executor statistics, folded into res once the stream is
	// closed; see executed.
	one ranBranch
	ran []ranBranch
	// rows is the answer a storing run offers the result cache; complete
	// says the stream was read to its end, so rows is all of it. rowsOut
	// counts the rows handed to the caller.
	rows     []value.Row
	complete bool
	rowsOut  int64
}

// ranBranch is one executed branch: the plan it ran and the executor
// statistics — of the bounded plan, or of a partially bounded plan's
// bounded sub-plan (st) and conventional engine (eng).
type ranBranch struct {
	b    *branch
	plan *core.Plan
	st   *core.Stats
	eng  *engine.Stats
}

// beginLocked is the prologue of every executing entry point: resolve
// st into r, then — result cache on — look for a fresh materialized answer. One
// is only ever stored for a fully covered statement, so the fallback
// policy cannot differ on a hit. Callers hold db.mu (read suffices).
func (db *DB) beginLocked(ctx context.Context, st *Stmt, r *run) (err error) {
	if r.tmpl, r.pr, err = db.resolveLocked(ctx, st); err != nil {
		return err
	}
	r.start = time.Now()
	if !db.qc.ResultsEnabled() || r.budget != nil {
		return nil
	}
	_, sp := obs.StartSpan(ctx, "cache")
	r.cached, r.hit = db.qc.GetResult(r.tmpl.ResultKey)
	sp.Set("hit", r.hit)
	sp.End()
	if !r.hit && r.pr.storable {
		r.tvs = r.pr.tableVersions()
	}
	return nil
}

// plan returns the plan this run executes for b: the shared prepared
// plan, which no execution writes, or — for a storing run — a private
// header over the same steps with key collection switched on.
func (r *run) plan(b *branch) *core.Plan {
	if r.tvs == nil {
		return b.plan
	}
	keyed := *b.plan
	keyed.CollectKeys = true
	return &keyed
}

// begin opens one execution of st for Query, QueryBounded, QueryIter
// and QueryApprox: under a trace and the catalog read lock it resolves st
// and returns the answer stream (pipelineLocked) — or, on a result-cache
// hit, no stream and r.res holding the stored answer. On success the caller owns the
// lock and the trace until r.end; on failure begin has already ended r,
// so the failure is in the workload digests exactly once.
func (db *DB) begin(ctx context.Context, st *Stmt, allowFallback bool, r *run) (it iter.Iterator, err error) {
	r.db, r.sql, r.called = db, st.sql, time.Now()
	if err = ctx.Err(); err != nil {
		db.observe(r, err)
		return nil, err
	}
	root := "query"
	if r.budget != nil {
		root = "approx"
	}
	ctx, r.finish = db.startTrace(ctx, root, st.sql)
	db.mu.RLock()
	opened := false
	defer func() {
		if !opened {
			r.end(err)
		}
	}()
	if err = db.beginLocked(ctx, st, r); err != nil {
		return nil, err
	}
	if r.hit {
		r.res = db.serveCachedLocked(r)
		opened = true
		return nil, nil
	}
	if !r.pr.info.Covered && !allowFallback {
		return nil, fmt.Errorf("beas: query is not covered by the access schema: %s", r.pr.info.Reason)
	}
	if it, err = db.pipelineLocked(ctx, r); err != nil {
		return nil, err
	}
	r.res = &Result{Columns: r.pr.columns, Stats: r.pr.stats}
	opened = true
	return it, nil
}

// pipelineLocked builds the answer stream of r's statement: one iterator
// per UNION branch — the bounded plan through core.StreamContext, a
// partially bounded one through core.StreamPartialContext, whose bounded
// sub-plan runs here, eagerly — concatenated under the statement's UNION
// dedup. Each branch's statistics land in r.one or r.ran. Callers hold
// db.mu (read suffices).
func (db *DB) pipelineLocked(ctx context.Context, r *run) (iter.Iterator, error) {
	branches := r.pr.branches
	var parts []iter.Iterator
	if len(branches) > 1 {
		r.ran = make([]ranBranch, 0, len(branches))
		parts = make([]iter.Iterator, 0, len(branches))
	}
	var it iter.Iterator
	for i := range branches {
		rb := ranBranch{b: &branches[i]}
		if rb.b.plan != nil {
			rb.plan = r.plan(rb.b)
			it, rb.st = core.StreamContext(ctx, rb.plan, r.budget)
		} else {
			var err error
			if it, rb.st, rb.eng, err = core.StreamPartialContext(ctx, rb.b.partial, rb.b.q, db.fallback); err != nil {
				return nil, err
			}
		}
		if parts == nil {
			r.one = rb
		} else {
			r.ran = append(r.ran, rb)
			parts = append(parts, it)
		}
	}
	if parts != nil {
		// UNION semantics: every branch up to the last plain (non-ALL)
		// UNION shares one duplicate-elimination set; branches after it
		// append freely.
		dedupThrough := -1
		for i, all := range r.tmpl.Parsed.(*parsed).unionAll {
			if i > 0 && !all {
				dedupThrough = i
			}
		}
		it = &unionIter{parts: parts, dedupThrough: dedupThrough}
	}
	if tr, parent := obs.FromContext(ctx); tr != nil {
		// The stream span measures time spent pulling result batches —
		// including the upstream pipeline; the fetch and operator spans
		// break out where it went.
		streamStart := time.Now()
		it = iter.Timed(it, func(batches, rows int64, d time.Duration) {
			tr.AddSpan(parent, "stream", streamStart, d,
				obs.Attr{Key: "batches", Val: batches},
				obs.Attr{Key: "rows", Val: rows},
			)
		})
	}
	return it, nil
}

// executed returns the branches the answer stream ran, in branch order.
func (r *run) executed() []ranBranch {
	if r.ran == nil && r.one.st != nil {
		return []ranBranch{r.one}
	}
	return r.ran
}

// end closes an execution begin opened, once its stream is closed (or
// was never built): it folds the branches' statistics into r.res, offers
// a complete answer of a storing run to the result cache, releases the
// catalog lock and the trace, and records the outcome in the workload
// digests.
func (r *run) end(err error) {
	db := r.db
	if r.res != nil {
		st := &r.res.Stats
		ran := r.executed()
		for _, rb := range ran {
			st.TuplesFetched += rb.st.Fetched
			for _, s := range rb.st.Steps {
				st.FetchSteps = append(st.FetchSteps, StepStat(s))
			}
			if rb.eng != nil {
				st.TuplesScanned += rb.eng.Scanned
				for _, o := range rb.eng.Ops {
					st.Ops = append(st.Ops, OpStat(o))
				}
			}
		}
		st.Duration = time.Since(r.start)
		if st.Mode == ModeBounded && st.TuplesFetched == 0 && st.Bound == 0 {
			st.Mode = ModeEmpty
		}
		if r.tvs != nil && r.complete && err == nil {
			db.storeLocked(r, ran)
		}
	}
	db.mu.RUnlock()
	r.finish()
	db.observe(r, err)
}

// observe folds r's terminal outcome into the workload digests, off the
// catalog lock. With digests off the cost is one atomic load.
func (db *DB) observe(r *run, err error) {
	d := db.digests.Load()
	if d == nil {
		return
	}
	var st *Stats
	var fp string
	if r.res != nil {
		st = &r.res.Stats
	}
	if r.tmpl != nil {
		fp = r.tmpl.Fingerprint
	}
	d.Observe(digestObservation(fp, r.sql, st, r.rowsOut, err, time.Since(r.called)))
}

// storeLocked offers r's complete, fully covered answer (r.res holds the
// statistics folded from ran) to the result cache with each step's
// probed keys, the pre-execution table versions and the bound guards.
// Callers hold db.mu (read suffices).
func (db *DB) storeLocked(r *run, ran []ranBranch) {
	var steps []core.StepStat
	var regs []qcache.StepReg
	for _, rb := range ran {
		for si := range rb.plan.Steps {
			var keys []string
			if rb.st.StepKeys != nil {
				keys = rb.st.StepKeys[si]
			}
			regs = append(regs, qcache.StepReg{Table: rb.b.tables[si], Step: &rb.plan.Steps[si], Keys: keys, StatIdx: len(steps) + si})
		}
		steps = append(steps, rb.st.Steps...)
	}
	st := &r.res.Stats
	db.qc.Store(&qcache.StoreRequest{
		Key: r.tmpl.ResultKey,
		Result: &qcache.CachedResult{
			Columns:         r.res.Columns,
			Rows:            r.rows,
			Bound:           st.Bound,
			ConstraintsUsed: st.ConstraintsUsed,
			TuplesFetched:   st.TuplesFetched,
			Steps:           steps,
			Plan:            st.Plan,
			Optimized:       st.Optimized,
		},
		Branches:    len(r.pr.branches),
		Query:       ran[0].b.q,
		Plan:        ran[0].plan,
		Steps:       regs,
		Tables:      r.tvs,
		OptimizerOn: r.pr.stats.Optimized,
	})
}

// query is the evaluation core behind Query, QueryBounded and
// QueryApprox: it collects the answer stream begin builds — the same one
// QueryIter's cursor pulls from — into a Result, under budget when it is
// non-nil.
func (db *DB) query(ctx context.Context, st *Stmt, allowFallback bool, budget *core.Budget) (res *Result, err error) {
	r := &run{budget: budget}
	it, err := db.begin(ctx, st, allowFallback, r)
	if err != nil {
		return nil, err
	}
	defer func() { r.end(err) }()
	if it != nil {
		if r.rows, _, err = iter.Collect(it); err != nil {
			return nil, err
		}
		r.res.Rows = r.rows
	}
	r.rowsOut, r.complete = int64(len(r.res.Rows)), true
	return r.res, nil
}

// serveCachedLocked materializes a Result from a cache hit. Everything
// data-derived — rows, order, bound, fetch statistics — is the stored
// (patch-maintained) answer; CacheHit marks the result, and end times
// the serve. Callers hold db.mu (read suffices).
func (db *DB) serveCachedLocked(r *run) *Result {
	cr := &r.cached
	res := &Result{Columns: cr.Columns, Rows: cr.Rows, Stats: Stats{
		Mode:            ModeBounded,
		Covered:         true,
		Optimized:       db.optzr != nil,
		Bound:           cr.Bound,
		ConstraintsUsed: cr.ConstraintsUsed,
		TuplesFetched:   cr.TuplesFetched,
		Plan:            cr.Plan,
		CacheHit:        true,
		Fingerprint:     r.tmpl.Fingerprint,
	}}
	for _, s := range cr.Steps {
		res.Stats.FetchSteps = append(res.Stats.FetchSteps, StepStat(s))
	}
	return res
}

// QueryBaseline evaluates sql purely conventionally under one of the
// emulated DBMS profiles, ignoring the access schema — the comparator of
// the paper's evaluation.
func (db *DB) QueryBaseline(sql string, baseline Baseline) (*Result, error) {
	return db.QueryBaselineContext(context.Background(), sql, baseline)
}

// QueryBaselineContext is QueryBaseline under a context: cancellation
// halts the emulated engine's scans and joins at the next batch boundary.
func (db *DB) QueryBaselineContext(ctx context.Context, sql string, baseline Baseline) (*Result, error) {
	prof, err := baselineProfile(baseline)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	tmpl, _, err := db.parseLocked(sql)
	if err != nil {
		return nil, err
	}
	p := tmpl.Parsed.(*parsed)
	start := time.Now()
	eng := engine.New(db.store, prof).WithBatchSize(db.batch)
	res := &Result{Columns: p.branches[0].OutputNames(), Stats: Stats{Mode: ModeConventional}}
	var rows []value.Row
	for i, q := range p.branches {
		branchRows, st, err := eng.RunContext(ctx, q)
		if err != nil {
			return nil, err
		}
		res.Stats.TuplesScanned += st.Scanned
		for _, o := range st.Ops {
			res.Stats.Ops = append(res.Stats.Ops, OpStat(o))
		}
		if i > 0 && !p.unionAll[i] {
			rows = exec.Dedup(append(rows, branchRows...))
		} else {
			rows = append(rows, branchRows...)
		}
	}
	res.Rows = rows
	res.Stats.Plan = eng.Describe(p.branches[0])
	res.Stats.Duration = time.Since(start)
	return res, nil
}

// QueryApprox evaluates a covered query under a budget on the number of
// tuples fetched, returning a subset of the exact answer and a
// deterministic accuracy lower bound (coverage ∈ [0,1]; 1 = exact). The
// budget is positive and shared by all UNION branches: TuplesFetched ≤
// budget. A budget at least the deduced bound returns exactly Query's
// rows, in Query's order, with coverage 1. The result cache is neither
// consulted nor filled.
func (db *DB) QueryApprox(sql string, budget int64) (*Result, float64, error) {
	return db.QueryApproxContext(context.Background(), sql, budget)
}

// QueryApproxContext is QueryApprox under a context: cancellation halts
// the budgeted fetch steps and returns ctx's error. It runs the plan
// Query runs — under a trace, with the cost-based optimizer's step
// ordering — with the budget as a stop condition.
func (db *DB) QueryApproxContext(ctx context.Context, sql string, budget int64) (*Result, float64, error) {
	return db.queryApprox(ctx, &Stmt{db: db, sql: sql}, budget)
}

func (db *DB) queryApprox(ctx context.Context, st *Stmt, budget int64) (*Result, float64, error) {
	if budget <= 0 {
		return nil, 0, fmt.Errorf("beas: approximation budget must be positive, got %d", budget)
	}
	b := core.NewBudget(budget)
	res, err := db.query(ctx, st, false, b)
	if err != nil {
		return nil, 0, err
	}
	return res, b.Coverage(), nil
}

// Explain returns a human-readable description of how Query would
// evaluate sql: the checker verdict, the deduced bound and the plan.
// Covered plans list, per fetch step, the access constraint, the
// worst-case key/tuple bounds and — with the cost-based optimizer on —
// the statistics-based estimated fetches.
func (db *DB) Explain(sql string) (string, error) {
	return db.ExplainContext(context.Background(), sql)
}

// ExplainContext is Explain under a context: nothing is executed, so ctx
// is consulted once up front, like CheckContext.
func (db *DB) ExplainContext(ctx context.Context, sql string) (string, error) {
	info, err := db.CheckContext(ctx, sql)
	if err != nil {
		return "", err
	}
	var out string
	switch {
	case info.EmptyGuaranteed:
		out = "empty answer guaranteed (contradictory constants); no data access\n"
	case info.Covered:
		out = fmt.Sprintf("boundedly evaluable: fetches at most %d tuples using %d access constraints\nbounded plan:\n%s",
			info.Bound, info.ConstraintsUsed, info.Plan)
	default:
		out = fmt.Sprintf("not covered by the access schema: %s\n%s", info.Reason, info.Plan)
	}
	return out, nil
}
