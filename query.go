package beas

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"github.com/bounded-eval/beas/internal/analyze"
	"github.com/bounded-eval/beas/internal/approx"
	"github.com/bounded-eval/beas/internal/core"
	"github.com/bounded-eval/beas/internal/engine"
	"github.com/bounded-eval/beas/internal/exec"
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
	return db.query(ctx, &Stmt{db: db, sql: sql}, true)
}

// QueryBounded evaluates sql with a bounded plan only, failing when the
// query is not covered by the access schema.
func (db *DB) QueryBounded(sql string) (*Result, error) {
	return db.QueryBoundedContext(context.Background(), sql)
}

// QueryBoundedContext is QueryBounded under a context.
func (db *DB) QueryBoundedContext(ctx context.Context, sql string) (*Result, error) {
	return db.query(ctx, &Stmt{db: db, sql: sql}, false)
}

// run is one execution's view of its statement, set up by beginLocked.
type run struct {
	tmpl  *qcache.Template
	pr    *prepared
	start time.Time
	// hit: cached is a fresh answer from the result cache; serve it, run
	// nothing.
	hit    bool
	cached qcache.CachedResult
	// tvs, when non-nil, says the complete answer is to be offered to the
	// result cache: every base-table version from *before* execution.
	// Store re-checks them so an interleaved mutation can never be
	// double-counted (once in the answer, once as a patch).
	tvs []qcache.TableVersion
	ran []ranBranch // the covered branches a storing run executed
}

// ranBranch is one executed branch of a storing run: the plan it ran
// and the executor statistics carrying the probed keys.
type ranBranch struct {
	b    *branch
	plan *core.Plan
	st   *core.Stats
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
	if !db.qc.ResultsEnabled() {
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

// storeLocked offers a completely executed, fully covered answer (st
// holds its folded statistics) to the result cache with each step's
// probed keys, the pre-execution table versions and the bound guards.
// Callers hold db.mu (read suffices).
func (db *DB) storeLocked(r *run, columns []string, rows []value.Row, st *Stats) {
	var steps []core.StepStat
	var regs []qcache.StepReg
	for _, rb := range r.ran {
		for si := range rb.plan.Steps {
			var keys []string
			if rb.st.StepKeys != nil {
				keys = rb.st.StepKeys[si]
			}
			regs = append(regs, qcache.StepReg{Table: rb.b.tables[si], Step: &rb.plan.Steps[si], Keys: keys, StatIdx: len(steps) + si})
		}
		steps = append(steps, rb.st.Steps...)
	}
	db.qc.Store(&qcache.StoreRequest{
		Key: r.tmpl.ResultKey,
		Result: &qcache.CachedResult{
			Columns:         columns,
			Rows:            rows,
			Bound:           st.Bound,
			ConstraintsUsed: st.ConstraintsUsed,
			TuplesFetched:   st.TuplesFetched,
			Steps:           steps,
			Plan:            st.Plan,
			Optimized:       st.Optimized,
		},
		Branches:    len(r.pr.branches),
		Query:       r.ran[0].b.q,
		Plan:        r.ran[0].plan,
		Steps:       regs,
		Tables:      r.tvs,
		OptimizerOn: r.pr.stats.Optimized,
	})
}

// query is the evaluation core behind Query/QueryBounded.
func (db *DB) query(ctx context.Context, st *Stmt, allowFallback bool) (res *Result, err error) {
	var fp string
	defer db.observeDigest(&fp, st.sql, &res, &err, time.Now())
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, finish := db.startTrace(ctx, "query", st.sql)
	defer finish()
	db.mu.RLock()
	defer db.mu.RUnlock()
	r := &run{}
	if err := db.beginLocked(ctx, st, r); err != nil {
		return nil, err
	}
	fp = r.tmpl.Fingerprint
	if r.hit {
		return db.serveCachedLocked(r), nil
	}
	pr := r.pr
	if !pr.info.Covered && !allowFallback {
		return nil, fmt.Errorf("beas: query is not covered by the access schema: %s", pr.info.Reason)
	}
	unionAll := r.tmpl.Parsed.(*parsed).unionAll
	res = &Result{Columns: pr.columns, Stats: pr.stats}
	var rows []value.Row
	for i := range pr.branches {
		b := &pr.branches[i]
		var branchRows []value.Row
		if b.plan != nil {
			branchRows, err = db.runBounded(ctx, r, b, &res.Stats)
		} else {
			branchRows, err = db.runPartial(ctx, b, &res.Stats)
		}
		if err != nil {
			return nil, err
		}
		if i > 0 && !unionAll[i] {
			rows = exec.Dedup(append(rows, branchRows...))
		} else {
			rows = append(rows, branchRows...)
		}
	}
	res.Rows = rows
	if r.tvs != nil {
		db.storeLocked(r, res.Columns, rows, &res.Stats)
	}
	res.Stats.Duration = time.Since(r.start)
	if res.Stats.Mode == ModeBounded && res.Stats.TuplesFetched == 0 && res.Stats.Bound == 0 {
		res.Stats.Mode = ModeEmpty
	}
	return res, nil
}

// serveCachedLocked materializes a Result from a cache hit. Everything
// data-derived — rows, order, bound, fetch statistics — is the stored
// (patch-maintained) answer; Duration is this serve and CacheHit marks
// the result. Callers hold db.mu (read suffices).
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
	res.Stats.Duration = time.Since(r.start)
	if res.Stats.TuplesFetched == 0 && res.Stats.Bound == 0 {
		res.Stats.Mode = ModeEmpty
	}
	return res
}

// runBounded executes one covered branch — across db.par workers when
// parallelism is on — and folds its execution statistics into st.
func (db *DB) runBounded(ctx context.Context, r *run, b *branch, st *Stats) ([]value.Row, error) {
	plan := r.plan(b)
	ectx, esp := obs.StartSpan(ctx, "execute")
	rows, cst, err := core.RunParallelContext(ectx, plan, db.par)
	if esp != nil {
		esp.Set("mode", "bounded").Set("fetched", cst.Fetched).Set("rows", cst.RowsOut)
		esp.End()
	}
	if err != nil {
		return nil, err
	}
	foldBounded(st, cst)
	if r.tvs != nil {
		r.ran = append(r.ran, ranBranch{b: b, plan: plan, st: cst})
	}
	return rows, nil
}

// foldBounded adds a bounded branch's executor statistics to st.
func foldBounded(st *Stats, cst *core.Stats) {
	st.TuplesFetched += cst.Fetched
	for _, s := range cst.Steps {
		st.FetchSteps = append(st.FetchSteps, StepStat(s))
	}
}

// runPartial executes one partially bounded branch and folds statistics.
func (db *DB) runPartial(ctx context.Context, b *branch, st *Stats) ([]value.Row, error) {
	ectx, esp := obs.StartSpan(ctx, "execute")
	rows, subStats, engStats, err := core.RunPartialContext(ectx, b.partial, b.q, db.fallback, db.par)
	if esp != nil && subStats != nil && engStats != nil {
		esp.Set("mode", "partial").Set("fetched", subStats.Fetched).Set("scanned", engStats.Scanned)
	}
	esp.End()
	if err != nil {
		return nil, err
	}
	foldBounded(st, subStats)
	st.TuplesScanned += engStats.Scanned
	for _, o := range engStats.Ops {
		st.Ops = append(st.Ops, OpStat(o))
	}
	return rows, nil
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
	eng := engine.New(db.store, prof).WithVectorized(!db.vecOff).WithBatchSize(db.batch)
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
// deterministic accuracy lower bound (coverage ∈ [0,1]; 1 = exact).
func (db *DB) QueryApprox(sql string, budget int64) (*Result, float64, error) {
	return db.QueryApproxContext(context.Background(), sql, budget)
}

// QueryApproxContext is QueryApprox under a context: cancellation halts
// the budgeted fetch loop and returns ctx's error. Like Query, it runs
// under a trace (parse / check / optimize spans) and honors the
// cost-based optimizer's step ordering.
func (db *DB) QueryApproxContext(ctx context.Context, sql string, budget int64) (*Result, float64, error) {
	return db.queryApprox(ctx, &Stmt{db: db, sql: sql}, budget)
}

func (db *DB) queryApprox(ctx context.Context, st *Stmt, budget int64) (res *Result, coverage float64, err error) {
	var fp string
	defer db.observeDigest(&fp, st.sql, &res, &err, time.Now())
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	ctx, finish := db.startTrace(ctx, "approx", st.sql)
	defer finish()
	db.mu.RLock()
	defer db.mu.RUnlock()
	tmpl, pr, err := db.resolveLocked(ctx, st)
	if err != nil {
		return nil, 0, err
	}
	fp = tmpl.Fingerprint
	if !pr.info.Covered {
		return nil, 0, fmt.Errorf("beas: approximation requires a covered query: %s", pr.info.Reason)
	}
	unionAll := tmpl.Parsed.(*parsed).unionAll
	start := time.Now()
	res = &Result{Columns: pr.columns, Stats: Stats{Mode: ModeBounded, Covered: true, Optimized: pr.stats.Optimized, Bound: pr.stats.Bound, Fingerprint: tmpl.Fingerprint}}
	coverage = 1.0
	remaining := budget
	var rows []value.Row
	for i := range pr.branches {
		ar, err := approx.RunContext(ctx, pr.branches[i].plan, max(remaining, 1))
		if err != nil {
			return nil, 0, err
		}
		remaining -= ar.Fetched
		coverage *= ar.Coverage
		res.Stats.TuplesFetched += ar.Fetched
		if i > 0 && !unionAll[i] {
			rows = exec.Dedup(append(rows, ar.Rows...))
		} else {
			rows = append(rows, ar.Rows...)
		}
	}
	res.Rows = rows
	res.Stats.Duration = time.Since(start)
	return res, coverage, nil
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
