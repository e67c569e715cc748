package beas

import (
	"context"
	"errors"
	"fmt"

	"github.com/bounded-eval/beas/internal/analyze"
	"github.com/bounded-eval/beas/internal/core"
	"github.com/bounded-eval/beas/internal/obs"
	"github.com/bounded-eval/beas/internal/qcache"
	"github.com/bounded-eval/beas/internal/storage"
)

// prepared is what BEAS deduces about a statement from its text and the
// access schema alone, never from the data (paper §3, BE Checker and BE
// Plan Generator): per UNION branch the verdict, the optimizer's
// derivation and the executable plan, plus the aggregated CheckInfo and
// the static half of Stats. It hangs off the statement's template and is
// immutable once published, so any number of executions share it and a
// repeated text costs a template lookup, a guard compare and the run.
//
// Guards: the template pins the catalog version; exec pins the settings
// stamped into the plans; bounds pins the access schema's bound epoch
// (auto-widening moves a constraint's N, and the deduced M, without a
// catalog bump). Every derivation returns the same bag, but the
// optimizer picks one by data statistics and the pick fixes row order,
// so with the optimizer on tables holds each base table's version at
// costing time: when only those moved, the rewrite and the plans are
// redone over the kept greedy verdicts.
type prepared struct {
	exec, bounds uint64
	tables       []qcache.TableVersion

	greedy   []*core.CheckResult // the checker's own verdict per branch: the rewrite's input
	branches []branch
	columns  []string
	info     CheckInfo
	stats    Stats // what Stats reports before anything runs
	// storable: every branch is covered and every base table resolved, so
	// a complete answer may enter the result cache.
	storable bool
	bytes    int64
}

// branch is one UNION branch ready to run: a bounded plan when the
// checker covered it, a partially bounded plan otherwise.
type branch struct {
	q       *analyze.Query
	plan    *core.Plan
	partial *core.PartialPlan
	tables  []*storage.Table // base table of each plan step
}

// tableVersions reads the current version of every base table.
func (pr *prepared) tableVersions() []qcache.TableVersion {
	out := make([]qcache.TableVersion, len(pr.tables))
	for i, tv := range pr.tables {
		out[i] = qcache.TableVersion{Table: tv.Table, Version: tv.Table.Version()}
	}
	return out
}

// costedOnCurrent reports whether every base table still is at the
// version the optimizer costed the derivation on.
func (pr *prepared) costedOnCurrent() bool {
	for _, tv := range pr.tables {
		if tv.Table.Version() != tv.Version {
			return false
		}
	}
	return true
}

// prepareLocked resolves sql to its template and current prepared state
// under "parse" and "check" spans, with exactly one counted template
// lookup. Callers hold db.mu (read suffices) and keep holding it while
// they execute, so the plan that was checked is the plan that runs.
func (db *DB) prepareLocked(ctx context.Context, sql string) (*qcache.Template, *prepared, error) {
	_, sp := obs.StartSpan(ctx, "parse")
	t, hit, err := db.parseLocked(sql)
	sp.Set("planCacheHit", hit)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	cctx, csp := obs.StartSpan(ctx, "check")
	pr, hit, err := db.currentLocked(cctx, t)
	if csp != nil && err == nil {
		state := "miss"
		if hit {
			state = "hit"
		}
		csp.Set("prepared", state).Set("covered", pr.info.Covered).Set("bound", pr.info.Bound)
	}
	csp.End()
	return t, pr, err
}

// currentLocked returns t's prepared state, first rebuilding the part of
// it the guards invalidate; hit reports that nothing was. Readers racing
// on one template deduce the same state; the last publish wins.
func (db *DB) currentLocked(ctx context.Context, t *qcache.Template) (pr *prepared, hit bool, err error) {
	p := t.Parsed.(*parsed)
	pr = p.prep.Load()
	switch {
	case pr == nil || pr.exec != db.execEpoch || pr.bounds != db.access.BoundEpoch():
		pr, err = db.buildPreparedLocked(ctx, t, nil)
	case pr.stats.Optimized && !pr.costedOnCurrent():
		pr, err = db.buildPreparedLocked(ctx, t, pr.greedy)
	default:
		return pr, true, nil
	}
	if err != nil {
		return nil, false, err
	}
	p.prep.Store(pr)
	db.qc.ChargeTemplate(t, pr.bytes)
	return pr, false, nil
}

// buildPreparedLocked deduces t's prepared state under the current
// catalog, settings and statistics; a non-nil greedy is reused as the
// checker's verdict, so only the rewrite and the plans are redone.
func (db *DB) buildPreparedLocked(ctx context.Context, t *qcache.Template, greedy []*core.CheckResult) (*prepared, error) {
	p := t.Parsed.(*parsed)
	// Epoch and versions are read before the deductions they guard, so a
	// change racing the build fails the next guard compare.
	pr := &prepared{
		exec:     db.execEpoch,
		bounds:   db.access.BoundEpoch(),
		greedy:   greedy,
		columns:  p.branches[0].OutputNames(),
		info:     CheckInfo{Covered: true, EmptyGuaranteed: true},
		stats:    Stats{Mode: ModeBounded, Covered: true, Optimized: db.optzr != nil, Fingerprint: t.Fingerprint},
		storable: true,
		bytes:    256,
	}
	seen := make(map[*storage.Table]bool)
	table := func(a analyze.Atom) *storage.Table {
		tab, ok := db.store.Table(a.Rel.Name)
		if !ok {
			pr.storable = false
			return nil
		}
		if !seen[tab] {
			seen[tab] = true
			pr.tables = append(pr.tables, qcache.TableVersion{Table: tab, Version: tab.Version()})
		}
		return tab
	}
	for _, q := range p.branches {
		for _, a := range q.Atoms {
			table(a)
		}
	}
	if greedy == nil {
		for _, q := range p.branches {
			pr.greedy = append(pr.greedy, core.Check(q, db.access))
		}
	}
	for i, q := range p.branches {
		chk := pr.greedy[i]
		if db.optzr != nil {
			_, osp := obs.StartSpan(ctx, "optimize")
			chk = db.optzr.Rewrite(q, chk, db.access)
			osp.End()
		}
		pr.info.EmptyGuaranteed = pr.info.EmptyGuaranteed && chk.EmptyGuaranteed
		pr.info.Bound = satAdd(pr.info.Bound, chk.TotalBound)
		pr.info.OutputBound = satAdd(pr.info.OutputBound, chk.OutputBound)
		pr.info.ConstraintsUsed += chk.ConstraintsUsed
		b := branch{q: q}
		var desc string
		if chk.Covered {
			plan, err := core.NewPlan(q, chk)
			if err != nil {
				return nil, err
			}
			plan.BatchSize = db.batch
			b.plan = plan
			for si := range plan.Steps {
				b.tables = append(b.tables, table(q.Atoms[plan.Steps[si].Atom]))
			}
			desc = plan.Describe()
			pr.stats.Bound = satAdd(pr.stats.Bound, chk.TotalBound)
			pr.stats.ConstraintsUsed += chk.ConstraintsUsed
			if len(p.branches) > 1 {
				pr.info.Plan += fmt.Sprintf("branch %d:\n", i+1)
			}
		} else {
			pp, err := core.NewPartialPlan(q, chk)
			if err != nil {
				return nil, err
			}
			if pp.Sub != nil {
				pp.Sub.BatchSize = db.batch
			}
			b.partial = pp
			desc = pp.Describe(q)
			pr.storable = false
			pr.stats.Covered = false
			pr.stats.Mode = ModeConventional
			if pp.Sub != nil {
				pr.stats.Mode = ModePartial
			}
			if pr.info.Covered {
				pr.info.Covered, pr.info.Reason = false, chk.Reason
			}
			pr.info.Plan += fmt.Sprintf("branch %d:\n", i+1)
		}
		pr.info.Plan += desc
		pr.stats.Plan += desc
		pr.branches = append(pr.branches, b)
		// Footprint charged to the template tier: verdict, plan, layout.
		pr.bytes += 768 + 1536*int64(len(chk.Steps)) + 256*int64(len(q.Conjuncts)) + 2*int64(len(desc))
	}
	if db.optzr != nil {
		pr.bytes += pr.bytes / 4 // the greedy verdicts kept beside the rewritten ones
	}
	return pr, nil
}

// ErrStmtStale reports that the verdict a Stmt was prepared under no
// longer holds — DDL, Retighten, a widened bound, a changed execution
// setting — and that nothing ran. Prepare again.
var ErrStmtStale = errors.New("beas: prepared statement is stale: catalog or execution settings changed since Prepare")

// Stmt is a prepared statement: parse, checker verdict, optimizer
// derivation and bounded plan of one SQL text. Admission can be decided
// on CheckInfo, and executing the Stmt then runs exactly the plan that
// verdict describes, or fails with ErrStmtStale. It is immutable, safe
// for concurrent use and pins no lock between calls. DB.Query and its
// siblings prepare implicitly through the same per-text cache.
type Stmt struct {
	db   *DB
	sql  string
	tmpl *qcache.Template // nil: not prepared yet, resolveLocked prepares sql
	prep *prepared
}

// Prepare parses, analyses and checks sql and plans every UNION branch
// without executing anything.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	return db.PrepareContext(context.Background(), sql)
}

// PrepareContext is Prepare under a context, consulted once up front:
// preparation never touches data.
func (db *DB) PrepareContext(ctx context.Context, sql string) (*Stmt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, finish := db.startTrace(ctx, "check", sql)
	defer finish()
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, pr, err := db.prepareLocked(ctx, sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, sql: sql, tmpl: t, prep: pr}, nil
}

// SQL returns the statement text.
func (st *Stmt) SQL() string { return st.sql }

// CheckInfo returns the BE Checker's verdict the statement was prepared
// under. Its Bound is the bound of the plan an execution of st runs.
func (st *Stmt) CheckInfo() *CheckInfo {
	info := st.prep.info
	return &info
}

// QueryContext executes the statement like DB.QueryContext.
func (st *Stmt) QueryContext(ctx context.Context) (*Result, error) {
	return st.db.query(ctx, st, true, nil)
}

// QueryIterContext executes the statement like DB.QueryIterContext.
func (st *Stmt) QueryIterContext(ctx context.Context) (*RowIter, error) {
	return st.db.queryIter(ctx, st)
}

// QueryApproxContext executes the statement like DB.QueryApproxContext.
func (st *Stmt) QueryApproxContext(ctx context.Context, budget int64) (*Result, float64, error) {
	return st.db.queryApprox(ctx, st, budget)
}

// resolveLocked returns what an execution of st runs: for the DB.Query
// family (tmpl nil) whatever the text prepares to now; for a Stmt from
// Prepare its own template, without a second lookup, or ErrStmtStale.
// Moved optimizer statistics only refresh the derivation — coverage and
// bound cannot change with them. Callers hold db.mu (read suffices).
func (db *DB) resolveLocked(ctx context.Context, st *Stmt) (*qcache.Template, *prepared, error) {
	if st.tmpl == nil {
		return db.prepareLocked(ctx, st.sql)
	}
	if st.tmpl.Version != db.catalogVersion {
		return nil, nil, ErrStmtStale
	}
	pr, _, err := db.currentLocked(ctx, st.tmpl)
	if err != nil {
		return nil, nil, err
	}
	if pr.exec != st.prep.exec || pr.bounds != st.prep.bounds {
		return nil, nil, ErrStmtStale
	}
	return st.tmpl, pr, nil
}
