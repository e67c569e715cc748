// Package opt is the cost-based bounded-plan optimizer. The BE Checker
// picks fetch steps greedily by their worst-case bounds (KeyBound · N);
// on real data the actual fan-out per key is usually far below N, so the
// cheapest worst-case derivation is often not the fastest plan. This
// package enumerates the alternative coverage derivations — every
// ordering of fetchable (atom, constraint) pairs the checker's coverage
// discipline admits — by branch-and-bound, and costs each with the
// statistics catalog's estimated fetched rows and key-set expansion
// instead of worst-case N.
//
// The search runs on the checker's own coverage derivation
// (core.CoverState): the estimator adds only the cost model — estimated
// rows, distinct values and cost — while coverage, filter scheduling and
// the running worst-case bound are the state's. Two invariants make the
// rewrite safe:
//
//   - Equivalence: every derivation reachable through
//     core.CoverState.Fetchable/Apply fetches each atom via one
//     constraint spanning all its used attributes and applies every
//     filter exactly once, so all derivations return the same bag
//     (cf. Chirkova & Genesereth on equivalence under embedded
//     dependencies); only the work differs.
//   - Admission: the search prunes any derivation whose running M (the
//     state's TotalBoundWith) exceeds the greedy derivation's, and
//     CoverState.Finalize gives the rewritten CheckResult the greedy
//     TotalBound — so admission control sees the unchanged a-priori bound
//     M and the executor still provably fetches at most M tuples.
package opt

import (
	"maps"
	"math"
	"slices"
	"sort"

	"github.com/bounded-eval/beas/internal/analyze"
	"github.com/bounded-eval/beas/internal/core"
	"github.com/bounded-eval/beas/internal/sqlparser"
	"github.com/bounded-eval/beas/internal/stats"
	"github.com/bounded-eval/beas/internal/value"
)

// defaultMaxNodes bounds the branch-and-bound search; queries have few
// atoms and few constraints per relation, so real searches explore far
// fewer nodes. On exhaustion the best derivation found so far wins
// (never worse than greedy, which seeds the incumbent).
const defaultMaxNodes = 4096

// Optimizer rewrites covered-query fetch derivations using the
// statistics catalog. The zero value is unusable; construct with New.
type Optimizer struct {
	cat      *stats.Catalog
	maxNodes int
}

// New creates an optimizer over the catalog.
func New(cat *stats.Catalog) *Optimizer {
	return &Optimizer{cat: cat, maxNodes: defaultMaxNodes}
}

// Rewrite returns chk with its fetch derivation re-ordered (and each
// step annotated with estimated keys/fetches) when the cost model finds
// a cheaper valid derivation; otherwise it returns chk with the greedy
// steps annotated. Non-covered and empty-guaranteed verdicts pass
// through untouched. The returned result always reports chk's worst-case
// bounds for admission control.
func (o *Optimizer) Rewrite(q *analyze.Query, chk *core.CheckResult, as core.Provider) *core.CheckResult {
	if o == nil || chk == nil || !chk.Covered || chk.EmptyGuaranteed || len(chk.Steps) == 0 {
		return chk
	}
	st, contradiction := core.NewCoverState(q)
	if contradiction {
		return chk
	}

	// Seed the incumbent with the greedy derivation, costed by the same
	// model, so the search can only improve on it.
	base := newEstimator(o.cat, q, st.Clone())
	greedySteps := slices.Clone(chk.Steps)
	for i := range greedySteps {
		// Fresh ordinal arrays: the replay must not overwrite the class
		// ordinals Check assigned on the original steps.
		greedySteps[i].XClasses = make([]int, len(chk.Steps[i].XClasses))
		base.apply(&greedySteps[i])
	}
	best := &candidate{steps: greedySteps, cost: base.cost, state: base.state}

	if len(chk.Steps) > 1 {
		nodes := 0
		o.search(as, newEstimator(o.cat, q, st), nil, chk.TotalBound, best, &nodes)
	}
	return best.state.Finalize(chk, best.steps)
}

// candidate is the incumbent best complete derivation.
type candidate struct {
	steps []core.FetchStep
	cost  float64
	state *core.CoverState
}

// search extends the derivation prefix held by est with every fetchable
// step, depth-first with cost and worst-case pruning.
func (o *Optimizer) search(as core.Provider, est *estimator, prefix []core.FetchStep, worstBudget uint64, best *candidate, nodes *int) {
	if est.state.Done() {
		if est.cost < best.cost {
			best.steps = append([]core.FetchStep(nil), prefix...)
			best.cost = est.cost
			best.state = est.state
		}
		return
	}
	if *nodes >= o.maxNodes {
		return
	}
	*nodes++
	cands := est.state.Fetchable(as)
	// Deterministic, promising-first exploration: cheaper estimated
	// fetches first tightens the incumbent early and prunes more.
	scored := make([]scoredStep, len(cands))
	for i, s := range cands {
		scored[i] = scoredStep{step: s, est: est.peek(s)}
	}
	sort.SliceStable(scored, func(i, j int) bool {
		return value.CompareFloat64(scored[i].est, scored[j].est) < 0
	})
	for _, sc := range scored {
		step := sc.step
		// Admission pruning: never explore a derivation whose worst case
		// exceeds the greedy bound M that admission control was told.
		if est.state.TotalBoundWith(step) > worstBudget {
			continue
		}
		next := est.clone()
		next.apply(&step)
		if next.cost >= best.cost {
			continue
		}
		o.search(as, next, append(prefix, step), worstBudget, best, nodes)
	}
}

type scoredStep struct {
	step core.FetchStep
	est  float64
}

// estimator accumulates the cost model's state along one derivation
// prefix: estimated intermediate rows, estimated distinct values per
// equivalence class and the running cost. Coverage, filter scheduling
// and the worst-case bound M are the derivation's own (state).
type estimator struct {
	cat   *stats.Catalog
	q     *analyze.Query
	state *core.CoverState

	rows    float64         // estimated intermediate rows
	classDV map[int]float64 // class ordinal → estimated distinct values
	cost    float64
}

func newEstimator(cat *stats.Catalog, q *analyze.Query, st *core.CoverState) *estimator {
	return &estimator{cat: cat, q: q, state: st, rows: 1, classDV: make(map[int]float64)}
}

func (e *estimator) clone() *estimator {
	out := *e
	out.state = e.state.Clone()
	out.classDV = maps.Clone(e.classDV)
	return &out
}

// stepEstimates computes (estKeys, estFetched, estRows) for executing
// step next, without mutating the estimator.
func (e *estimator) stepEstimates(step core.FetchStep) (keys, fetched, rowsOut float64) {
	atom := e.q.Atoms[step.Atom]

	// Distinct keys: product over the step's distinct X classes of the
	// class's constant-candidate count or its estimated distinct values
	// in the current intermediate relation, capped by the worst case.
	keys = 1
	constProduct := 1.0
	for _, kc := range e.state.StepKeyClasses(step) {
		var dv float64
		switch {
		case kc.Consts > 0:
			dv = float64(kc.Consts)
			constProduct *= dv
		default:
			dv = e.classDV[kc.Class]
			if dv <= 0 {
				dv = boundF(kc.Bound)
			}
			if dv > e.rows {
				dv = e.rows // no more distinct values than rows
			}
		}
		keys *= dv
	}
	keys = clampF(keys, 1, boundF(step.KeyBound))

	// Expected bucket size per probe: the constraint's stored tuples over
	// its key space (distinct combinations the X columns admit), which
	// folds the miss rate and the mean fan-out into one density. Falls
	// back to the declared worst-case N without statistics.
	density := float64(step.Constraint.N)
	if f, ok := e.cat.Constraint(step.Constraint); ok && f.DistinctKeys > 0 {
		space := 1.0
		for _, x := range step.Constraint.X {
			if ndv, ok := e.cat.NDV(atom.Rel.Name, x); ok && ndv > 0 {
				space *= float64(ndv)
			}
		}
		if space < float64(f.DistinctKeys) {
			space = float64(f.DistinctKeys)
		}
		density = float64(f.Tuples) / space
	}
	fetched = keys * density

	// Rows out: every intermediate row expands by the per-probe density
	// (times the constant fan-out of const-driven key components), then
	// the filters that become evaluable at this step cut it down.
	rowsOut = e.rows * constProduct * density
	sel := e.pendingSelectivity(step)
	rowsOut *= sel
	if rowsOut < 0.01 {
		rowsOut = 0.01
	}
	return keys, fetched, rowsOut
}

// peek returns the step's cost contribution without mutating state, for
// candidate ordering.
func (e *estimator) peek(step core.FetchStep) float64 {
	keys, fetched, rowsOut := e.stepEstimates(step)
	return keys + fetched + rowsOut
}

// apply executes step in the model: annotates it with the estimates,
// applies it to the derivation (which schedules its filters), updates
// class distinct-value estimates and accumulates cost.
func (e *estimator) apply(step *core.FetchStep) {
	keys, fetched, rowsOut := e.stepEstimates(*step)
	step.EstKeys, step.EstFetched, step.EstRows = keys, fetched, rowsOut

	atom := step.Atom
	e.state.Apply(step)
	e.rows = rowsOut
	// Newly materialised attributes bound their classes' distinct values
	// by the base column's NDV and the rows that survived.
	rel := e.q.Atoms[atom].Rel
	for _, attr := range e.state.UsedAttrs(atom) {
		cls := e.state.ClassOf(analyze.ColID{Atom: atom, Attr: attr})
		dv := rowsOut
		if ndv, ok := e.cat.NDV(rel.Name, rel.Attrs[attr].Name); ok && ndv > 0 && float64(ndv) < dv {
			dv = float64(ndv)
		}
		if old, ok := e.classDV[cls]; !ok || dv < old {
			e.classDV[cls] = dv
		}
	}
	e.cost += keys + fetched + rowsOut
}

// pendingSelectivity multiplies the estimated selectivities of every
// conjunct the derivation would make evaluable with step. Conjuncts the
// fetch enforces by construction — equalities on the step's X
// attributes, whose values the key enumeration already fixes — contribute
// nothing: the plan still evaluates them (trivially true), but their
// effect is in the key set, not the bucket contents. Nor do column-free
// conjuncts, which cut no step's rows in particular.
func (e *estimator) pendingSelectivity(step core.FetchStep) float64 {
	xattr := func(id analyze.ColID) bool {
		return id.Atom == step.Atom && slices.Contains(step.XAttrs, id.Attr)
	}
	sel := 1.0
	e.state.Evaluable(step.Atom, func(c analyze.Conjunct) {
		switch {
		case len(c.Refs) == 0:
			return
		case c.Kind == analyze.EqAttrConst || c.Kind == analyze.InConsts:
			if xattr(c.A) {
				return // the key enumeration probes exactly these constants
			}
		case c.Kind == analyze.EqAttrAttr:
			if xattr(c.A) || xattr(c.B) {
				return // the key is read from the other side's slot
			}
		}
		sel *= e.conjunctSelectivity(c)
	})
	return sel
}

// conjunctSelectivity estimates one conjunct from the catalog, mirroring
// the textbook shapes the fallback engine uses but against live NDVs and
// histograms.
func (e *estimator) conjunctSelectivity(c analyze.Conjunct) float64 {
	colName := func(id analyze.ColID) (table, col string) {
		rel := e.q.Atoms[id.Atom].Rel
		return rel.Name, rel.Attrs[id.Attr].Name
	}
	switch c.Kind {
	case analyze.EqAttrConst:
		t, col := colName(c.A)
		// Key components consumed by the fetch itself (the class carries
		// the constant) still show up here; their effect is already in
		// the key enumeration, but the constraint bucket may hold rows
		// for other values only when the column is a Y attribute — the
		// uniform estimate stays the right shape either way.
		return e.cat.SelectivityEq(t, col)
	case analyze.InConsts:
		t, col := colName(c.A)
		return clampF(float64(len(c.Vals))*e.cat.SelectivityEq(t, col), 0, 1)
	case analyze.CmpConst:
		t, col := colName(c.A)
		return e.cat.SelectivityCmp(t, col, c.Op, c.Val)
	case analyze.EqAttrAttr:
		ta, ca := colName(c.A)
		tb, cb := colName(c.B)
		na, _ := e.cat.NDV(ta, ca)
		nb, _ := e.cat.NDV(tb, cb)
		n := na
		if nb > n {
			n = nb
		}
		if n <= 0 {
			return 0.01
		}
		return 1 / float64(n)
	case analyze.CmpAttrAttr:
		if c.Op == sqlparser.OpNe {
			return 0.9
		}
		return 1.0 / 3
	default:
		return 0.5
	}
}

func boundF(b uint64) float64 {
	if b == core.Unbounded {
		return math.MaxFloat64 / 4
	}
	return float64(b)
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
