package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/bounded-eval/beas/internal/analyze"
	"github.com/bounded-eval/beas/internal/engine"
	"github.com/bounded-eval/beas/internal/iter"
)

// PartialPlan is the BE Plan Optimizer's product for a non-covered query
// (paper §3): the maximal fetchable sub-query is evaluated boundedly and
// materialised; the conventional engine joins it with scans of the
// remaining atoms.
type PartialPlan struct {
	// Sub is the bounded plan for the covered sub-query; nil when no atom
	// is fetchable (the plan is fully conventional).
	Sub *Plan
	// Fetched lists the atoms covered by Sub; Remaining the others.
	Fetched   []int
	Remaining []int
	// Check is the (failed) coverage check the plan derives from.
	Check *CheckResult
}

// NewPartialPlan builds a partially bounded plan for q. The checker's
// derivation already identifies every fetchable atom even when the whole
// query is not covered; those atoms and the conjuncts fully contained in
// them form the bounded sub-query.
func NewPartialPlan(q *analyze.Query, chk *CheckResult) (*PartialPlan, error) {
	if chk.Covered {
		return nil, fmt.Errorf("core: query is covered; use NewPlan")
	}
	pp := &PartialPlan{Check: chk}
	st := chk.cover
	for ai := range q.Atoms {
		if st.fetched[ai] {
			pp.Fetched = append(pp.Fetched, ai)
		} else {
			pp.Remaining = append(pp.Remaining, ai)
		}
	}
	if len(pp.Fetched) == 0 {
		return pp, nil
	}

	// Sub-query: same atoms, the conjuncts the derivation made evaluable
	// (those contained in the fetched set), and outputs forcing
	// materialisation of every attribute the full query uses on fetched
	// atoms (downstream joins and projections need them).
	sub := &analyze.Query{Atoms: q.Atoms}
	for ci, at := range st.scheduled {
		if at != 0 {
			sub.Conjuncts = append(sub.Conjuncts, q.Conjuncts[ci])
		}
	}
	for _, ai := range pp.Fetched {
		atom := q.Atoms[ai]
		for _, attr := range st.UsedAttrs(ai) {
			name := atom.Name + "." + atom.Rel.Attrs[attr].Name
			sub.Outputs = append(sub.Outputs, analyze.OutputCol{
				Name: name,
				Expr: &analyze.ColRef{ID: analyze.ColID{Atom: ai, Attr: attr}, Name: name},
			})
		}
	}
	plan, err := newPlanFromSteps(sub, chk)
	if err != nil {
		return nil, err
	}
	pp.Sub = plan
	return pp, nil
}

// StreamPartialContext executes the partially bounded plan: the bounded
// sub-plan first, eagerly, through the constraint indices (its size is
// bounded by the access schema, so materialising it is exactly the cost
// the checker promised), then the conventional engine streams the join of
// the materialised source with scans of the remaining atoms. The returned
// stats separate fetched tuples (bounded part, final on return) from
// scanned tuples (conventional part, accruing while the iterator is
// consumed). The eager bounded sub-plan observes ctx while it
// materialises, and the streaming conventional part observes it per
// batch.
func StreamPartialContext(ctx context.Context, pp *PartialPlan, q *analyze.Query, eng *engine.Engine) (iter.Iterator, *Stats, *engine.Stats, error) {
	var sources []engine.Source
	st := &Stats{}
	if pp.Sub != nil {
		rows, subStats, err := RunContext(ctx, pp.Sub)
		if err != nil {
			return nil, nil, nil, err
		}
		*st = *subStats
		// The executor returns rows in output order, so the source's
		// column list must come from the sub-query's outputs (which are
		// all plain column references by construction).
		cols := make([]analyze.ColID, len(pp.Sub.Query.Outputs))
		for i, o := range pp.Sub.Query.Outputs {
			ref, ok := o.Expr.(*analyze.ColRef)
			if !ok {
				return nil, nil, nil, fmt.Errorf("core: internal: sub-query output %d is not a column", i)
			}
			cols[i] = ref.ID
		}
		sources = append(sources, engine.Source{
			Atoms: pp.Fetched,
			Cols:  cols,
			Rows:  rows,
			Name:  "bounded(" + atomNames(q, pp.Fetched) + ")",
		})
	}
	it, engStats, err := eng.StreamContext(ctx, q, sources)
	if err != nil {
		return nil, nil, nil, err
	}
	return it, st, engStats, nil
}

// Describe renders the partially bounded plan.
func (pp *PartialPlan) Describe(q *analyze.Query) string {
	var b strings.Builder
	b.WriteString("partially bounded plan:\n")
	if pp.Sub != nil {
		fmt.Fprintf(&b, "  bounded sub-query over {%s}:\n", atomNames(q, pp.Fetched))
		for _, line := range strings.Split(strings.TrimRight(pp.Sub.Describe(), "\n"), "\n") {
			b.WriteString("    " + line + "\n")
		}
	} else {
		b.WriteString("  no atom is fetchable; fully conventional plan\n")
	}
	if len(pp.Remaining) > 0 {
		fmt.Fprintf(&b, "  conventional scans over {%s}, joined by the underlying engine\n",
			atomNames(q, pp.Remaining))
	}
	return b.String()
}

func atomNames(q *analyze.Query, atoms []int) string {
	names := make([]string, len(atoms))
	for i, a := range atoms {
		names[i] = q.Atoms[a].Name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// newPlanFromSteps builds an executable plan for the sub-query q from
// the checker's steps without requiring full coverage (used by the
// partial optimizer). Its filters are the conjuncts the derivation
// scheduled, which are q's.
func newPlanFromSteps(q *analyze.Query, chk *CheckResult) (*Plan, error) {
	forced := *chk
	forced.Covered = true
	p, err := NewPlan(q, &forced)
	if err != nil {
		return nil, err
	}
	p.Check = chk
	return p, nil
}

// BoundedSubqueryBound returns the deduced fetch bound of the bounded
// part (the conventional part is unbounded by definition): the M of the
// derivation's fetchable steps.
func (pp *PartialPlan) BoundedSubqueryBound() uint64 { return pp.Check.TotalBound }
