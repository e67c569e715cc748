package core

import (
	"fmt"
	"slices"
	"strings"

	"github.com/bounded-eval/beas/internal/analyze"
	"github.com/bounded-eval/beas/internal/value"
)

// KeySource says where one component of a fetch key comes from during
// execution: a set of constant candidates (equality or IN conjuncts), or
// a slot of the intermediate row materialised by an earlier step.
type KeySource struct {
	// Consts, when non-nil, enumerates candidate constants.
	Consts []value.Value
	// Slot is the intermediate-row slot to read when Consts is nil.
	Slot int
}

// PlanStep is an executable fetch step: the checker's FetchStep plus key
// sourcing, slot assignments and the filters that become applicable once
// the step's attributes are materialised.
type PlanStep struct {
	FetchStep
	// Keys has one source per X attribute of the constraint.
	Keys []KeySource
	// XSlots / YSlots are the intermediate-row slots of the step's X
	// attributes and of its *used* Y attributes (parallel to YUsed).
	XSlots []int
	YUsed  []int // positions into Constraint.Y / YAttrs that the query uses
	YSlots []int
	// Filters are the conjuncts evaluated right after this step extends a
	// row: every conjunct is applied exactly once, at the step the
	// derivation made it evaluable (CoverState's readiness rule).
	Filters []analyze.Conjunct
}

// Plan is a bounded query plan (paper §3): an ordered list of fetch steps
// plus the relational tail, accessing data only through fetch operators.
type Plan struct {
	Query  *analyze.Query
	Steps  []PlanStep
	Layout *analyze.Layout
	// Check is the checker verdict the plan was generated from.
	Check *CheckResult
	// Vectorized is ignored: fetch steps always run columnar.
	//
	// Deprecated: kept only so existing callers compile.
	Vectorized bool
	// BatchSize is the columnar batch row capacity (≤ 0 = default).
	BatchSize int
	// CollectKeys makes the executors record every distinct encoded key
	// each step probed (including keys that hit an empty bucket) in
	// Stats.StepKeys. The result cache uses the sets to subscribe an
	// entry to exactly the index regions it read.
	CollectKeys bool
}

// NewPlan turns a successful check into an executable bounded plan. It
// fails if the check did not cover the query. Key sources and filter
// placement come from the check's derivation; NewPlan assigns the
// intermediate-row slots.
func NewPlan(q *analyze.Query, chk *CheckResult) (*Plan, error) {
	if !chk.Covered {
		return nil, fmt.Errorf("core: query is not covered: %s", chk.Reason)
	}
	p := &Plan{Query: q, Check: chk, Layout: analyze.NewLayout()}
	if chk.EmptyGuaranteed {
		return p, nil
	}
	for si, fs := range chk.Steps {
		ps := PlanStep{FetchStep: fs}
		atom := fs.Atom

		// Key sources: constants if the class carries them, else the slot
		// of the class's first-materialised member.
		for _, xa := range fs.XAttrs {
			consts, src, ok := chk.cover.keySource(analyze.ColID{Atom: atom, Attr: xa})
			if ok && consts != nil {
				ps.Keys = append(ps.Keys, KeySource{Consts: consts})
				continue
			}
			slot, found := p.Layout.Slot(src)
			if !ok || !found {
				return nil, fmt.Errorf("core: internal: no materialised source for key %s.%s of %v",
					q.Atoms[atom].Name, q.Atoms[atom].Rel.Attrs[xa].Name, fs.Constraint)
			}
			ps.Keys = append(ps.Keys, KeySource{Slot: slot})
		}

		// Slot assignments for this atom's X attributes and used Y
		// attributes.
		for _, xa := range fs.XAttrs {
			ps.XSlots = append(ps.XSlots, p.Layout.Add(analyze.ColID{Atom: atom, Attr: xa}))
		}
		used := chk.cover.UsedAttrs(atom)
		for yi, ya := range fs.YAttrs {
			if _, ok := slices.BinarySearch(used, ya); !ok {
				continue
			}
			ps.YUsed = append(ps.YUsed, yi)
			ps.YSlots = append(ps.YSlots, p.Layout.Add(analyze.ColID{Atom: atom, Attr: ya}))
		}
		ps.Filters = chk.cover.filtersOf(si)
		p.Steps = append(p.Steps, ps)
	}
	return p, nil
}

// Describe renders the plan like the paper's Example 2 walk-through.
func (p *Plan) Describe() string {
	var b strings.Builder
	if p.Check.EmptyGuaranteed {
		b.WriteString("bounded plan: constant contradiction; emit empty result\n")
		return b.String()
	}
	for i, s := range p.Steps {
		atom := p.Query.Atoms[s.Atom]
		fmt.Fprintf(&b, "(%d) fetch %s via %v", i+1, atom.Name, s.Constraint)
		fmt.Fprintf(&b, "  [≤ %s keys, ≤ %s tuples]", boundStr(s.KeyBound), boundStr(s.OutBound))
		if s.EstKeys > 0 {
			fmt.Fprintf(&b, "  [est ≈ %.0f keys, ≈ %.0f tuples]", s.EstKeys, s.EstFetched)
		}
		if len(s.Filters) > 0 {
			var fs []string
			for _, f := range s.Filters {
				fs = append(fs, f.String())
			}
			fmt.Fprintf(&b, "  filter: %s", strings.Join(fs, " AND "))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "(%d) ", len(p.Steps)+1)
	if p.Query.IsAgg {
		b.WriteString("aggregate, ")
	}
	b.WriteString("project")
	if p.Query.Distinct {
		b.WriteString(" distinct")
	}
	if len(p.Query.OrderBy) > 0 {
		b.WriteString(", sort")
	}
	if p.Query.Limit != nil {
		b.WriteString(", limit")
	}
	b.WriteByte('\n')
	return b.String()
}
