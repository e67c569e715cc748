// Package core implements the primary contribution of the paper: the
// BE Checker (deciding whether an SQL query is covered by an access
// schema, with an a-priori bound on the data accessed), the BE Plan
// Generator (bounded query plans whose only data access is the fetch
// operator), the BE Plan Executor, and the BE Plan Optimizer's partially
// bounded evaluation for non-covered queries.
//
// # Coverage discipline
//
// The checker implements a sound instantiation of the covered-query
// effective syntax [Cao & Fan, SIGMOD 2016]: equivalence classes of
// (atom, attribute) nodes are built from equality conjuncts; classes
// holding constants are covered; an atom becomes fetchable via a
// constraint ψ = R(X → Y, N) once all of ψ's X-classes are covered and
// X ∪ Y contains every attribute of the atom the query uses; fetching an
// atom covers the classes of its materialised attributes. The query is
// covered when every atom is fetchable. Requiring a single constraint per
// atom to span all used attributes guarantees each fetched partial tuple
// has a single witness in D, so bounded plans return exact answers.
//
// # One derivation
//
// CoverState is the only implementation of that discipline. Check is a
// greedy policy over it, the cost-based optimizer (internal/opt) searches
// over clones of it, and NewPlan reads key sources and filter placement
// from the state the chosen derivation ended in, so the checker's
// verdict, the bound M, the optimizer's alternatives and the plan's
// filter schedule all come from one rule.
package core

import (
	"fmt"
	"math"
	"strings"

	"github.com/bounded-eval/beas/internal/access"
	"github.com/bounded-eval/beas/internal/analyze"
	"github.com/bounded-eval/beas/internal/value"
)

// Unbounded is the saturated bound value: "more than any budget".
const Unbounded = math.MaxUint64

// FetchStep is one application of the fetch operator
// fetch(X ∈ T, Y, R) controlled by an access constraint (paper §3).
type FetchStep struct {
	// Atom is the index of the query atom this step materialises.
	Atom int
	// Constraint controls the step; Index is its hash index.
	Constraint *access.Constraint
	Index      *access.Index

	// XAttrs / YAttrs are attribute positions of the constraint's X / Y
	// lists in the atom's relation schema.
	XAttrs []int
	YAttrs []int
	// XClasses are the equivalence-class ids of the X attributes, parallel
	// to XAttrs.
	XClasses []int

	// KeyBound bounds the number of distinct keys the step can probe;
	// OutBound = KeyBound · N bounds the partial tuples it can fetch.
	KeyBound uint64
	OutBound uint64

	// EstKeys / EstFetched / EstRows are the cost-based optimizer's
	// estimates of the distinct keys the step will probe, the partial
	// tuples it will fetch and the intermediate rows it will emit, from
	// the statistics catalog (internal/stats). Zero when no estimation
	// ran (optimizer off). Estimates never affect results — only step
	// order — and are reported next to the actual counters by
	// EXPLAIN ANALYZE.
	EstKeys, EstFetched, EstRows float64
}

// String renders the step in the paper's fetch notation.
func (s FetchStep) String() string {
	return fmt.Sprintf("fetch(X ∈ T, {%s}, %s) via %s  [keys ≤ %s, tuples ≤ %s]",
		strings.Join(s.Constraint.Y, ","), s.Constraint.Rel, s.Constraint,
		boundStr(s.KeyBound), boundStr(s.OutBound))
}

func boundStr(b uint64) string {
	if b == Unbounded {
		return "∞"
	}
	return fmt.Sprintf("%d", b)
}

// CheckResult is the BE Checker's verdict on a query.
type CheckResult struct {
	// Covered reports whether the query is covered by the access schema
	// (and hence boundedly evaluable with an exact bounded plan).
	Covered bool
	// Reason explains the first blocking atom when not covered.
	Reason string
	// EmptyGuaranteed is set when constant conjuncts contradict each
	// other; the answer is empty without touching any data.
	EmptyGuaranteed bool

	// Steps is the fetch derivation in execution order (covered atoms
	// only; for a covered query, one step per atom).
	Steps []FetchStep
	// TotalBound is M: the deduced bound on tuples fetched (saturating).
	TotalBound uint64
	// OutputBound bounds the number of joined intermediate rows.
	OutputBound uint64
	// ConstraintsUsed is the number of distinct access constraints the
	// plan employs (reported by the paper's performance analyser).
	ConstraintsUsed int

	// cover is the derivation's final state: plan generation reads key
	// sources and filter placement from it.
	cover *CoverState
}

// classSet is a union-find over the (atom, attribute) nodes used by the
// query, annotated with constant candidate sets and coverage state.
type classSet struct {
	parent map[analyze.ColID]analyze.ColID
	info   map[analyze.ColID]*classInfo // keyed by root
}

type classInfo struct {
	// consts is the intersection of constant candidate sets attached to
	// the class (nil = none attached; empty non-nil = contradiction).
	consts    []value.Value
	hasConsts bool
	covered   bool
	bound     uint64
	// first is the class member materialised first, once materialised.
	first        analyze.ColID
	materialised bool
}

func newClassSet() *classSet {
	return &classSet{
		parent: make(map[analyze.ColID]analyze.ColID),
		info:   make(map[analyze.ColID]*classInfo),
	}
}

func (cs *classSet) find(id analyze.ColID) analyze.ColID {
	p, ok := cs.parent[id]
	if !ok {
		cs.parent[id] = id
		cs.info[id] = &classInfo{}
		return id
	}
	if p == id {
		return id
	}
	root := cs.find(p)
	cs.parent[id] = root
	return root
}

func (cs *classSet) union(a, b analyze.ColID) {
	ra, rb := cs.find(a), cs.find(b)
	if ra == rb {
		return
	}
	ia, ib := cs.info[ra], cs.info[rb]
	cs.parent[rb] = ra
	// Merge constant candidate sets by intersection.
	switch {
	case !ia.hasConsts && ib.hasConsts:
		ia.consts, ia.hasConsts = ib.consts, true
	case ia.hasConsts && ib.hasConsts:
		ia.consts = intersectValues(ia.consts, ib.consts)
	}
	if ib.covered {
		if !ia.covered || ib.bound < ia.bound {
			ia.covered, ia.bound = true, ib.bound
		}
	}
	delete(cs.info, rb)
}

func (cs *classSet) get(id analyze.ColID) *classInfo { return cs.info[cs.find(id)] }

// lookup is get without path compression: it never writes, so readers of
// a finished derivation may share it. id must already be in a class.
func (cs *classSet) lookup(id analyze.ColID) *classInfo {
	for {
		p, ok := cs.parent[id]
		if !ok || p == id {
			return cs.info[id]
		}
		id = p
	}
}

func intersectValues(a, b []value.Value) []value.Value {
	var out []value.Value
	for _, x := range dedupeValues(a) {
		for _, y := range b {
			if value.Equal(x, y) {
				out = append(out, x)
				break
			}
		}
	}
	if out == nil {
		out = []value.Value{} // non-nil empty marks contradiction
	}
	return out
}

// dedupeValues removes duplicate candidates (e.g. IN (4, 4)) so that key
// enumeration probes each constant once.
func dedupeValues(vals []value.Value) []value.Value {
	seen := make(map[string]bool, len(vals))
	out := vals[:0:0]
	for _, v := range vals {
		k := value.Key([]value.Value{v})
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, v)
	}
	return out
}

// classOrdinal assigns stable small integers to class roots for display
// and for FetchStep.XClasses.
type classOrdinal struct {
	cs   *classSet
	ids  map[analyze.ColID]int
	next int
}

func (co *classOrdinal) of(id analyze.ColID) int {
	root := co.cs.find(id)
	if n, ok := co.ids[root]; ok {
		return n
	}
	co.ids[root] = co.next
	co.next++
	return co.ids[root]
}

// Provider supplies constraints to the checker. *access.Schema is the
// canonical implementation; the discovery module scores hypothetical
// constraint sets by providing constraints without built indices (a nil
// index with ok = true).
type Provider interface {
	// ForRelation returns the constraints on a relation.
	ForRelation(rel string) []*access.Constraint
	// Index returns the index for a constraint; a nil index with ok true
	// means "hypothetical: assume a valid index exists".
	Index(c *access.Constraint) (*access.Index, bool)
}

// Check runs the BE Checker on a resolved query under the access schema.
// It never touches the data: the verdict and the bound M are deduced from
// the query and the constraints alone (paper feature (1), "quantified
// data access"). It is the greedy policy over the coverage derivation
// (CoverState), mirroring the plan-generation algorithm of [SIGMOD'16]
// extended to SQL: repeatedly apply the fetchable (atom, constraint) pair
// with the smallest worst-case output bound, the first strict minimum in
// Fetchable's order, until every atom is fetched or none is fetchable.
func Check(q *analyze.Query, as Provider) *CheckResult {
	st, contradiction := NewCoverState(q)
	if contradiction {
		return &CheckResult{
			Covered:         true,
			EmptyGuaranteed: true,
			Reason:          "contradictory constant predicates; empty answer guaranteed",
			cover:           st,
		}
	}
	var steps []FetchStep
	for !st.Done() {
		cands := st.Fetchable(as)
		if len(cands) == 0 {
			break
		}
		best := 0
		for i := range cands {
			if cands[i].OutBound < cands[best].OutBound {
				best = i
			}
		}
		st.Apply(&cands[best])
		steps = append(steps, cands[best])
	}
	return st.result(steps, as)
}

// seedClasses builds the query's equivalence classes from equality and
// IN conjuncts, ensures every used attribute has a class, and marks
// const-covered classes. contradiction reports an unsatisfiable constant
// candidate set (empty answer guaranteed).
func seedClasses(q *analyze.Query, used [][]int) (cs *classSet, contradiction bool) {
	cs = newClassSet()
	for _, c := range q.Conjuncts {
		switch c.Kind {
		case analyze.EqAttrAttr:
			cs.union(c.A, c.B)
		case analyze.EqAttrConst:
			info := cs.get(c.A)
			if info.hasConsts {
				info.consts = intersectValues(info.consts, []value.Value{c.Val})
			} else {
				info.consts, info.hasConsts = []value.Value{c.Val}, true
			}
		case analyze.InConsts:
			info := cs.get(c.A)
			if info.hasConsts {
				info.consts = intersectValues(info.consts, c.Vals)
			} else {
				info.consts, info.hasConsts = dedupeValues(c.Vals), true
			}
		}
	}
	for ai, attrs := range used {
		for _, attr := range attrs {
			cs.find(analyze.ColID{Atom: ai, Attr: attr})
		}
	}
	for _, info := range cs.info {
		if info.hasConsts {
			if len(info.consts) == 0 {
				return cs, true
			}
			info.covered = true
			info.bound = uint64(len(info.consts))
		}
	}
	return cs, false
}

// WithinBudget reports whether the deduced bound fits a user budget on
// the number of tuples accessed — the demo's "enter a budget and find out
// whether Q can be answered within it, without executing Q" (§4(1)(a)).
func (r *CheckResult) WithinBudget(budget uint64) bool {
	if r.EmptyGuaranteed {
		return true
	}
	return r.Covered && r.TotalBound <= budget
}

// Describe renders a human-readable summary of the check.
func (r *CheckResult) Describe() string {
	var b strings.Builder
	switch {
	case r.EmptyGuaranteed:
		b.WriteString("covered: answer is empty (contradictory constants); no data access needed\n")
	case r.Covered:
		fmt.Fprintf(&b, "covered: boundedly evaluable; fetches ≤ %s tuples via %d constraints\n",
			boundStr(r.TotalBound), r.ConstraintsUsed)
	default:
		fmt.Fprintf(&b, "not covered: %s\n", r.Reason)
	}
	for i, s := range r.Steps {
		fmt.Fprintf(&b, "  step %d: %s\n", i+1, s)
	}
	return b.String()
}

func addSat(a, b uint64) uint64 {
	if a > math.MaxUint64-b {
		return Unbounded
	}
	return a + b
}

func mulSat(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxUint64/b {
		return Unbounded
	}
	return a * b
}
