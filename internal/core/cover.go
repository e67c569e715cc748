package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"github.com/bounded-eval/beas/internal/analyze"
	"github.com/bounded-eval/beas/internal/value"
)

// CoverState is the coverage derivation: the one implementation of the
// rule that turns the query's equivalence classes and the access schema
// into fetch steps. It holds which atoms are fetched, which classes are
// covered and at what worst-case bound, the running bounds M and output
// bound, which conjuncts each step makes evaluable, and each class's
// first-materialised member (where a later key reads from).
//
// Check is a greedy policy over it (take Fetchable, apply the cheapest,
// repeat); the cost-based optimizer (internal/opt) clones it to
// enumerate alternative derivations; NewPlan reads key sources and
// filter placement from the state the derivation ended in. Every
// derivation reachable through Fetchable/Apply is a valid coverage
// derivation, so the plans it yields return exactly the same answers and
// differ only in cost.
type CoverState struct {
	q *analyze.Query
	// used[ai] is used(ai), the attributes of atom ai the query uses: what
	// a step on ai materialises. Shared by clones, never written.
	used    [][]int
	cs      *classSet
	ord     classOrdinal
	fetched []bool
	// steps counts the applied steps; total is the running M (saturating
	// sum of their OutBound) and out the running output bound (product of
	// max(OutBound, 1)).
	steps      int
	total, out uint64
	// scheduled[ci] is the 1-based number of the step that made conjunct
	// ci evaluable, 0 while it is not.
	scheduled []int
}

// NewCoverState seeds the coverage state from the query's equality and
// IN conjuncts. contradiction reports that constant predicates are
// unsatisfiable (the empty answer is guaranteed and no derivation is
// needed).
func NewCoverState(q *analyze.Query) (st *CoverState, contradiction bool) {
	used := make([][]int, len(q.Atoms))
	for ai := range used {
		used[ai] = q.UsedAttrs(ai)
	}
	cs, contradiction := seedClasses(q, used)
	st = &CoverState{
		q:         q,
		used:      used,
		cs:        cs,
		ord:       classOrdinal{cs: cs, ids: make(map[analyze.ColID]int)},
		fetched:   make([]bool, len(q.Atoms)),
		out:       1,
		scheduled: make([]int, len(q.Conjuncts)),
	}
	return st, contradiction
}

// Clone returns an independent copy: Apply on the clone never affects
// the original, which is what lets branch-and-bound backtrack.
func (st *CoverState) Clone() *CoverState {
	cs := &classSet{
		parent: make(map[analyze.ColID]analyze.ColID, len(st.cs.parent)),
		info:   make(map[analyze.ColID]*classInfo, len(st.cs.info)),
	}
	for k, v := range st.cs.parent {
		cs.parent[k] = v
	}
	for k, v := range st.cs.info {
		ci := *v // consts slices are never mutated in place, sharing is safe
		cs.info[k] = &ci
	}
	out := *st
	out.cs = cs
	out.ord = classOrdinal{cs: cs, ids: maps.Clone(st.ord.ids), next: st.ord.next}
	out.fetched = slices.Clone(st.fetched)
	out.scheduled = slices.Clone(st.scheduled)
	return &out
}

// Done reports whether every atom is fetched (the derivation covers the
// query).
func (st *CoverState) Done() bool { return st.steps == len(st.q.Atoms) }

// Fetchable returns every applicable (atom, constraint) fetch step under
// the current coverage, in deterministic order (atoms ascending,
// constraints in provider order), with worst-case key and output bounds
// computed against the current class bounds.
func (st *CoverState) Fetchable(as Provider) []FetchStep {
	var out []FetchStep
	for ai := range st.q.Atoms {
		if !st.fetched[ai] {
			out = st.stepsFor(out, ai, as)
		}
	}
	return out
}

// stepsFor appends to out every applicable constraint for atom ai as a
// fetch step, in provider order: used(ai) ⊆ X ∪ Y, every X class
// covered, and an index that maintenance has not invalidated.
func (st *CoverState) stepsFor(out []FetchStep, ai int, as Provider) []FetchStep {
	rel := st.q.Atoms[ai].Rel
	usedNames := st.usedNames(ai)
	for _, c := range as.ForRelation(rel.Name) {
		if !c.Covers(usedNames) {
			continue
		}
		xAttrs, err := rel.AttrIndices(c.X)
		if err != nil {
			continue
		}
		keyBound, ok := st.keyBound(ai, xAttrs)
		if !ok {
			continue
		}
		idx, ok := as.Index(c)
		if !ok || (idx != nil && idx.Invalid()) {
			continue
		}
		yAttrs, err := rel.AttrIndices(c.Y)
		if err != nil {
			continue
		}
		out = append(out, FetchStep{
			Atom:       ai,
			Constraint: c,
			Index:      idx,
			XAttrs:     xAttrs,
			YAttrs:     yAttrs,
			XClasses:   make([]int, len(xAttrs)),
			KeyBound:   keyBound,
			OutBound:   mulSat(keyBound, uint64(c.N)),
		})
	}
	return out
}

// keyBound bounds the distinct keys a step on atom ai with X attributes
// xAttrs can probe: the product of the bounds of its X classes. ok is
// false while an X class is not covered.
func (st *CoverState) keyBound(ai int, xAttrs []int) (bound uint64, ok bool) {
	bound = 1
	for _, root := range st.keyRoots(ai, xAttrs) {
		info := st.cs.info[root]
		if !info.covered {
			return 0, false
		}
		bound = mulSat(bound, info.bound)
	}
	return bound, true
}

// keyRoots returns the distinct classes of a step's X attributes in X
// order: two X attributes in one class form one key component.
func (st *CoverState) keyRoots(ai int, xAttrs []int) []analyze.ColID {
	var roots []analyze.ColID
	for _, xa := range xAttrs {
		if root := st.cs.find(analyze.ColID{Atom: ai, Attr: xa}); !slices.Contains(roots, root) {
			roots = append(roots, root)
		}
	}
	return roots
}

// usedNames returns the names of used(ai), the attributes a constraint
// on atom ai must span.
func (st *CoverState) usedNames(ai int) []string {
	rel := st.q.Atoms[ai].Rel
	names := make([]string, len(st.used[ai]))
	for i, a := range st.used[ai] {
		names[i] = rel.Attrs[a].Name
	}
	return names
}

// blockReason explains why atom ai is not fetchable.
func (st *CoverState) blockReason(ai int, as Provider) string {
	atom := st.q.Atoms[ai]
	usedNames := st.usedNames(ai)
	cons := as.ForRelation(atom.Rel.Name)
	if len(cons) == 0 {
		return fmt.Sprintf("atom %s: no access constraints on relation %s", atom.Name, atom.Rel.Name)
	}
	var reasons []string
	for _, c := range cons {
		if !c.Covers(usedNames) {
			var missing []string
			for _, n := range usedNames {
				if !c.HasX(n) && !c.HasY(n) {
					missing = append(missing, n)
				}
			}
			reasons = append(reasons, fmt.Sprintf("%v does not cover {%s}", c, strings.Join(missing, ",")))
			continue
		}
		xAttrs, _ := atom.Rel.AttrIndices(c.X)
		var uncovered []string
		for i, xa := range xAttrs {
			if !st.cs.get(analyze.ColID{Atom: ai, Attr: xa}).covered {
				uncovered = append(uncovered, c.X[i])
			}
		}
		reasons = append(reasons, fmt.Sprintf("%v: key attributes {%s} not covered", c, strings.Join(uncovered, ",")))
	}
	sort.Strings(reasons)
	return fmt.Sprintf("atom %s (relation %s, uses {%s}): %s",
		atom.Name, atom.Rel.Name, strings.Join(usedNames, ","), strings.Join(reasons, "; "))
}

// Apply runs step in the derivation: it marks the step's atom fetched,
// materialises the atom's used attributes (covering their classes at the
// step's output bound and recording each class's first-materialised
// member), schedules the conjuncts that become evaluable, advances the
// running bounds, and fills the step's XClasses ordinals.
func (st *CoverState) Apply(step *FetchStep) {
	for i, x := range step.XAttrs {
		step.XClasses[i] = st.ord.of(analyze.ColID{Atom: step.Atom, Attr: x})
	}
	st.steps++
	for ci := range st.q.Conjuncts {
		if st.evaluable(ci, step.Atom) {
			st.scheduled[ci] = st.steps
		}
	}
	st.fetched[step.Atom] = true
	st.total = addSat(st.total, step.OutBound)
	st.out = mulSat(st.out, max(step.OutBound, 1))
	for _, attr := range st.used[step.Atom] {
		id := analyze.ColID{Atom: step.Atom, Attr: attr}
		info := st.cs.get(id)
		if !info.covered || step.OutBound < info.bound {
			info.covered, info.bound = true, step.OutBound
		}
		if !info.materialised {
			info.materialised, info.first = true, id
		}
	}
}

// evaluable is the one filter-readiness rule: conjunct ci, not yet
// scheduled, becomes evaluable when atom ai is fetched if every atom it
// references is then fetched. A step materialises every attribute of its
// atom the query uses, so that is exactly when all of the conjunct's
// columns are materialised.
func (st *CoverState) evaluable(ci, ai int) bool {
	if st.scheduled[ci] != 0 {
		return false
	}
	for _, a := range st.q.Conjuncts[ci].Refs {
		if a != ai && !st.fetched[a] {
			return false
		}
	}
	return true
}

// Evaluable calls fn, in conjunct order, for every conjunct that fetching
// atom ai next would make evaluable — the filters Apply would schedule
// with that step — without changing the state.
func (st *CoverState) Evaluable(ai int, fn func(c analyze.Conjunct)) {
	for ci := range st.q.Conjuncts {
		if st.evaluable(ci, ai) {
			fn(st.q.Conjuncts[ci])
		}
	}
}

// TotalBoundWith returns M after applying step: the running bound plus
// the step's OutBound, saturating.
func (st *CoverState) TotalBoundWith(step FetchStep) uint64 {
	return addSat(st.total, step.OutBound)
}

// filtersOf returns the conjuncts scheduled by the derivation's step si
// (0-based), in conjunct order.
func (st *CoverState) filtersOf(si int) []analyze.Conjunct {
	var out []analyze.Conjunct
	for ci, at := range st.scheduled {
		if at == si+1 {
			out = append(out, st.q.Conjuncts[ci])
		}
	}
	return out
}

// keySource returns where a fetch key on node id reads from: the
// constant candidates of its class, or else the class's
// first-materialised member; ok is false when the class has neither. It
// does not change the state, so plans can be generated concurrently from
// one CheckResult.
func (st *CoverState) keySource(id analyze.ColID) (consts []value.Value, src analyze.ColID, ok bool) {
	info := st.cs.lookup(id)
	if info.hasConsts {
		return info.consts, src, true
	}
	return nil, info.first, info.materialised
}

// KeyClass describes one distinct key component of a fetch step for cost
// estimation: its class ordinal, the number of constant candidates the
// class carries (0 when the key is read from intermediate-row slots),
// and the class's worst-case bound.
type KeyClass struct {
	Class  int
	Consts int
	Bound  uint64
}

// StepKeyClasses returns the step's distinct X classes in X order, the
// key components keyBound multiplies.
func (st *CoverState) StepKeyClasses(step FetchStep) []KeyClass {
	var out []KeyClass
	for _, root := range st.keyRoots(step.Atom, step.XAttrs) {
		info := st.cs.info[root]
		kc := KeyClass{Class: st.ord.of(root), Bound: info.bound}
		if info.hasConsts {
			kc.Consts = len(info.consts)
		}
		out = append(out, kc)
	}
	return out
}

// UsedAttrs returns used(ai): the attributes a step on atom ai
// materialises. The slice is shared; callers must not modify it.
func (st *CoverState) UsedAttrs(ai int) []int { return st.used[ai] }

// ClassOf returns the stable class ordinal of an (atom, attribute) node.
func (st *CoverState) ClassOf(id analyze.ColID) int { return st.ord.of(id) }

// result wraps the derivation's steps into the checker's verdict: covered
// when every atom is fetched, otherwise the first blocking atom's reason.
// The receiver must be the state after applying exactly those steps.
func (st *CoverState) result(steps []FetchStep, as Provider) *CheckResult {
	res := &CheckResult{
		Covered:         st.Done(),
		Steps:           steps,
		TotalBound:      st.total,
		OutputBound:     st.out,
		ConstraintsUsed: constraintsUsed(steps),
		cover:           st,
	}
	for ai := range st.q.Atoms {
		if !st.fetched[ai] {
			res.Reason = st.blockReason(ai, as)
			break
		}
	}
	return res
}

// Finalize wraps an alternative derivation's steps into a CheckResult
// that plan generation accepts. The admission-control bounds
// (TotalBound, OutputBound) are copied from base unchanged — the
// optimizer reports the greedy derivation's a-priori worst case whether
// it reorders or not — while Steps and ConstraintsUsed describe the
// chosen derivation. The receiver must be the state after applying
// exactly those steps.
func (st *CoverState) Finalize(base *CheckResult, steps []FetchStep) *CheckResult {
	out := *base
	out.Steps = steps
	out.ConstraintsUsed = constraintsUsed(steps)
	out.cover = st
	return &out
}

// constraintsUsed counts the distinct access constraints of steps.
func constraintsUsed(steps []FetchStep) int {
	used := make(map[string]bool, len(steps))
	for _, s := range steps {
		used[s.Constraint.ID()] = true
	}
	return len(used)
}
