package core

import (
	"context"
	"strings"
	"testing"

	"github.com/bounded-eval/beas/internal/access"
	"github.com/bounded-eval/beas/internal/analyze"
	"github.com/bounded-eval/beas/internal/schema"
	"github.com/bounded-eval/beas/internal/sqlparser"
	"github.com/bounded-eval/beas/internal/storage"
	"github.com/bounded-eval/beas/internal/value"
)

// env is a small three-relation test world mirroring the paper's
// Example 1/2 schema.
type env struct {
	db    *schema.Database
	store *storage.Store
	as    *access.Schema
}

func newEnv(t *testing.T) *env {
	t.Helper()
	db, err := schema.NewDatabase(
		schema.MustRelation("call",
			schema.Attribute{Name: "pnum", Kind: value.Int},
			schema.Attribute{Name: "recnum", Kind: value.Int},
			schema.Attribute{Name: "date", Kind: value.Int},
			schema.Attribute{Name: "region", Kind: value.String},
		),
		schema.MustRelation("package",
			schema.Attribute{Name: "pnum", Kind: value.Int},
			schema.Attribute{Name: "pid", Kind: value.String},
			schema.Attribute{Name: "start", Kind: value.Int},
			schema.Attribute{Name: "end", Kind: value.Int},
			schema.Attribute{Name: "year", Kind: value.Int},
		),
		schema.MustRelation("business",
			schema.Attribute{Name: "pnum", Kind: value.Int},
			schema.Attribute{Name: "type", Kind: value.String},
			schema.Attribute{Name: "region", Kind: value.String},
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewStore(db)
	return &env{db: db, store: store, as: access.NewSchema(store)}
}

func (e *env) insert(t *testing.T, table string, vals ...value.Value) {
	t.Helper()
	if err := e.store.MustTable(table).Insert(value.Row(vals)); err != nil {
		t.Fatal(err)
	}
}

func (e *env) constraint(t *testing.T, spec string) {
	t.Helper()
	c, err := access.ParseConstraint(e.db, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.as.Register(c, false); err != nil {
		t.Fatal(err)
	}
}

func (e *env) analyze(t *testing.T, sql string) *analyze.Query {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	q, err := analyze.Analyze(stmt.Select, e.db)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func vi(i int64) value.Value  { return value.NewInt(i) }
func vs(s string) value.Value { return value.NewString(s) }

// seedExample2 loads the Example 2 mini-dataset and A0.
func seedExample2(t *testing.T) *env {
	e := newEnv(t)
	e.insert(t, "business", vi(100), vs("bank"), vs("r0"))
	e.insert(t, "business", vi(101), vs("bank"), vs("r0"))
	e.insert(t, "business", vi(102), vs("hospital"), vs("r0"))
	e.insert(t, "package", vi(100), vs("c0"), vi(1), vi(6), vi(2016))
	e.insert(t, "package", vi(101), vs("c9"), vi(1), vi(6), vi(2016))
	e.insert(t, "call", vi(100), vi(777), vi(3), vs("east"))
	e.insert(t, "call", vi(100), vi(778), vi(3), vs("west"))
	e.insert(t, "call", vi(100), vi(779), vi(4), vs("south"))
	e.constraint(t, "call({pnum, date} -> {recnum, region}, 500)")
	e.constraint(t, "package({pnum, year} -> {pid, start, end}, 12)")
	e.constraint(t, "business({type, region} -> pnum, 2000)")
	return e
}

const ex2 = `
SELECT call.region FROM call, package, business
WHERE business.type = 'bank' AND business.region = 'r0'
  AND business.pnum = call.pnum AND call.date = 3
  AND call.pnum = package.pnum AND package.year = 2016
  AND package.start <= 3 AND package.end >= 3 AND package.pid = 'c0'`

func TestCheckExample2(t *testing.T) {
	e := seedExample2(t)
	q := e.analyze(t, ex2)
	chk := Check(q, e.as)
	if !chk.Covered {
		t.Fatalf("not covered: %s", chk.Reason)
	}
	if len(chk.Steps) != 3 {
		t.Fatalf("steps = %d", len(chk.Steps))
	}
	// Derivation order: business (bound 2000), then package (24000),
	// then call (1e6); order is by ascending bound.
	if chk.Steps[0].Constraint.Rel != "business" ||
		chk.Steps[1].Constraint.Rel != "package" ||
		chk.Steps[2].Constraint.Rel != "call" {
		t.Errorf("derivation order: %v", chk.Steps)
	}
	if chk.Steps[0].OutBound != 2000 || chk.Steps[1].OutBound != 24000 || chk.Steps[2].OutBound != 1000000 {
		t.Errorf("bounds = %d, %d, %d", chk.Steps[0].OutBound, chk.Steps[1].OutBound, chk.Steps[2].OutBound)
	}
	if chk.TotalBound != 1026000 {
		t.Errorf("TotalBound = %d", chk.TotalBound)
	}
	if chk.ConstraintsUsed != 3 {
		t.Errorf("ConstraintsUsed = %d", chk.ConstraintsUsed)
	}
	if !chk.WithinBudget(1026000) || chk.WithinBudget(1025999) {
		t.Error("WithinBudget boundary wrong")
	}
}

func TestCheckNotCoveredMissingConstraint(t *testing.T) {
	e := seedExample2(t)
	// recnum as key: no constraint covers it.
	q := e.analyze(t, "SELECT region FROM call WHERE recnum = 7")
	chk := Check(q, e.as)
	if chk.Covered {
		t.Fatal("should not be covered")
	}
	if !strings.Contains(chk.Reason, "call") {
		t.Errorf("reason = %q", chk.Reason)
	}
}

func TestCheckNotCoveredUncoveredAttribute(t *testing.T) {
	e := newEnv(t)
	e.constraint(t, "call({pnum} -> {recnum}, 10)")
	// region is used but not in X ∪ Y.
	q := e.analyze(t, "SELECT region FROM call WHERE pnum = 5")
	chk := Check(q, e.as)
	if chk.Covered {
		t.Fatal("constraint does not cover region; query must not be covered")
	}
	if !strings.Contains(chk.Reason, "region") {
		t.Errorf("reason should name the missing attribute: %q", chk.Reason)
	}
}

func TestCheckCoverageThroughJoinChain(t *testing.T) {
	e := newEnv(t)
	e.constraint(t, "business({type, region} -> pnum, 100)")
	e.constraint(t, "call({pnum} -> {recnum, region}, 50)")
	// call.pnum is covered transitively through business fetch.
	q := e.analyze(t, `SELECT call.recnum FROM call, business
		WHERE business.type = 'bank' AND business.region = 'x' AND call.pnum = business.pnum`)
	chk := Check(q, e.as)
	if !chk.Covered {
		t.Fatalf("not covered: %s", chk.Reason)
	}
	// business out ≤ 100; call keys ≤ 100; call out ≤ 5000.
	if chk.TotalBound != 100+5000 {
		t.Errorf("TotalBound = %d", chk.TotalBound)
	}
}

func TestCheckInListSeedsAndMultipliesBound(t *testing.T) {
	e := newEnv(t)
	e.constraint(t, "call({pnum, date} -> {recnum}, 10)")
	q := e.analyze(t, "SELECT recnum FROM call WHERE pnum IN (1, 2, 3) AND date = 5")
	chk := Check(q, e.as)
	if !chk.Covered {
		t.Fatalf("not covered: %s", chk.Reason)
	}
	if chk.TotalBound != 30 {
		t.Errorf("TotalBound = %d, want 3 keys * 10", chk.TotalBound)
	}
}

func TestCheckContradictionShortCircuits(t *testing.T) {
	e := newEnv(t)
	q := e.analyze(t, "SELECT recnum FROM call WHERE pnum = 1 AND pnum = 2")
	chk := Check(q, e.as) // no constraints at all
	if !chk.EmptyGuaranteed || !chk.Covered {
		t.Fatalf("contradiction should guarantee empty: %+v", chk)
	}
	plan, err := NewPlan(q, chk)
	if err != nil {
		t.Fatal(err)
	}
	rows, st, err := RunContext(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 || st.Fetched != 0 {
		t.Errorf("empty-guaranteed plan touched data: rows=%d fetched=%d", len(rows), st.Fetched)
	}
}

func TestCheckSameClassKeyAttributesCountOnce(t *testing.T) {
	e := newEnv(t)
	e.constraint(t, "call({pnum, recnum} -> {region}, 10)")
	// pnum = recnum puts both key attributes in one class; with pnum = 7
	// the key bound is 1, not 1×1... it stays 1 because both attrs share
	// the class candidate set.
	q := e.analyze(t, "SELECT region FROM call WHERE pnum = recnum AND pnum = 7")
	chk := Check(q, e.as)
	if !chk.Covered {
		t.Fatalf("not covered: %s", chk.Reason)
	}
	if chk.TotalBound != 10 {
		t.Errorf("TotalBound = %d, want 10 (single key)", chk.TotalBound)
	}
}

func TestCheckPicksCheapestConstraint(t *testing.T) {
	e := newEnv(t)
	e.constraint(t, "call({pnum} -> {recnum, region, date}, 1000)")
	e.constraint(t, "call({pnum, date} -> {recnum, region}, 5)")
	q := e.analyze(t, "SELECT recnum FROM call WHERE pnum = 1 AND date = 2")
	chk := Check(q, e.as)
	if !chk.Covered {
		t.Fatalf("not covered: %s", chk.Reason)
	}
	if chk.Steps[0].Constraint.N != 5 {
		t.Errorf("should pick the tighter constraint, got %v", chk.Steps[0].Constraint)
	}
}

func TestCheckInvalidIndexSkipped(t *testing.T) {
	e := newEnv(t)
	e.constraint(t, "call({pnum} -> {recnum}, 1)")
	// Drive the index invalid under the strict policy.
	e.insert(t, "call", vi(1), vi(10), vi(1), vs("r"))
	e.insert(t, "call", vi(1), vi(11), vi(1), vs("r"))
	q := e.analyze(t, "SELECT recnum FROM call WHERE pnum = 1")
	chk := Check(q, e.as)
	if chk.Covered {
		t.Fatal("invalidated index must not be used for bounded plans")
	}
}

func TestRunExample2(t *testing.T) {
	e := seedExample2(t)
	q := e.analyze(t, ex2)
	chk := Check(q, e.as)
	plan, err := NewPlan(q, chk)
	if err != nil {
		t.Fatal(err)
	}
	rows, st, err := RunContext(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	regions := map[string]bool{}
	for _, r := range rows {
		regions[r[0].S] = true
	}
	if !regions["east"] || !regions["west"] {
		t.Errorf("regions = %v", regions)
	}
	if st.Fetched == 0 || st.Fetched > 10 {
		t.Errorf("Fetched = %d, want small positive", st.Fetched)
	}
	if len(st.Steps) != 3 {
		t.Errorf("step stats = %d", len(st.Steps))
	}
}

func TestRunDedupsKeys(t *testing.T) {
	e := newEnv(t)
	// Many businesses share pnum -> the call fetch must probe each
	// distinct pnum once.
	for i := 0; i < 5; i++ {
		e.insert(t, "business", vi(100), vs("bank"), vs("r"+string(rune('0'+i))))
	}
	e.insert(t, "call", vi(100), vi(1), vi(1), vs("east"))
	e.constraint(t, "business({type} -> {pnum, region}, 100)")
	e.constraint(t, "call({pnum} -> {recnum, region}, 100)")
	q := e.analyze(t, `SELECT call.recnum FROM call, business
		WHERE business.type = 'bank' AND call.pnum = business.pnum`)
	chk := Check(q, e.as)
	if !chk.Covered {
		t.Fatalf("not covered: %s", chk.Reason)
	}
	plan, err := NewPlan(q, chk)
	if err != nil {
		t.Fatal(err)
	}
	rows, st, err := RunContext(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Errorf("rows = %d (join multiplicity must be preserved)", len(rows))
	}
	callStep := st.Steps[1]
	if callStep.DistinctKey != 1 {
		t.Errorf("call step probed %d keys, want 1 (dedup)", callStep.DistinctKey)
	}
}

func TestRunAggregatesOnBoundedCore(t *testing.T) {
	e := seedExample2(t)
	q := e.analyze(t, `SELECT region, COUNT(*) AS n FROM call
		WHERE pnum = 100 AND date = 3 GROUP BY region ORDER BY region`)
	chk := Check(q, e.as)
	if !chk.Covered {
		t.Fatalf("not covered: %s", chk.Reason)
	}
	plan, err := NewPlan(q, chk)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := RunContext(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].S != "east" || rows[0][1].I != 1 {
		t.Errorf("agg rows = %v", rows)
	}
}

func TestPlanDescribeMentionsEverything(t *testing.T) {
	e := seedExample2(t)
	q := e.analyze(t, ex2)
	plan, err := NewPlan(q, Check(q, e.as))
	if err != nil {
		t.Fatal(err)
	}
	desc := plan.Describe()
	for _, want := range []string{"fetch business", "fetch package", "fetch call", "project"} {
		if !strings.Contains(desc, want) {
			t.Errorf("Describe missing %q:\n%s", want, desc)
		}
	}
}

func TestNewPlanRejectsUncovered(t *testing.T) {
	e := newEnv(t)
	q := e.analyze(t, "SELECT recnum FROM call WHERE pnum = 1")
	chk := Check(q, e.as)
	if _, err := NewPlan(q, chk); err == nil {
		t.Error("NewPlan must reject uncovered queries")
	}
}

func TestEmptyXConstraint(t *testing.T) {
	e := newEnv(t)
	// Whole-relation constraint: at most 3 distinct regions overall.
	e.insert(t, "call", vi(1), vi(2), vi(3), vs("east"))
	e.insert(t, "call", vi(4), vi(5), vi(6), vs("west"))
	e.insert(t, "call", vi(7), vi(8), vi(9), vs("east"))
	c, err := access.NewConstraint(e.db, "call", nil, []string{"region"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.as.Register(c, false); err != nil {
		t.Fatal(err)
	}
	q := e.analyze(t, "SELECT DISTINCT region FROM call")
	chk := Check(q, e.as)
	if !chk.Covered {
		t.Fatalf("not covered: %s", chk.Reason)
	}
	if chk.TotalBound != 3 {
		t.Errorf("TotalBound = %d", chk.TotalBound)
	}
	plan, err := NewPlan(q, chk)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := RunContext(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("distinct regions = %v", rows)
	}
}

// TestSingleConstraintDiscipline pins the documented conservatism of the
// checker (DESIGN.md §3): an atom whose used attributes are only covered
// by the union of two constraints is rejected, because stitching two
// independent fetches of the same atom could fabricate partial tuples
// with no single witness in D.
func TestSingleConstraintDiscipline(t *testing.T) {
	e := newEnv(t)
	e.constraint(t, "call({pnum} -> {recnum}, 10)")
	e.constraint(t, "call({pnum} -> {region}, 10)")
	// used(call) = {pnum, recnum, region}: neither constraint spans it.
	q := e.analyze(t, "SELECT recnum, region FROM call WHERE pnum = 1")
	chk := Check(q, e.as)
	if chk.Covered {
		t.Fatal("two-constraint stitching must be rejected (exactness)")
	}
	// A single spanning constraint fixes it.
	e.constraint(t, "call({pnum} -> {recnum, region}, 10)")
	if chk := Check(q, e.as); !chk.Covered {
		t.Fatalf("spanning constraint should cover: %s", chk.Reason)
	}
}

func TestSaturatingArithmetic(t *testing.T) {
	if addSat(Unbounded, 1) != Unbounded {
		t.Error("addSat overflow")
	}
	if mulSat(Unbounded, 2) != Unbounded {
		t.Error("mulSat overflow")
	}
	if mulSat(0, Unbounded) != 0 {
		t.Error("mulSat zero")
	}
	if addSat(2, 3) != 5 || mulSat(4, 5) != 20 {
		t.Error("basic arithmetic broken")
	}
}

func TestBoundSaturationInCheck(t *testing.T) {
	e := newEnv(t)
	// Chain of large constraints drives the bound to saturation rather
	// than overflowing.
	e.constraint(t, "business({type} -> {pnum}, 1000000000000000000)")
	e.constraint(t, "package({pnum} -> {pid, start, end, year}, 1000000000000000000)")
	e.constraint(t, "call({pnum} -> {recnum, region, date}, 1000000000000000000)")
	q := e.analyze(t, `SELECT call.region FROM call, package, business
		WHERE business.type = 'x' AND package.pnum = business.pnum AND call.pnum = package.pnum`)
	chk := Check(q, e.as)
	if !chk.Covered {
		t.Fatalf("not covered: %s", chk.Reason)
	}
	if chk.TotalBound != Unbounded {
		t.Errorf("TotalBound = %d, want saturation", chk.TotalBound)
	}
	if chk.WithinBudget(1 << 62) {
		t.Error("saturated bound cannot fit any budget")
	}
}

// TestNewPlanKeySourceDeterministic: when a key's class has two
// materialised members, plan generation reads the one materialised first,
// on every call — the prepared plan must not depend on map order.
func TestNewPlanKeySourceDeterministic(t *testing.T) {
	e := newEnv(t)
	e.constraint(t, "business({type} -> {pnum}, 50)")
	e.constraint(t, "package({pnum} -> {pid}, 12)")
	e.constraint(t, "call({pnum} -> {recnum}, 500)")
	q := e.analyze(t, "SELECT call.recnum FROM business, package, call "+
		"WHERE business.type = 'x' AND package.pnum = business.pnum AND call.pnum = package.pnum")
	chk := Check(q, e.as)
	if !chk.Covered || len(chk.Steps) != 3 {
		t.Fatalf("want a covered three-step derivation, got %s", chk.Describe())
	}
	slots := make(map[int]int)
	for i := 0; i < 100; i++ {
		p, err := NewPlan(q, chk)
		if err != nil {
			t.Fatal(err)
		}
		last := p.Steps[2]
		if q.Atoms[last.Atom].Name != "call" || last.Keys[0].Consts != nil {
			t.Fatalf("last step should fetch call by a slot key: %s", p.Describe())
		}
		slots[last.Keys[0].Slot]++
	}
	// Slot 0 is business.type, slot 1 business.pnum (materialised first),
	// slot 2 package.pnum.
	if len(slots) != 1 || slots[1] != 100 {
		t.Fatalf("call's key read slots %v over 100 plans, want slot 1 every time", slots)
	}
}
