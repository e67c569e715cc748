package core

import (
	"context"
	"sort"
	"testing"

	"github.com/bounded-eval/beas/internal/access"
	"github.com/bounded-eval/beas/internal/analyze"
	"github.com/bounded-eval/beas/internal/iter"
	"github.com/bounded-eval/beas/internal/schema"
	"github.com/bounded-eval/beas/internal/sqlparser"
	"github.com/bounded-eval/beas/internal/storage"
	"github.com/bounded-eval/beas/internal/value"
)

// budgetResult is one budgeted run: the answer, the coverage and the
// per-step coverage fractions the Budget derived, and the tuples fetched.
type budgetResult struct {
	Rows         []value.Row
	Coverage     float64
	Exact        bool
	Fetched      int64
	StepCoverage []float64
}

// runBudget runs p through the pipeline under a budget of n tuples.
func runBudget(p *Plan, n int64) (*budgetResult, error) {
	b := NewBudget(n)
	it, st := StreamContext(context.Background(), p, b)
	rows, _, err := iter.Collect(it)
	if err != nil {
		return nil, err
	}
	res := &budgetResult{Rows: rows, Coverage: b.Coverage(), Fetched: st.Fetched}
	res.Exact = res.Coverage >= 1
	for _, s := range b.steps {
		res.StepCoverage = append(res.StepCoverage, s.coverage())
	}
	return res, nil
}

type budgetEnv struct {
	db    *schema.Database
	store *storage.Store
	as    *access.Schema
}

// newBudgetEnv builds call(pnum, recnum, region) with 10 pnums × 8
// recnums and a pnum -> {recnum, region} constraint.
func newBudgetEnv(t *testing.T) *budgetEnv {
	t.Helper()
	db, err := schema.NewDatabase(
		schema.MustRelation("call",
			schema.Attribute{Name: "pnum", Kind: value.Int},
			schema.Attribute{Name: "recnum", Kind: value.Int},
			schema.Attribute{Name: "region", Kind: value.String},
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	e := &budgetEnv{db: db, store: storage.NewStore(db)}
	tab := e.store.MustTable("call")
	for p := int64(0); p < 10; p++ {
		for r := int64(0); r < 8; r++ {
			_ = tab.Insert(value.Row{value.NewInt(p), value.NewInt(p*10 + r), value.NewString("r")})
		}
	}
	e.as = access.NewSchema(e.store)
	c, err := access.NewConstraint(db, "call", []string{"pnum"}, []string{"recnum", "region"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.as.Register(c, false); err != nil {
		t.Fatal(err)
	}
	return e
}

func (e *budgetEnv) plan(t *testing.T, sql string) *Plan {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	q, err := analyze.Analyze(stmt.Select, e.db)
	if err != nil {
		t.Fatal(err)
	}
	chk := Check(q, e.as)
	if !chk.Covered {
		t.Fatalf("not covered: %s", chk.Reason)
	}
	p, err := NewPlan(q, chk)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const budgetSQL = "SELECT recnum FROM call WHERE pnum IN (1, 2, 3)"

func rowKeys(rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = value.Key(r)
	}
	sort.Strings(out)
	return out
}

func TestExactWhenBudgetSuffices(t *testing.T) {
	e := newBudgetEnv(t)
	p := e.plan(t, budgetSQL)
	exact, _, err := RunContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runBudget(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Coverage != 1 {
		t.Errorf("exact run: %+v", res)
	}
	ek, ak := rowKeys(exact), rowKeys(res.Rows)
	if len(ek) != len(ak) {
		t.Fatalf("exact %d vs approx %d rows", len(ek), len(ak))
	}
	for i := range ek {
		if ek[i] != ak[i] {
			t.Fatal("exact answers differ")
		}
	}
}

func TestSubsetUnderBudget(t *testing.T) {
	e := newBudgetEnv(t)
	p := e.plan(t, budgetSQL)
	exact, _, err := RunContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	exactSet := map[string]bool{}
	for _, r := range exact {
		exactSet[value.Key(r)] = true
	}
	for _, budget := range []int64{1, 4, 8, 12, 16, 23} {
		res, err := runBudget(p, budget)
		if err != nil {
			t.Fatal(err)
		}
		if res.Fetched > budget {
			t.Errorf("budget %d exceeded: fetched %d", budget, res.Fetched)
		}
		if res.Exact {
			t.Errorf("budget %d (< 24 needed) cannot be exact", budget)
		}
		if res.Coverage >= 1 {
			t.Errorf("budget %d coverage = %v", budget, res.Coverage)
		}
		for _, r := range res.Rows {
			if !exactSet[value.Key(r)] {
				t.Errorf("budget %d returned a row outside the exact answer: %v", budget, r)
			}
		}
	}
}

func TestCoverageMonotoneInBudget(t *testing.T) {
	e := newBudgetEnv(t)
	p := e.plan(t, budgetSQL)
	prevCov := -1.0
	prevRows := -1
	for _, budget := range []int64{1, 4, 8, 16, 24, 100} {
		res, err := runBudget(p, budget)
		if err != nil {
			t.Fatal(err)
		}
		if res.Coverage < prevCov {
			t.Errorf("coverage decreased at budget %d: %v -> %v", budget, prevCov, res.Coverage)
		}
		if len(res.Rows) < prevRows {
			t.Errorf("row count decreased at budget %d", budget)
		}
		prevCov = res.Coverage
		prevRows = len(res.Rows)
	}
}

func TestDeterminism(t *testing.T) {
	e := newBudgetEnv(t)
	p := e.plan(t, budgetSQL)
	a, err := runBudget(p, 13)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runBudget(p, 13)
	if err != nil {
		t.Fatal(err)
	}
	ka, kb := rowKeys(a.Rows), rowKeys(b.Rows)
	if len(ka) != len(kb) || a.Coverage != b.Coverage {
		t.Fatal("approximation is not deterministic")
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatal("approximation rows differ across runs")
		}
	}
}

func TestMultiStepCoverageProduct(t *testing.T) {
	// Two-relation plan: coverage multiplies across steps.
	db, err := schema.NewDatabase(
		schema.MustRelation("a",
			schema.Attribute{Name: "k", Kind: value.Int},
			schema.Attribute{Name: "v", Kind: value.Int},
		),
		schema.MustRelation("b",
			schema.Attribute{Name: "v", Kind: value.Int},
			schema.Attribute{Name: "w", Kind: value.Int},
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewStore(db)
	for i := int64(0); i < 4; i++ {
		_ = store.MustTable("a").Insert(value.Row{value.NewInt(1), value.NewInt(i)})
		_ = store.MustTable("b").Insert(value.Row{value.NewInt(i), value.NewInt(i * 7)})
	}
	as := access.NewSchema(store)
	ca, _ := access.NewConstraint(db, "a", []string{"k"}, []string{"v"}, 4)
	cb, _ := access.NewConstraint(db, "b", []string{"v"}, []string{"w"}, 1)
	if _, err := as.Register(ca, false); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Register(cb, false); err != nil {
		t.Fatal(err)
	}
	stmt, _ := sqlparser.Parse("SELECT b.w FROM a, b WHERE a.k = 1 AND b.v = a.v")
	q, err := analyze.Analyze(stmt.Select, db)
	if err != nil {
		t.Fatal(err)
	}
	chk := Check(q, as)
	if !chk.Covered {
		t.Fatalf("not covered: %s", chk.Reason)
	}
	p, err := NewPlan(q, chk)
	if err != nil {
		t.Fatal(err)
	}
	// Budget 6: step 1 fetches all 4 a-tuples, step 2 only 2 of 4 keys.
	res, err := runBudget(p, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StepCoverage) != 2 {
		t.Fatalf("step coverage = %v", res.StepCoverage)
	}
	if res.StepCoverage[0] != 1 {
		t.Errorf("step 1 coverage = %v, want 1", res.StepCoverage[0])
	}
	if res.StepCoverage[1] >= 1 {
		t.Errorf("step 2 coverage = %v, want < 1", res.StepCoverage[1])
	}
	if res.Coverage != res.StepCoverage[0]*res.StepCoverage[1] {
		t.Errorf("coverage %v != product %v", res.Coverage, res.StepCoverage[0]*res.StepCoverage[1])
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}
