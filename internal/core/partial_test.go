package core

import (
	"context"
	"strings"
	"testing"

	"github.com/bounded-eval/beas/internal/analyze"
	"github.com/bounded-eval/beas/internal/engine"
	"github.com/bounded-eval/beas/internal/iter"
	"github.com/bounded-eval/beas/internal/value"
)

// drainPartial drains the partially bounded plan; the returned statistics
// are final.
func drainPartial(t *testing.T, pp *PartialPlan, q *analyze.Query, eng *engine.Engine) ([]value.Row, *Stats, *engine.Stats) {
	t.Helper()
	it, st, engStats, err := StreamPartialContext(context.Background(), pp, q, eng)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := iter.Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	return rows, st, engStats
}

// seedPartial builds a world where business is fetchable but call is not
// (no constraint covers call.duration-style access by recnum).
func seedPartial(t *testing.T) *env {
	e := newEnv(t)
	e.insert(t, "business", vi(100), vs("bank"), vs("r0"))
	e.insert(t, "business", vi(101), vs("bank"), vs("r0"))
	e.insert(t, "business", vi(102), vs("shop"), vs("r0"))
	// Calls TO the businesses (recnum = business number).
	e.insert(t, "call", vi(500), vi(100), vi(1), vs("east"))
	e.insert(t, "call", vi(501), vi(100), vi(2), vs("west"))
	e.insert(t, "call", vi(502), vi(101), vi(1), vs("east"))
	e.insert(t, "call", vi(503), vi(102), vi(1), vs("east"))
	e.constraint(t, "business({type, region} -> pnum, 2000)")
	return e
}

const partialSQL = `
SELECT business.pnum, COUNT(*) AS n FROM business, call
WHERE business.type = 'bank' AND business.region = 'r0'
  AND call.recnum = business.pnum
GROUP BY business.pnum ORDER BY business.pnum`

func TestPartialPlanShape(t *testing.T) {
	e := seedPartial(t)
	q := e.analyze(t, partialSQL)
	chk := Check(q, e.as)
	if chk.Covered {
		t.Fatal("query must not be covered (call has no applicable constraint)")
	}
	pp, err := NewPartialPlan(q, chk)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Sub == nil || len(pp.Fetched) != 1 || len(pp.Remaining) != 1 {
		t.Fatalf("partial shape: fetched=%v remaining=%v", pp.Fetched, pp.Remaining)
	}
	if got := pp.BoundedSubqueryBound(); got != 2000 {
		t.Errorf("bounded sub-query bound = %d, want 2000", got)
	}
	desc := pp.Describe(q)
	if !strings.Contains(desc, "bounded sub-query over {business}") ||
		!strings.Contains(desc, "conventional scans over {call}") {
		t.Errorf("Describe = %q", desc)
	}
}

func TestPartialPlanExecution(t *testing.T) {
	e := seedPartial(t)
	q := e.analyze(t, partialSQL)
	chk := Check(q, e.as)
	pp, err := NewPartialPlan(q, chk)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(e.store, engine.ProfilePostgres)
	rows, subStats, engStats := drainPartial(t, pp, q, eng)
	// banks 100 (2 calls) and 101 (1 call); shop 102 excluded.
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].I != 100 || rows[0][1].I != 2 || rows[1][0].I != 101 || rows[1][1].I != 1 {
		t.Errorf("rows = %v", rows)
	}
	if subStats.Fetched != 2 {
		t.Errorf("bounded part fetched %d, want 2 bank numbers", subStats.Fetched)
	}
	// Only call is scanned conventionally.
	if engStats.Scanned != 4 {
		t.Errorf("scanned = %d, want 4 call rows", engStats.Scanned)
	}
	// Agreement with the pure conventional plan.
	convRows, _, err := eng.RunContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(convRows) != len(rows) {
		t.Errorf("partial and conventional disagree: %v vs %v", rows, convRows)
	}
}

func TestPartialPlanNoFetchableAtom(t *testing.T) {
	e := newEnv(t)
	e.insert(t, "call", vi(1), vi(2), vi(3), vs("east"))
	// No constraints at all: nothing fetchable.
	q := e.analyze(t, "SELECT region FROM call WHERE recnum = 2")
	chk := Check(q, e.as)
	pp, err := NewPartialPlan(q, chk)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Sub != nil || len(pp.Fetched) != 0 {
		t.Fatalf("expected fully conventional plan: %+v", pp)
	}
	if !strings.Contains(pp.Describe(q), "no atom is fetchable") {
		t.Errorf("Describe = %q", pp.Describe(q))
	}
	eng := engine.New(e.store, engine.ProfilePostgres)
	rows, _, _ := drainPartial(t, pp, q, eng)
	if len(rows) != 1 || rows[0][0].S != "east" {
		t.Errorf("rows = %v", rows)
	}
}

func TestNewPartialPlanRejectsCovered(t *testing.T) {
	e := seedExample2(t)
	q := e.analyze(t, ex2)
	chk := Check(q, e.as)
	if _, err := NewPartialPlan(q, chk); err == nil {
		t.Error("NewPartialPlan must reject covered queries")
	}
}

// TestPartialPreservesWeights: the bounded sub-query must hand bag
// multiplicities to the engine (duplicate base rows in the covered atom).
func TestPartialPreservesWeights(t *testing.T) {
	e := seedPartial(t)
	// A duplicate bank row: same pnum/type/region twice.
	e.insert(t, "business", vi(100), vs("bank"), vs("r0"))
	q := e.analyze(t, partialSQL)
	chk := Check(q, e.as)
	pp, err := NewPartialPlan(q, chk)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(e.store, engine.ProfilePostgres)
	rows, _, _ := drainPartial(t, pp, q, eng)
	convRows, _, err := eng.RunContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if value.Key(rows[0]) != value.Key(convRows[0]) || rows[0][1].I != 4 {
		t.Errorf("duplicate business row lost: partial=%v conventional=%v", rows, convRows)
	}
}
