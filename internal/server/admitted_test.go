package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	beas "github.com/bounded-eval/beas"
)

// The plan that is admitted is the plan that runs. These tests land a
// catalog change in the one place it used to slip through — after the
// admission check, before execution — and require the response to be
// either the admitted plan's answer or the outcome of a clean
// re-admission; never a 200 whose rows come from a plan admission did
// not see.

const admittedSQL = "SELECT item FROM orders WHERE cust = 3"

// reconstrain replaces the orders constraint by one declaring bound n.
func reconstrain(t *testing.T, db *beas.DB, n int) {
	t.Helper()
	if err := db.DropConstraint(db.Constraints()[0]); err != nil {
		t.Error(err)
	}
	if err := db.RegisterConstraint(fmt.Sprintf("orders({cust} -> {item}, %d)", n)); err != nil {
		t.Error(err)
	}
}

func TestAdmittedPlanIsExecutedPlan(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		change func(t *testing.T, db *beas.DB, call int) // what lands in the window
		status int
		check  func(t *testing.T, res *ndjsonResult, er *errorResponse, st StatsSnapshot)
	}{
		{
			name: "bound grows past the budget",
			cfg:  Config{BoundBudget: 10},
			change: func(t *testing.T, db *beas.DB, call int) {
				if call == 0 {
					reconstrain(t, db, 50)
				}
			},
			status: http.StatusUnprocessableEntity,
			check: func(t *testing.T, _ *ndjsonResult, er *errorResponse, st StatsSnapshot) {
				if er.Bound != 50 || er.Budget != 10 {
					t.Errorf("rejection reports bound/budget %d/%d, want 50/10", er.Bound, er.Budget)
				}
				if st.RejectedBudget != 1 || st.Admitted != 0 || st.TuplesFetched != 0 {
					t.Errorf("rejectedBudget=%d admitted=%d fetched=%d, want 1/0/0", st.RejectedBudget, st.Admitted, st.TuplesFetched)
				}
			},
		},
		{
			name: "coverage is lost",
			cfg:  Config{},
			change: func(t *testing.T, db *beas.DB, call int) {
				if call == 0 {
					if err := db.DropConstraint(db.Constraints()[0]); err != nil {
						t.Error(err)
					}
				}
			},
			status: http.StatusUnprocessableEntity,
			check: func(t *testing.T, _ *ndjsonResult, er *errorResponse, st StatsSnapshot) {
				if er.Reason == "" {
					t.Error("uncovered rejection carries no reason")
				}
				if st.RejectedUncovered != 1 || st.Admitted != 0 || st.TuplesScanned != 0 {
					t.Errorf("rejectedUncovered=%d admitted=%d scanned=%d, want 1/0/0", st.RejectedUncovered, st.Admitted, st.TuplesScanned)
				}
			},
		},
		{
			name: "bound tightens, still admissible",
			cfg:  Config{BoundBudget: 10},
			change: func(t *testing.T, db *beas.DB, call int) {
				if call == 0 {
					reconstrain(t, db, 7)
				}
			},
			status: http.StatusOK,
			check: func(t *testing.T, res *ndjsonResult, _ *errorResponse, st StatsSnapshot) {
				if res.header.Bound != 7 || res.stats.Bound != 7 {
					t.Errorf("header bound %d, executed bound %d; want the re-admitted 7 in both", res.header.Bound, res.stats.Bound)
				}
				if len(res.rows) != 5 || st.Admitted != 1 {
					t.Errorf("rows=%d admitted=%d, want 5/1", len(res.rows), st.Admitted)
				}
			},
		},
		{
			name: "catalog keeps changing",
			cfg:  Config{BoundBudget: 100},
			change: func(t *testing.T, db *beas.DB, call int) {
				reconstrain(t, db, 20+call)
			},
			status: http.StatusServiceUnavailable,
			check: func(t *testing.T, _ *ndjsonResult, _ *errorResponse, st StatsSnapshot) {
				if st.Admitted != 0 || st.TuplesFetched != 0 {
					t.Errorf("admitted=%d fetched=%d, want nothing run", st.Admitted, st.TuplesFetched)
				}
			},
		},
	}
	for _, tc := range cases {
		for _, path := range []string{"/query", "/explain"} {
			t.Run(tc.name+" "+path, func(t *testing.T) {
				db := newOrdersDB(t, 10, 5)
				reconstrain(t, db, 10)
				s := New(db, tc.cfg)
				calls := 0
				s.afterAdmit = func() { tc.change(t, db, calls); calls++ }
				ts := httptest.NewServer(s.Handler())
				defer ts.Close()
				if path == "/explain" {
					resp, status := postExplain(t, ts.URL, admittedSQL, true)
					if status != tc.status {
						t.Fatalf("status %d, want %d", status, tc.status)
					}
					if status == http.StatusOK && (resp.Bound != 7 || resp.Rows != 5) {
						t.Errorf("analyze reports bound %d, %d rows; want the re-admitted 7, 5", resp.Bound, resp.Rows)
					}
					return
				}
				res, er, status := mustRunQuery(t, ts.URL, admittedSQL)
				if status != tc.status {
					t.Fatalf("status %d, want %d (response %+v %+v)", status, tc.status, res, er)
				}
				tc.check(t, res, er, s.Stats())
			})
		}
	}
}
