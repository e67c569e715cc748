package qcache

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/bounded-eval/beas/internal/access"
	"github.com/bounded-eval/beas/internal/core"
	"github.com/bounded-eval/beas/internal/schema"
	"github.com/bounded-eval/beas/internal/storage"
	"github.com/bounded-eval/beas/internal/value"
)

func newTestTable(t *testing.T) *storage.Table {
	t.Helper()
	rel, err := schema.NewRelation("r",
		schema.Attribute{Name: "a", Kind: value.Int},
		schema.Attribute{Name: "b", Kind: value.Int})
	if err != nil {
		t.Fatal(err)
	}
	return storage.NewTable(rel)
}

func intKey(i int64) string {
	return string(value.AppendKey(nil, value.NewInt(i)))
}

// mkReq builds a store request probing one key of attribute a. Branches
// is 2 so the entry is never patch-eligible: these tests exercise the
// registration, freshness and eviction machinery; patch exactness is
// covered end to end by the root differential suite.
func mkReq(tab *storage.Table, con *access.Constraint, key string, probe int64, rows ...value.Row) *StoreRequest {
	step := &core.PlanStep{FetchStep: core.FetchStep{Constraint: con, XAttrs: []int{0}}}
	return &StoreRequest{
		Key:      key,
		Result:   &CachedResult{Rows: rows, Steps: []core.StepStat{{}}},
		Branches: 2,
		Steps:    []StepReg{{Table: tab, Step: step, Keys: []string{intKey(probe)}, StatIdx: 0}},
		Tables:   []TableVersion{{Table: tab, Version: tab.Version()}},
	}
}

func TestTemplateTierVersioningAndEviction(t *testing.T) {
	// Each template below costs len(text)*8 + 512 = 528 bytes; a 1700
	// byte budget holds three.
	c := New(1700, 0, false)
	put := func(text string, version uint64) {
		c.PutTemplate(&Template{Text: text, Version: version})
	}
	put("q1", 1)
	put("q2", 1)
	put("q3", 1)
	if _, ok := c.GetTemplate("q1", 1); !ok {
		t.Fatal("q1 should be cached")
	}
	// q1 was just touched, so admitting q4 must evict q2 (the LRU tail).
	put("q4", 1)
	if _, ok := c.GetTemplate("q2", 1); ok {
		t.Fatal("q2 should have been evicted as least recently used")
	}
	if _, ok := c.GetTemplate("q1", 1); !ok {
		t.Fatal("recently used q1 must survive the eviction")
	}
	// A catalog-version mismatch is a miss and drops the stale entry.
	if _, ok := c.GetTemplate("q3", 2); ok {
		t.Fatal("stale-version template must not be returned")
	}
	if _, ok := c.GetTemplate("q3", 1); ok {
		t.Fatal("stale-version template must have been dropped")
	}
	st := c.Stats()
	if st.TemplateBytes > 1700 {
		t.Fatalf("template tier holds %d bytes over the 1700 budget", st.TemplateBytes)
	}
	if st.TemplateEntries != 2 {
		t.Fatalf("template entries = %d, want 2 (q1 and q4; q2 evicted, q3 dropped stale)", st.TemplateEntries)
	}
}

// TestChargeTemplate: derived state hung off a template after admission
// counts against the tier's budget like the template itself — charging
// evicts from the LRU tail, re-charging replaces the earlier charge, and
// a charge on an evicted template, or one that cannot fit, holds nothing.
func TestChargeTemplate(t *testing.T) {
	c := New(1700, 0, false) // three bare 528-byte templates fit
	ts := map[string]*Template{}
	for _, text := range []string{"q1", "q2", "q3"} {
		ts[text] = &Template{Text: text, Version: 1}
		c.PutTemplate(ts[text])
	}
	c.ChargeTemplate(ts["q3"], 600)
	if st := c.Stats(); st.TemplateEntries != 2 || st.TemplateBytes != 2*528+600 {
		t.Fatalf("after charging 600: %d entries, %d bytes; want 2 entries (q1 evicted), %d bytes", st.TemplateEntries, st.TemplateBytes, 2*528+600)
	}
	if _, ok := c.GetTemplate("q1", 1); ok {
		t.Fatal("q1 (the LRU tail) should have made room for the charge")
	}
	c.ChargeTemplate(ts["q3"], 100)
	c.ChargeTemplate(ts["q3"], 100)
	if st := c.Stats(); st.TemplateBytes != 2*528+100 {
		t.Fatalf("re-charging must replace, not add: %d bytes, want %d", st.TemplateBytes, 2*528+100)
	}
	c.ChargeTemplate(ts["q1"], 5000) // evicted above: nothing to account
	if st := c.Stats(); st.TemplateEntries != 2 || st.TemplateBytes != 2*528+100 {
		t.Fatalf("charging an evicted template changed the tier: %+v", st)
	}
	c.ChargeTemplate(ts["q2"], 5000) // cannot fit at all: dropped
	if st := c.Stats(); st.TemplateEntries != 1 || st.TemplateBytes != 528+100 {
		t.Fatalf("an over-budget charge must drop its template: %+v", st)
	}
}

func TestResultTierRequiresEnable(t *testing.T) {
	tab := newTestTable(t)
	con := &access.Constraint{Rel: "r", X: []string{"a"}, Y: []string{"b"}, N: 3}
	c := New(0, 0, false)
	if c.Store(mkReq(tab, con, "k", 1, value.Row{value.NewInt(1)})) {
		t.Fatal("Store must fail while the result tier is off")
	}
	c.SetResults(true)
	if !c.Store(mkReq(tab, con, "k", 1, value.Row{value.NewInt(1)})) {
		t.Fatal("Store must succeed once enabled")
	}
	if _, ok := c.GetResult("k"); !ok {
		t.Fatal("stored entry must serve")
	}
	// Disabling drops every answer and detaches the observers.
	c.SetResults(false)
	c.SetResults(true)
	if _, ok := c.GetResult("k"); ok {
		t.Fatal("toggling the tier off must drop stored answers")
	}
}

func TestKeyDisjointMutationKeepsEntry(t *testing.T) {
	tab := newTestTable(t)
	con := &access.Constraint{Rel: "r", X: []string{"a"}, Y: []string{"b"}, N: 100}
	c := New(0, 0, true)
	if !c.Store(mkReq(tab, con, "k", 1, value.Row{value.NewInt(10)})) {
		t.Fatal("store failed")
	}
	// A mutation under a key the entry never probed leaves it servable.
	if err := tab.Insert(value.Row{value.NewInt(2), value.NewInt(20)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetResult("k"); !ok {
		t.Fatal("key-disjoint insert must not invalidate the entry")
	}
	// A mutation under the probed key invalidates (the entry is not
	// patch-eligible here).
	if err := tab.Insert(value.Row{value.NewInt(1), value.NewInt(30)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetResult("k"); ok {
		t.Fatal("probed-key insert must invalidate the entry")
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}

	// Same discipline for deletes.
	if !c.Store(mkReq(tab, con, "k2", 1, value.Row{value.NewInt(10)})) {
		t.Fatal("second store failed")
	}
	if n := tab.Delete(func(r value.Row) bool { return r[0].I == 2 }); n != 1 {
		t.Fatalf("deleted %d rows, want 1", n)
	}
	if _, ok := c.GetResult("k2"); !ok {
		t.Fatal("key-disjoint delete must not invalidate the entry")
	}
	if n := tab.Delete(func(r value.Row) bool { return r[0].I == 1 && r[1].I == 30 }); n != 1 {
		t.Fatalf("deleted %d rows, want 1", n)
	}
	if _, ok := c.GetResult("k2"); ok {
		t.Fatal("probed-key delete must invalidate the entry")
	}
}

func TestStoreRaceRejected(t *testing.T) {
	tab := newTestTable(t)
	con := &access.Constraint{Rel: "r", X: []string{"a"}, Y: []string{"b"}, N: 3}
	c := New(0, 0, true)
	req := mkReq(tab, con, "k", 1, value.Row{value.NewInt(10)})
	// The table moves past the pre-execution version before Store runs:
	// the computed answer may already be stale and must be dropped.
	if err := tab.Insert(value.Row{value.NewInt(5), value.NewInt(50)}); err != nil {
		t.Fatal(err)
	}
	if c.Store(req) {
		t.Fatal("Store must reject an answer computed at an older table version")
	}
	st := c.Stats()
	if st.StoreRaces != 1 || st.Stores != 0 {
		t.Fatalf("storeRaces = %d stores = %d, want 1 and 0", st.StoreRaces, st.Stores)
	}
}

func TestBoundGuardInvalidatesOnWiden(t *testing.T) {
	tab := newTestTable(t)
	con := &access.Constraint{Rel: "r", X: []string{"a"}, Y: []string{"b"}, N: 3}
	c := New(0, 0, true)
	if !c.Store(mkReq(tab, con, "k", 1, value.Row{value.NewInt(10)})) {
		t.Fatal("store failed")
	}
	if _, ok := c.GetResult("k"); !ok {
		t.Fatal("entry must serve before the bound changes")
	}
	// Auto-widening maintenance changes N in place without a catalog
	// bump; a widened bound can change the deduced bound and even the
	// greedy step order, so the entry must stop serving.
	con.N = 4
	if _, ok := c.GetResult("k"); ok {
		t.Fatal("entry must not serve after its constraint's bound widened")
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
}

func TestOutOfOrderEventsBuffered(t *testing.T) {
	tab := newTestTable(t)
	con := &access.Constraint{Rel: "r", X: []string{"a"}, Y: []string{"b"}, N: 100}
	c := New(0, 0, true)
	if !c.Store(mkReq(tab, con, "k", 1, value.Row{value.NewInt(10)})) {
		t.Fatal("store failed")
	}
	c.mu.Lock()
	ts := c.tabs[tab]
	obs, base := ts.obs, ts.applied
	c.mu.Unlock()
	// Deliver version base+2 before base+1 (two racing writers): the
	// probed-key insert must be buffered, not dropped, and must apply —
	// invalidating the entry — once the gap closes.
	c.onMutation(obs, base+2, value.Row{value.NewInt(1), value.NewInt(99)}, nil)
	if st := c.Stats(); st.Invalidations != 0 {
		t.Fatal("gapped event must not apply before its predecessor")
	}
	c.onMutation(obs, base+1, value.Row{value.NewInt(7), value.NewInt(70)}, nil)
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d after the gap closed, want 1", st.Invalidations)
	}
}

// TestEvictionOrderGolden pins the exact eviction order of the result
// tier. Every structure the eviction path walks is a list, never a map,
// so the surviving key sequence is fully deterministic — this golden
// sequence is the regression harness for that property.
func TestEvictionOrderGolden(t *testing.T) {
	tab := newTestTable(t)
	con := &access.Constraint{Rel: "r", X: []string{"a"}, Y: []string{"b"}, N: 3}
	// Each single-row entry costs 763 bytes (key 2 + overhead 512 + row
	// 64 + step stats 128 + probe key 57); a 2300 byte budget holds 3.
	c := New(0, 2300, true)
	for i := 1; i <= 3; i++ {
		if !c.Store(mkReq(tab, con, fmt.Sprintf("k%d", i), int64(i), value.Row{value.NewInt(int64(i))})) {
			t.Fatalf("store k%d failed", i)
		}
	}
	if _, ok := c.GetResult("k1"); !ok { // touch: LRU order is now k1,k3,k2
		t.Fatal("k1 must serve")
	}
	for i := 4; i <= 5; i++ {
		if !c.Store(mkReq(tab, con, fmt.Sprintf("k%d", i), int64(i), value.Row{value.NewInt(int64(i))})) {
			t.Fatalf("store k%d failed", i)
		}
	}
	if got, want := c.resultKeysLRU(), []string{"k5", "k4", "k1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("LRU order after admissions = %v, want %v", got, want)
	}
	if st := c.Stats(); st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2 (k2 then k3)", st.Evictions)
	}
	// Shrinking the budget evicts from the tail, preserving recency.
	c.SetLimits(0, 800)
	if got, want := c.resultKeysLRU(), []string{"k5"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("LRU order after SetLimits = %v, want %v", got, want)
	}
	if st := c.Stats(); st.Evictions != 4 {
		t.Fatalf("evictions = %d, want 4", st.Evictions)
	}
}

func TestFlushAllDetachesObservers(t *testing.T) {
	tab := newTestTable(t)
	con := &access.Constraint{Rel: "r", X: []string{"a"}, Y: []string{"b"}, N: 3}
	c := New(0, 0, true)
	if !c.Store(mkReq(tab, con, "k", 1, value.Row{value.NewInt(10)})) {
		t.Fatal("store failed")
	}
	c.mu.Lock()
	oldObs := c.tabs[tab].obs
	c.mu.Unlock()
	c.FlushAll()
	if st := c.Stats(); st.Entries != 0 || st.TemplateEntries != 0 {
		t.Fatalf("FlushAll left entries=%d templates=%d", st.Entries, st.TemplateEntries)
	}
	// An event from the detached observer generation must be ignored
	// even if it is already in flight.
	c.onMutation(oldObs, tab.Version()+1, value.Row{value.NewInt(1), value.NewInt(2)}, nil)
	if st := c.Stats(); st.Invalidations != 1 {
		// FlushAll counts the dropped entry as one invalidation; the
		// stale event must not add more state.
		t.Fatalf("invalidations = %d, want 1 (the flush itself)", st.Invalidations)
	}
	c.mu.Lock()
	nTabs := len(c.tabs)
	c.mu.Unlock()
	if nTabs != 0 {
		t.Fatalf("FlushAll left %d attached tables", nTabs)
	}
}
