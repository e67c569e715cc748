package beas

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestRetightenTightensBounds(t *testing.T) {
	db := smallDB(t) // ψ: call({pnum, date} -> {recnum, region}, 100)
	sql := "SELECT recnum FROM call WHERE pnum = 1 AND date = 20240101"
	before, err := db.Check(sql)
	if err != nil {
		t.Fatal(err)
	}
	if before.Bound != 100 {
		t.Fatalf("initial bound = %d", before.Bound)
	}
	specs, err := db.Retighten()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || !strings.Contains(specs[0], ", 2)") {
		t.Fatalf("Retighten specs = %v, want N tightened to 2", specs)
	}
	after, err := db.Check(sql)
	if err != nil {
		t.Fatal(err)
	}
	if after.Bound != 2 {
		t.Errorf("bound after retighten = %d, want 2", after.Bound)
	}
}

func TestRetightenRecoversInvalidIndex(t *testing.T) {
	db := smallDB(t)
	// A tight constraint that inserts will violate.
	if err := db.RegisterConstraint("call({pnum} -> {recnum}, 2)"); err != nil {
		t.Fatal(err)
	}
	db.MustInsert("call", 1, 500, 20240103, "east")
	db.MustInsert("call", 1, 501, 20240104, "east")
	if ok, _ := db.Conforms(); ok {
		t.Fatal("expected a violation")
	}
	// The invalidated index must not serve bounded plans.
	sql := "SELECT recnum FROM call WHERE pnum = 1"
	if info, _ := db.Check(sql); info.Covered {
		t.Fatal("invalid index used for coverage")
	}
	// Periodic adjustment widens N to reality and revalidates.
	if _, err := db.Retighten(); err != nil {
		t.Fatal(err)
	}
	if ok, viols := db.Conforms(); !ok {
		t.Fatalf("still violating after Retighten: %v", viols)
	}
	info, err := db.Check(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Covered {
		t.Errorf("query should be covered again after Retighten: %s", info.Reason)
	}
	res, err := db.QueryBounded(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Errorf("rows = %d, want 4", len(res.Rows))
	}
}

func TestAccessSchemaFileRoundTrip(t *testing.T) {
	db := smallDB(t)
	path := filepath.Join(t.TempDir(), "schema.txt")
	if err := db.SaveAccessSchema(path); err != nil {
		t.Fatal(err)
	}
	db2 := NewDB()
	db2.MustCreateTable("call", "pnum INT", "recnum INT", "date INT", "region STRING")
	db2.MustInsert("call", 1, 100, 20240101, "east")
	if err := db2.LoadAccessSchema(path); err != nil {
		t.Fatal(err)
	}
	if len(db2.Constraints()) != 1 {
		t.Fatalf("constraints after load = %v", db2.Constraints())
	}
	info, err := db2.Check("SELECT recnum FROM call WHERE pnum = 1 AND date = 20240101")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Covered {
		t.Errorf("loaded schema should cover the lookup: %s", info.Reason)
	}
	if err := db2.LoadAccessSchema(filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Error("loading a missing file should fail")
	}
}

func TestPlanCacheInvalidation(t *testing.T) {
	db := smallDB(t)
	sql := "SELECT recnum FROM call WHERE pnum = 1 AND date = 20240101"
	if _, err := db.Query(sql); err != nil {
		t.Fatal(err)
	}
	// Cached parse must be reused (pointer identity).
	p1, err := db.parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := db.parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("plan cache miss on identical SQL")
	}
	// Dropping a constraint invalidates the cache.
	if err := db.DropConstraint(db.Constraints()[0]); err != nil {
		t.Fatal(err)
	}
	p3, err := db.parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("plan cache not invalidated by catalogue change")
	}
}

// TestConcurrentQueriesAndInserts exercises the engine under parallel
// readers and writers; correctness of the interleaving is loose (row
// counts move), but there must be no errors and every bounded answer must
// be internally consistent.
func TestConcurrentQueriesAndInserts(t *testing.T) {
	db := smallDB(t)
	// The writers put 202 rows under one key. Under smallDB's N = 100 the
	// strict index goes invalid mid-run and readers fall back to a scan
	// that fails with "mutated during scan" — about six runs in ten.
	if err := db.DropConstraint(db.Constraints()[0]); err != nil {
		t.Fatal(err)
	}
	db.MustRegisterConstraint("call({pnum, date} -> {recnum, region}, 1000)")
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := db.Insert("call", 1, 1000+w*100+i, 20240101, "north"); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res, err := db.Query("SELECT recnum FROM call WHERE pnum = 1 AND date = 20240101")
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) < 2 {
					errs <- fmt.Errorf("lost rows: %d", len(res.Rows))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// After the dust settles, bounded and conventional agree again.
	res, err := db.Query("SELECT recnum FROM call WHERE pnum = 1 AND date = 20240101")
	if err != nil {
		t.Fatal(err)
	}
	conv, err := db.QueryBaseline("SELECT recnum FROM call WHERE pnum = 1 AND date = 20240101", BaselinePostgres)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(conv.Rows) || len(res.Rows) != 202 {
		t.Errorf("rows: bounded %d, conventional %d, want 202", len(res.Rows), len(conv.Rows))
	}
}
