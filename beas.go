// Package beas is a bounded-evaluation SQL engine: a Go reproduction of
// BEAS (Cao et al., SIGMOD 2017). Given an access schema — a set of
// access constraints R(X → Y, N) pairing cardinality guarantees with hash
// indices — BEAS answers SQL queries by fetching a bounded fraction D_Q
// of the database, with the bound deduced before execution from the query
// and the constraints alone, no matter how large the database grows.
//
// Basic use:
//
//	db := beas.NewDB()
//	db.MustCreateTable("call", "pnum INT", "recnum INT", "date INT", "region STRING")
//	// ... load data ...
//	db.MustRegisterConstraint("call({pnum, date} -> {recnum, region}, 500)")
//	res, err := db.Query(`SELECT region FROM call WHERE pnum = 42 AND date = 20160304`)
//
// Query automatically uses a bounded plan when the query is covered by
// the registered access schema, and falls back to a partially bounded
// plan executed by the built-in conventional engine otherwise. Check
// decides coverage and deduces the access bound without executing
// anything; QueryApprox trades a fetch budget for a deterministic
// accuracy lower bound.
package beas

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bounded-eval/beas/internal/access"
	"github.com/bounded-eval/beas/internal/analyze"
	"github.com/bounded-eval/beas/internal/discovery"
	"github.com/bounded-eval/beas/internal/engine"
	"github.com/bounded-eval/beas/internal/obs"
	"github.com/bounded-eval/beas/internal/opt"
	"github.com/bounded-eval/beas/internal/qcache"
	"github.com/bounded-eval/beas/internal/schema"
	"github.com/bounded-eval/beas/internal/sqlparser"
	"github.com/bounded-eval/beas/internal/stats"
	"github.com/bounded-eval/beas/internal/storage"
	"github.com/bounded-eval/beas/internal/value"
	"github.com/bounded-eval/beas/internal/wal"
)

// DB is a BEAS database: schemas, data, the access schema with its
// indices, and the query services (BE Checker / Planner / Executor plus
// the conventional fallback engine).
type DB struct {
	mu     sync.RWMutex
	schema *schema.Database
	store  *storage.Store
	access *access.Schema
	// fallback executes non-covered (sub-)queries; it uses the strongest
	// conventional profile.
	fallback *engine.Engine
	// statsCat is the data-statistics catalog (internal/stats): exact
	// per-constraint fan-out distributions maintained under the index
	// observer hooks, plus lazily cached per-column NDVs and histograms.
	// Always present; consulted only when the optimizer is on.
	statsCat *stats.Catalog
	// optzr is the cost-based bounded-plan optimizer; nil means off (the
	// default): plans then run the checker's own greedy derivation.
	// Guarded by db.mu.
	optzr *opt.Optimizer
	// batch is the columnar batch row capacity; 0 means the default
	// (iter.BatchSize). Guarded by db.mu.
	batch int
	// execEpoch counts changes of the two settings above; prepared state
	// (prepare.go) embeds them and is rebuilt when it moved. Guarded by
	// db.mu.
	execEpoch uint64

	// qc is the unified query cache (internal/qcache): a bounded LRU of
	// parsed statement templates with the prepared state deduced from
	// them — always on, replacing the old unbounded per-text plan cache —
	// plus the opt-in semantic result tier of materialized bounded
	// answers. catalogVersion invalidates templates on any schema or
	// access-schema change. Both the template lookup and the store happen
	// under db.mu (read suffices), so a stale template can never be
	// re-inserted after a concurrent DDL bumps the version — see
	// parseLocked.
	qc             *qcache.Cache
	catalogVersion uint64

	// tracer is the installed query-lifecycle tracer; nil means tracing
	// off, in which case every span call on the query path degrades to a
	// single context lookup. Atomic so SetTracer never contends with
	// queries in flight.
	tracer atomic.Pointer[obs.Tracer]

	// digests, when non-nil, aggregates per-fingerprint workload
	// statistics across finished queries (SetDigests). Atomic like
	// tracer: with digests off the query path pays one load + nil check.
	digests atomic.Pointer[obs.DigestSet]

	// Durable state (open.go). wal is nil for in-memory databases and
	// after Close; walDir stays set so Durability keeps reporting. Every
	// mutator appends its logical record under db.mu (write) before
	// acknowledging, so the log order equals the apply order.
	wal           *wal.Log
	walDir        string
	snapEvery     int
	recsSinceSnap int
	snapLSN       uint64
	snapCount     uint64
	lastSnapTime  time.Time
	recovered     RecoveryInfo
	closed        bool
}

// bumpCatalog invalidates cached templates and results after DDL or
// access-schema changes: templates embed resolved schema state and
// cached answers embed constraint indexes, so neither survives a
// catalog change. Callers hold db.mu.
func (db *DB) bumpCatalog() {
	db.catalogVersion++
	db.qc.FlushAll()
}

// NewDB creates an empty database.
func NewDB() *DB {
	db := &DB{}
	sch, err := schema.NewDatabase()
	if err != nil {
		// NewDatabase without relations cannot fail; an error here means
		// the schema package itself is broken. Fail loudly rather than
		// continue with a nil schema and crash later.
		panic(fmt.Sprintf("beas: creating empty database schema: %v", err))
	}
	db.schema = sch
	db.store = storage.NewStore(db.schema)
	db.access = access.NewSchema(db.store)
	db.statsCat = stats.NewCatalog(db.store, db.access)
	db.fallback = engine.New(db.store, engine.ProfilePostgres)
	db.qc = qcache.New(0, 0, false)
	return db
}

// SetOptimizer turns the cost-based plan optimizer on or off (default
// off). With it on, covered queries choose among the equivalent coverage
// derivations by estimated fetched rows and key-set expansion from the
// statistics catalog instead of worst-case bounds, and the fallback
// engine plans joins with live NDVs and histograms. Results are
// identical either way — only step order and join shapes change — and
// the deduced worst-case bound reported for admission control is
// unchanged. With it off, plans run the checker's greedy derivation.
// Switching re-prepares every statement on its next execution: a plan
// ordered under one setting never runs under the other. In-flight
// queries keep the setting they started with.
func (db *DB) SetOptimizer(on bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if on {
		db.optzr = opt.New(db.statsCat)
	} else {
		db.optzr = nil
	}
	db.execConfigChangedLocked()
}

// OptimizerEnabled reports whether the cost-based optimizer is on.
func (db *DB) OptimizerEnabled() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.optzr != nil
}

// execConfigChangedLocked makes a changed optimizer or batch size take
// effect: plans and cached answers made under the old settings are
// retired (template analyses stay valid) and the fallback engine is
// rebuilt. Callers hold db.mu (write).
func (db *DB) execConfigChangedLocked() {
	db.execEpoch++
	db.qc.FlushResults()
	db.fallback = engine.New(db.store, engine.ProfilePostgres).WithBatchSize(db.batch)
	if db.optzr != nil {
		db.fallback.WithStats(db.statsCat)
	}
}

// SetBatchSize sets the columnar batch row capacity for subsequent
// queries (n ≤ 0 restores the default, 256). Larger batches amortise
// per-batch overhead; smaller ones reduce peak memory per operator.
func (db *DB) SetBatchSize(n int) {
	if n < 0 {
		n = 0
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.batch = n
	db.execConfigChangedLocked()
}

// BatchSize reports the columnar batch row capacity (0 = default).
func (db *DB) BatchSize() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.batch
}

// PlanCacheStats reports how many query parses were served from the
// template cache and how many had to parse and analyse from scratch
// (cold text, a catalog change since the cached entry was stored, or
// eviction from the bounded template tier).
func (db *DB) PlanCacheStats() (hits, misses uint64) {
	s := db.qc.Stats()
	return s.TemplateHits, s.TemplateMisses
}

// SetResultCache turns the semantic result cache on or off (default
// off). With it on, covered queries whose canonical form and
// parameters match a cached fresh answer are served from the cache
// without touching the checker or the indexes; answers are kept fresh
// incrementally — a mutation that cannot overlap an entry's recorded
// fetch keys leaves it live, a relevant one patches or invalidates
// just that entry. Results are bit-identical to uncached execution
// (row bags, order and data-derived statistics; timings and cost
// estimates reflect the original run). Turning the cache off drops
// every stored answer.
func (db *DB) SetResultCache(on bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.qc.SetResults(on)
}

// SetResultCacheLimits adjusts the byte budgets of the unified query
// cache: planMaxBytes bounds the parsed-template tier, resultMaxBytes
// the materialized-answer tier (≤ 0 keeps the respective default).
// Shrinking a budget evicts least-recently-used entries immediately.
func (db *DB) SetResultCacheLimits(planMaxBytes, resultMaxBytes int64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.qc.SetLimits(planMaxBytes, resultMaxBytes)
}

// ResultCacheEnabled reports whether the semantic result cache is on.
func (db *DB) ResultCacheEnabled() bool {
	return db.qc.ResultsEnabled()
}

// ResultCacheStats is a snapshot of the unified query-cache counters.
type ResultCacheStats struct {
	// Template tier (parse + analysis, always on).
	TemplateHits    uint64
	TemplateMisses  uint64
	TemplateEntries int
	TemplateBytes   int64
	// Result tier (materialized answers, opt-in).
	Hits          uint64
	Misses        uint64
	Stores        uint64
	StoreRaces    uint64
	Patches       uint64
	Invalidations uint64
	Evictions     uint64
	Entries       int
	Bytes         int64
}

// ResultCacheStats returns the current query-cache counters.
func (db *DB) ResultCacheStats() ResultCacheStats {
	s := db.qc.Stats()
	return ResultCacheStats(s)
}

// SetParallelism does nothing: a query runs on one goroutine, and
// concurrency comes from running many queries at once.
//
// Deprecated: intra-query parallelism was removed; a bounded plan fetches
// too few tuples to spread across cores.
func (db *DB) SetParallelism(int) {}

// TableDataStats is one table's row of the statistics-catalog dump.
type TableDataStats struct {
	Name string
	Rows int
}

// ConstraintDataStats is one access constraint's row of the
// statistics-catalog dump: the declared worst-case bound N next to the
// actual fan-out distribution observed in the data.
type ConstraintDataStats struct {
	Spec         string
	Bound        int
	DistinctKeys int64
	Tuples       int64
	MeanFanout   float64
	P50Fanout    int
	P95Fanout    int
	MaxFanout    int
}

// DataStats dumps the statistics catalog: exact per-table row counts and
// per-constraint fan-out distributions (incrementally maintained under
// the same hooks as the indices themselves). This is the data the
// cost-based optimizer plans with, exposed for monitoring.
func (db *DB) DataStats() ([]TableDataStats, []ConstraintDataStats) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ts, cs := db.statsCat.Summary()
	tables := make([]TableDataStats, len(ts))
	for i, t := range ts {
		tables[i] = TableDataStats{Name: t.Name, Rows: t.Rows}
	}
	cons := make([]ConstraintDataStats, len(cs))
	for i, c := range cs {
		cons[i] = ConstraintDataStats{
			Spec:         c.Spec,
			Bound:        c.Bound,
			DistinctKeys: c.DistinctKeys,
			Tuples:       c.Tuples,
			MeanFanout:   c.MeanFanout,
			P50Fanout:    c.P50,
			P95Fanout:    c.P95,
			MaxFanout:    c.MaxFanout,
		}
	}
	return tables, cons
}

// CreateTable adds a relation. Each column is declared as "name TYPE"
// with TYPE one of INT, FLOAT, STRING, BOOL (with common SQL aliases).
func (db *DB) CreateTable(name string, columns ...string) error {
	attrs := make([]schema.Attribute, len(columns))
	for i, col := range columns {
		fields := strings.Fields(col)
		if len(fields) != 2 {
			return fmt.Errorf("beas: column %q must be \"name TYPE\"", col)
		}
		kind, err := value.ParseKind(fields[1])
		if err != nil {
			return err
		}
		attrs[i] = schema.Attribute{Name: fields[0], Kind: kind}
	}
	rel, err := schema.NewRelation(name, attrs...)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.schema.Relation(rel.Name); dup {
		return fmt.Errorf("schema: duplicate relation %q", rel.Name)
	}
	cols := make([]wal.Column, len(rel.Attrs))
	for i, a := range rel.Attrs {
		cols[i] = wal.Column{Name: a.Name, Kind: a.Kind}
	}
	if err := db.walAppendLocked(&wal.Record{Type: wal.RecCreateTable, Table: rel.Name, Cols: cols}); err != nil {
		return err
	}
	if _, err := db.createTableLocked(rel); err != nil {
		return err
	}
	return db.maybeSnapshotLocked()
}

// createTableLocked adds a relation to the schema and the store and
// invalidates cached plans. Callers hold db.mu (write).
func (db *DB) createTableLocked(rel *schema.Relation) (*storage.Table, error) {
	if err := db.schema.Add(rel); err != nil {
		return nil, err
	}
	t, err := db.store.AddTable(rel)
	if err != nil {
		return nil, err
	}
	db.bumpCatalog()
	return t, nil
}

// MustCreateTable is CreateTable that panics on error.
func (db *DB) MustCreateTable(name string, columns ...string) {
	if err := db.CreateTable(name, columns...); err != nil {
		panic(err)
	}
}

// Insert adds one row; values are Go natives (int, int64, float64,
// string, bool, nil). On a durable database the row is appended to the
// write-ahead log before it becomes visible.
func (db *DB) Insert(table string, values ...any) error {
	row := make(value.Row, len(values))
	for i, v := range values {
		vv, err := ToValue(v)
		if err != nil {
			return fmt.Errorf("beas: inserting into %s: %w", table, err)
		}
		row[i] = vv
	}
	if db.walDir == "" {
		// In-memory fast path: concurrent inserts serialise on the table
		// lock only, not on the catalog lock.
		db.mu.RLock()
		closed := db.closed
		t, ok := db.store.Table(table)
		db.mu.RUnlock()
		if closed {
			return errClosed
		}
		if !ok {
			return fmt.Errorf("beas: no table %q", table)
		}
		return t.Insert(row)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.insertLocked(table, row, false)
}

// insertLocked validates, logs and applies one row insert. Callers hold
// db.mu (write). With deferSync the log append skips its fsync (bulk
// loads issue one Log.Sync at the end instead).
func (db *DB) insertLocked(table string, row value.Row, deferSync bool) error {
	t, ok := db.store.Table(table)
	if !ok {
		return fmt.Errorf("beas: no table %q", table)
	}
	// Validate before logging so the log never carries a record that
	// replay would reject.
	if err := t.Rel.ValidateRow(row); err != nil {
		return err
	}
	rec := &wal.Record{Type: wal.RecInsert, Table: t.Rel.Name, Row: row}
	var err error
	if deferSync && db.wal != nil && !db.closed {
		if err = db.wal.AppendDeferred(rec); err == nil {
			db.recsSinceSnap++
		}
	} else {
		err = db.walAppendLocked(rec)
	}
	if err != nil {
		return err
	}
	if err := t.Insert(row); err != nil {
		return err
	}
	return db.maybeSnapshotLocked()
}

// MustInsert is Insert that panics on error.
func (db *DB) MustInsert(table string, values ...any) {
	if err := db.Insert(table, values...); err != nil {
		panic(err)
	}
}

// Delete removes rows from a table matching a simple conjunctive
// condition given as column=value pairs, and reports how many were
// removed. Constraint indices are maintained incrementally. On a
// durable database the logical delete is logged before it is applied.
func (db *DB) Delete(table string, where map[string]any) (int, error) {
	if db.walDir == "" {
		db.mu.RLock()
		closed := db.closed
		t, ok := db.store.Table(table)
		db.mu.RUnlock()
		if closed {
			return 0, errClosed
		}
		if !ok {
			return 0, fmt.Errorf("beas: no table %q", table)
		}
		return deleteWhere(t, where)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.store.Table(table)
	if !ok {
		return 0, fmt.Errorf("beas: no table %q", table)
	}
	conds := make([]wal.Cond, 0, len(where))
	for col, v := range where {
		idx, ok := t.Rel.AttrIndex(col)
		if !ok {
			return 0, fmt.Errorf("beas: table %s has no column %q", table, col)
		}
		vv, err := ToValue(v)
		if err != nil {
			return 0, err
		}
		conds = append(conds, wal.Cond{Col: t.Rel.Attrs[idx].Name, Val: vv})
	}
	// The conds order came from a map; sort so the logged WAL record is
	// byte-identical across runs (replay and future replication compare
	// record bytes).
	sort.Slice(conds, func(i, j int) bool { return conds[i].Col < conds[j].Col })
	match, err := condsMatcher(t, conds)
	if err != nil {
		return 0, err
	}
	if err := db.walAppendLocked(&wal.Record{Type: wal.RecDelete, Table: t.Rel.Name, Where: conds}); err != nil {
		return 0, err
	}
	n := t.Delete(match)
	return n, db.maybeSnapshotLocked()
}

// deleteWhere applies a column=value conjunction delete on the
// in-memory path.
func deleteWhere(t *storage.Table, where map[string]any) (int, error) {
	type cond struct {
		pos int
		val value.Value
	}
	var conds []cond
	for col, v := range where {
		pos, ok := t.Rel.AttrIndex(col)
		if !ok {
			return 0, fmt.Errorf("beas: table %s has no column %q", t.Rel.Name, col)
		}
		vv, err := ToValue(v)
		if err != nil {
			return 0, err
		}
		conds = append(conds, cond{pos: pos, val: vv})
	}
	// Map order leaked into the evaluation order; sort by column
	// position so the predicate is deterministic.
	sort.Slice(conds, func(i, j int) bool { return conds[i].pos < conds[j].pos })
	return t.Delete(func(r value.Row) bool {
		for _, c := range conds {
			if !value.Equal(r[c.pos], c.val) {
				return false
			}
		}
		return true
	}), nil
}

// LoadCSV loads a CSV file (header row mapping to column names) into a
// table. On a durable database every row is logged; the per-record
// fsync is deferred to a single sync when the load completes, so bulk
// loads run at write speed and LoadCSV is durable as a whole once it
// returns (a crash mid-load recovers the logged prefix). The load holds
// the catalog write lock, so concurrent queries wait for it.
func (db *DB) LoadCSV(table, path string) error {
	if db.walDir == "" {
		db.mu.RLock()
		defer db.mu.RUnlock()
		if db.closed {
			return errClosed
		}
		return db.store.LoadCSVFile(table, path)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.store.Table(table)
	if !ok {
		return fmt.Errorf("beas: no table %q", table)
	}
	loadErr := t.ReadCSVFunc(f, func(row value.Row) error {
		return db.insertLocked(t.Rel.Name, row, true)
	})
	if db.wal != nil {
		if err := db.wal.Sync(); err != nil && loadErr == nil {
			loadErr = err
		}
	}
	return loadErr
}

// SaveCSV writes a table to a CSV file.
func (db *DB) SaveCSV(table, path string) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.store.SaveCSVFile(table, path)
}

// RowCount returns the number of rows in a table.
func (db *DB) RowCount(table string) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.store.Table(table)
	if !ok {
		return 0, fmt.Errorf("beas: no table %q", table)
	}
	return t.Len(), nil
}

// TotalRows returns the number of rows across all tables.
func (db *DB) TotalRows() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.store.TotalRows()
}

// RegisterConstraint parses and registers an access constraint in the
// paper's notation, e.g. "call({pnum, date} -> {recnum, region}, 500)".
// The instance must conform to the declared bound N.
func (db *DB) RegisterConstraint(spec string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	c, err := access.ParseConstraint(db.schema, spec)
	if err != nil {
		return err
	}
	return db.registerConstraintLocked(c, false)
}

// registerConstraintLocked registers c, building its index, and logs
// the registration. The record is logged with the constraint's
// pre-registration spec and the widening policy, so replay — running
// over the identical data prefix — reproduces the same effective bound.
// Callers hold db.mu (write).
func (db *DB) registerConstraintLocked(c *access.Constraint, autoWiden bool) error {
	spec := c.String()
	// Register (index build + conformance check) before logging: a spec
	// the data rejects must never enter the log, and a crash between
	// apply and append merely loses an unacknowledged registration.
	if _, err := db.access.Register(c, autoWiden); err != nil {
		return err
	}
	if err := db.walAppendLocked(&wal.Record{Type: wal.RecRegisterConstraint, Spec: spec, AutoWiden: autoWiden}); err != nil {
		return err
	}
	db.bumpCatalog()
	return db.maybeSnapshotLocked()
}

// MustRegisterConstraint is RegisterConstraint that panics on error.
func (db *DB) MustRegisterConstraint(spec string) {
	if err := db.RegisterConstraint(spec); err != nil {
		panic(err)
	}
}

// RegisterConstraintAuto registers a constraint whose bound N is widened
// to the maximum observed in the data ("aggregated from historical
// datasets", paper Example 1). It returns the effective constraint.
func (db *DB) RegisterConstraintAuto(rel string, x, y []string, n int) (string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	c, err := access.NewConstraint(db.schema, rel, x, y, n)
	if err != nil {
		return "", err
	}
	if err := db.registerConstraintLocked(c, true); err != nil {
		return "", err
	}
	return c.String(), nil
}

// DropConstraint removes a previously registered constraint (given in the
// paper's notation).
func (db *DB) DropConstraint(spec string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	c, err := access.ParseConstraint(db.schema, spec)
	if err != nil {
		return err
	}
	if _, ok := db.access.Index(c); !ok {
		return fmt.Errorf("beas: constraint %v is not registered", c)
	}
	if err := db.walAppendLocked(&wal.Record{Type: wal.RecDropConstraint, Spec: c.String()}); err != nil {
		return err
	}
	db.access.Unregister(c)
	db.bumpCatalog()
	return db.maybeSnapshotLocked()
}

// Retighten adjusts every registered constraint's bound N to the exact
// maximum observed in the current data and clears violation state — the
// Maintenance module's periodic constraint adjustment. Tighter bounds
// make every deduced access bound M tighter. It returns the adjusted
// constraints in the paper's notation; the error is non-nil only on a
// durable database whose log append failed.
func (db *DB) Retighten() ([]string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.walAppendLocked(&wal.Record{Type: wal.RecRetighten}); err != nil {
		return nil, err
	}
	out := db.access.Retighten()
	db.bumpCatalog()
	return out, db.maybeSnapshotLocked()
}

// SaveAccessSchema writes the registered access schema to a file, one
// constraint per line in the paper's notation.
func (db *DB) SaveAccessSchema(path string) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := db.access.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadAccessSchema reads a constraint file (as written by
// SaveAccessSchema or cmd/tlcgen) and registers every constraint,
// building its index and verifying conformance.
func (db *DB) LoadAccessSchema(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	db.mu.Lock()
	defer db.mu.Unlock()
	cons, err := access.ReadConstraints(db.schema, f)
	if err != nil {
		return err
	}
	for _, c := range cons {
		if err := db.registerConstraintLocked(c, false); err != nil {
			return err
		}
	}
	return nil
}

// Constraints lists the registered access constraints in the paper's
// notation.
func (db *DB) Constraints() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	cons := db.access.Constraints()
	out := make([]string, len(cons))
	for i, c := range cons {
		out[i] = c.String()
	}
	return out
}

// AccessSchemaFootprint returns the total number of distinct (X, Y) pairs
// stored across all constraint indices.
func (db *DB) AccessSchemaFootprint() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.access.Footprint()
}

// Conforms verifies D |= A and returns the violations if any.
func (db *DB) Conforms() (bool, []string) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ok, viols := db.access.Conforms()
	out := make([]string, len(viols))
	for i, v := range viols {
		out[i] = v.String()
	}
	return ok, out
}

// DiscoverOptions configures access-schema discovery.
type DiscoverOptions struct {
	// Workload is the historical query patterns (SQL).
	Workload []string
	// MaxN rejects candidate constraints with larger exact bounds
	// (default 10000).
	MaxN int
	// Budget caps the total index footprint in stored entries (0 =
	// unlimited).
	Budget int64
	// Register, when set, registers the selected constraints (building
	// their indices).
	Register bool
}

// Discover mines an access schema from the data and workload (the AS
// Catalog's Discovery module). It returns the selected constraints in the
// paper's notation and a textual report.
func (db *DB) Discover(opts DiscoverOptions) ([]string, string, error) {
	var queries []*analyze.Query
	db.mu.RLock()
	for _, sql := range opts.Workload {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			db.mu.RUnlock()
			return nil, "", fmt.Errorf("beas: workload query %q: %w", sql, err)
		}
		for s := stmt; s != nil; s = s.Union {
			q, err := analyze.Analyze(s.Select, db.schema)
			if err != nil {
				db.mu.RUnlock()
				return nil, "", fmt.Errorf("beas: workload query %q: %w", sql, err)
			}
			queries = append(queries, q)
		}
	}
	cands, report, err := discovery.Discover(db.store, queries, discovery.Options{
		MaxN:   opts.MaxN,
		Budget: opts.Budget,
	})
	db.mu.RUnlock()
	if err != nil {
		return nil, "", err
	}
	specs := make([]string, len(cands))
	for i, c := range cands {
		specs[i] = c.Constraint.String()
	}
	if opts.Register {
		db.mu.Lock()
		for _, c := range cands {
			if err := db.registerConstraintLocked(c.Constraint, true); err != nil {
				db.mu.Unlock()
				return specs, report.String(), err
			}
		}
		db.mu.Unlock()
	}
	return specs, report.String(), nil
}

// ToValue converts a Go native to a BEAS value.
func ToValue(v any) (value.Value, error) {
	switch x := v.(type) {
	case nil:
		return value.NewNull(), nil
	case int:
		return value.NewInt(int64(x)), nil
	case int32:
		return value.NewInt(int64(x)), nil
	case int64:
		return value.NewInt(x), nil
	case float32:
		return value.NewFloat(float64(x)), nil
	case float64:
		return value.NewFloat(x), nil
	case string:
		return value.NewString(x), nil
	case bool:
		return value.NewBool(x), nil
	case value.Value:
		return x, nil
	default:
		return value.Value{}, fmt.Errorf("beas: unsupported Go type %T", v)
	}
}
