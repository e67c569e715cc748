package beas

import (
	"fmt"
	"time"

	"github.com/bounded-eval/beas/internal/access"
	"github.com/bounded-eval/beas/internal/qcache"
	"github.com/bounded-eval/beas/internal/schema"
	"github.com/bounded-eval/beas/internal/storage"
	"github.com/bounded-eval/beas/internal/value"
	"github.com/bounded-eval/beas/internal/wal"
)

// Options configures a durable database opened with Open.
type Options struct {
	// NoSync skips the per-record fsync on the write-ahead log. Mutation
	// throughput rises by orders of magnitude, but an OS crash or power
	// loss may lose the most recently acknowledged writes (a process
	// crash alone does not: records are handed to the OS on every
	// append). Recovery still restores a consistent prefix.
	NoSync bool
	// SnapshotEvery takes an automatic snapshot (and truncates the log)
	// after this many WAL records. 0 means the default (100000);
	// negative disables automatic snapshots — the log then only shrinks
	// on explicit Snapshot calls or Close.
	SnapshotEvery int
	// Optimizer enables the cost-based plan optimizer (see
	// DB.SetOptimizer): covered queries then pick among equivalent
	// coverage derivations by statistics-estimated cost instead of
	// worst-case bounds. Results are identical either way; the reported
	// worst-case admission bound is unchanged.
	Optimizer bool
	// BatchSize is the columnar batch row capacity for vectorized
	// execution (see DB.SetBatchSize). 0 keeps the default (256).
	BatchSize int
	// Tracer installs a query-lifecycle tracer (see DB.SetTracer). nil
	// keeps tracing off.
	Tracer *Tracer
	// Metrics wires the database's internal instrumentation — plan
	// cache, WAL appends and fsync latency, durability gauges — into a
	// metrics registry (see DB.SetMetrics). nil skips the wiring.
	Metrics *MetricsRegistry
	// ResultCache enables the semantic result cache (see
	// DB.SetResultCache): fresh materialized answers of covered queries
	// are served without re-execution and kept fresh incrementally under
	// mutations. Off by default; answers are bit-identical either way.
	ResultCache bool
	// ResultCacheMaxBytes bounds the result tier's memory (approximate
	// byte accounting, LRU eviction). 0 keeps the default (64 MiB).
	ResultCacheMaxBytes int64
	// PlanCacheMaxBytes bounds the parsed-template tier's memory. The
	// template tier is always on — it replaces the former unbounded plan
	// cache. 0 keeps the default (16 MiB).
	PlanCacheMaxBytes int64
}

const defaultSnapshotEvery = 100_000

// RecoveryInfo describes what Open reconstructed from disk.
type RecoveryInfo struct {
	// SnapshotLSN is the log position of the snapshot recovery started
	// from (0 when the store was rebuilt from the log alone).
	SnapshotLSN uint64
	// ReplayedRecords is how many WAL records were replayed on top of
	// the snapshot.
	ReplayedRecords int
	// TruncatedBytes is the size of the torn final record dropped from
	// the log tail (0 on a clean open).
	TruncatedBytes int64
	// Duration is the wall time recovery took.
	Duration time.Duration
	// Conforms reports whether D |= A held after recovery — it is false
	// exactly when it was false before the crash (violations of strict
	// constraints are themselves replayed).
	Conforms bool
}

// DurabilityStats snapshots the storage engine's state for monitoring.
type DurabilityStats struct {
	// Durable is false for purely in-memory databases (NewDB); every
	// other field is then zero.
	Durable bool
	// Dir is the data directory.
	Dir string
	// WALBytes is the on-disk size of all live log segments.
	WALBytes int64
	// LastLSN is the sequence number of the most recent WAL record.
	LastLSN uint64
	// SnapshotLSN is the log position of the newest snapshot.
	SnapshotLSN uint64
	// RecordsSinceSnapshot is the length of the log tail a crash right
	// now would replay.
	RecordsSinceSnapshot int
	// LastSnapshot is when the newest snapshot was written (zero if
	// none exists yet).
	LastSnapshot time.Time
	// Snapshots counts snapshots taken since this handle opened.
	Snapshots uint64
	// Recovery describes what the last Open reconstructed.
	Recovery RecoveryInfo
}

// Open opens (creating if necessary) a durable database in dir.
//
// The directory holds an append-only write-ahead log (wal-*.log) of
// logical mutation records and periodic full snapshots (snap-*.snap).
// Open loads the newest valid snapshot, replays the log records past
// its position — rebuilding every access-constraint index through the
// same registration and incremental-maintenance paths as the original
// execution — verifies conformance, and returns a handle whose mutating
// methods append to the log before they are acknowledged. A torn final
// record (a crash mid-append) is detected by checksum and dropped;
// corruption anywhere else fails Open rather than silently losing
// acknowledged history.
//
// Pass nil opts for defaults (fsync on every record, snapshot every
// 100000 records).
func Open(dir string, opts *Options) (*DB, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = defaultSnapshotEvery
	}
	start := time.Now()
	log, recv, err := wal.Open(dir, wal.Options{NoSync: o.NoSync})
	if err != nil {
		return nil, fmt.Errorf("beas: opening %s: %w", dir, err)
	}
	db := NewDB()
	// Replace the default cache before any statement can populate it:
	// replay below mutates tables directly (observers attach lazily at
	// the first Store, so replay events are never mis-seen either way).
	db.qc = qcache.New(o.PlanCacheMaxBytes, o.ResultCacheMaxBytes, o.ResultCache)
	if o.Optimizer {
		db.SetOptimizer(true)
	}
	if o.BatchSize > 0 {
		db.SetBatchSize(o.BatchSize)
	}
	db.walDir = dir
	db.snapEvery = o.SnapshotEvery
	if recv.Snapshot != nil {
		if err := db.loadSnapshot(recv.Snapshot); err != nil {
			log.Close()
			return nil, fmt.Errorf("beas: loading snapshot of %s: %w", dir, err)
		}
		db.snapLSN = recv.Snapshot.LSN
		db.lastSnapTime = recv.SnapshotTime
	}
	for _, rec := range recv.Records {
		if err := db.applyRecord(rec); err != nil {
			log.Close()
			return nil, fmt.Errorf("beas: replaying %s record %d of %s: %w", rec.Type, rec.LSN, dir, err)
		}
	}
	// The log is attached only after replay, so replayed records are
	// never re-logged and the tail count below is exact.
	db.wal = log
	db.recsSinceSnap = int(log.LastLSN() - db.snapLSN)
	ok, _ := db.access.Conforms()
	db.recovered = RecoveryInfo{
		SnapshotLSN:     db.snapLSN,
		ReplayedRecords: len(recv.Records),
		TruncatedBytes:  recv.TruncatedTail,
		Duration:        time.Since(start),
		Conforms:        ok,
	}
	db.bumpCatalog()
	if o.Tracer != nil {
		db.SetTracer(o.Tracer)
	}
	if o.Metrics != nil {
		// After db.wal is attached, so the WAL observer lands on the live
		// log.
		db.SetMetrics(o.Metrics)
	}
	return db, nil
}

// Close takes a final snapshot if the database is durable and has
// unsnapshotted log records, then closes the log. Mutations after Close
// fail; reads keep working on the in-memory state.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal == nil {
		db.closed = true
		return nil
	}
	var firstErr error
	if db.recsSinceSnap > 0 {
		firstErr = db.snapshotLocked()
	}
	if err := db.wal.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	db.wal = nil
	db.closed = true
	return firstErr
}

// Snapshot writes a full snapshot of the database (store plus access
// schema) and truncates the log: segments and older snapshots the new
// snapshot makes redundant are deleted. It is a no-op on an in-memory
// database.
func (db *DB) Snapshot() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errClosed
	}
	if db.wal == nil {
		return nil
	}
	return db.snapshotLocked()
}

// Durability reports the storage engine's current state.
func (db *DB) Durability() DurabilityStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.walDir == "" {
		return DurabilityStats{}
	}
	st := DurabilityStats{
		Durable:              true,
		Dir:                  db.walDir,
		SnapshotLSN:          db.snapLSN,
		RecordsSinceSnapshot: db.recsSinceSnap,
		LastSnapshot:         db.lastSnapTime,
		Snapshots:            db.snapCount,
		Recovery:             db.recovered,
	}
	if db.wal != nil {
		st.WALBytes = db.wal.Size()
		st.LastLSN = db.wal.LastLSN()
	}
	return st
}

var errClosed = fmt.Errorf("beas: database is closed")

// walAppendLocked logs one mutation record. Callers hold db.mu (write)
// and have already validated that applying the record cannot fail, so
// the log never carries a record replay would reject. On an in-memory
// database it is a no-op.
//
// An append error (disk full, I/O failure) is returned to the caller
// but cannot roll back an already-applied mutation; the handle should
// then be closed and reopened, which recovers the last durable state.
func (db *DB) walAppendLocked(rec *wal.Record) error {
	if db.closed {
		return errClosed
	}
	if db.wal == nil {
		return nil
	}
	if err := db.wal.Append(rec); err != nil {
		return err
	}
	db.recsSinceSnap++
	return nil
}

// maybeSnapshotLocked takes an automatic snapshot when the configured
// record cadence is due. Callers hold db.mu (write).
func (db *DB) maybeSnapshotLocked() error {
	if db.wal == nil || db.snapEvery <= 0 || db.recsSinceSnap < db.snapEvery {
		return nil
	}
	return db.snapshotLocked()
}

// snapshotLocked dumps the store and access schema as of the log's last
// record, writes the snapshot atomically and rotates + compacts the
// log. Callers hold db.mu (write), so no mutation can interleave with
// the dump.
func (db *DB) snapshotLocked() error {
	snap := &wal.Snapshot{LSN: db.wal.LastLSN()}
	for _, name := range db.store.Names() {
		t := db.store.MustTable(name)
		cols := make([]wal.Column, t.Rel.Arity())
		for i, a := range t.Rel.Attrs {
			cols[i] = wal.Column{Name: a.Name, Kind: a.Kind}
		}
		snap.Tables = append(snap.Tables, wal.TableDump{
			Name: t.Rel.Name,
			Cols: cols,
			Rows: t.Rows(),
		})
	}
	for _, c := range db.access.Constraints() {
		autoWiden := false
		if idx, ok := db.access.Index(c); ok {
			autoWiden = idx.AutoWiden
		}
		snap.Constraints = append(snap.Constraints, wal.ConstraintDump{
			Spec:      c.String(),
			AutoWiden: autoWiden,
		})
	}
	if err := wal.WriteSnapshot(db.walDir, snap); err != nil {
		return fmt.Errorf("beas: writing snapshot: %w", err)
	}
	if err := db.wal.Rotate(snap.LSN); err != nil {
		return fmt.Errorf("beas: rotating log: %w", err)
	}
	db.snapLSN = snap.LSN
	db.lastSnapTime = time.Now()
	db.recsSinceSnap = 0
	db.snapCount++
	return nil
}

// loadSnapshot restores tables, rows and constraint indices from a
// snapshot dump. Indices are rebuilt through access.Schema.Register —
// the same path as live registration — so their buckets, counts and
// widening policies come back exactly.
func (db *DB) loadSnapshot(s *wal.Snapshot) error {
	for _, td := range s.Tables {
		attrs := make([]schema.Attribute, len(td.Cols))
		for i, c := range td.Cols {
			attrs[i] = schema.Attribute{Name: c.Name, Kind: c.Kind}
		}
		rel, err := schema.NewRelation(td.Name, attrs...)
		if err != nil {
			return err
		}
		t, err := db.createTableLocked(rel)
		if err != nil {
			return err
		}
		if err := t.InsertBulk(td.Rows); err != nil {
			return err
		}
	}
	for _, cd := range s.Constraints {
		c, err := access.ParseConstraint(db.schema, cd.Spec)
		if err != nil {
			return err
		}
		if _, err := db.access.Register(c, cd.AutoWiden); err != nil {
			return fmt.Errorf("rebuilding index for %s: %w", cd.Spec, err)
		}
	}
	return nil
}

// applyRecord replays one WAL record against the in-memory state,
// without re-logging it. Replay runs the same code paths as the
// original mutations, in the original order, so incremental index
// maintenance reproduces the pre-crash index state exactly.
func (db *DB) applyRecord(rec *wal.Record) error {
	switch rec.Type {
	case wal.RecCreateTable:
		attrs := make([]schema.Attribute, len(rec.Cols))
		for i, c := range rec.Cols {
			attrs[i] = schema.Attribute{Name: c.Name, Kind: c.Kind}
		}
		rel, err := schema.NewRelation(rec.Table, attrs...)
		if err != nil {
			return err
		}
		_, err = db.createTableLocked(rel)
		return err
	case wal.RecInsert:
		t, ok := db.store.Table(rec.Table)
		if !ok {
			return fmt.Errorf("no table %q", rec.Table)
		}
		return t.Insert(rec.Row)
	case wal.RecDelete:
		t, ok := db.store.Table(rec.Table)
		if !ok {
			return fmt.Errorf("no table %q", rec.Table)
		}
		match, err := condsMatcher(t, rec.Where)
		if err != nil {
			return err
		}
		t.Delete(match)
		return nil
	case wal.RecRegisterConstraint:
		c, err := access.ParseConstraint(db.schema, rec.Spec)
		if err != nil {
			return err
		}
		_, err = db.access.Register(c, rec.AutoWiden)
		return err
	case wal.RecDropConstraint:
		c, err := access.ParseConstraint(db.schema, rec.Spec)
		if err != nil {
			return err
		}
		if !db.access.Unregister(c) {
			return fmt.Errorf("constraint %v is not registered", c)
		}
		return nil
	case wal.RecRetighten:
		db.access.Retighten()
		return nil
	default:
		return fmt.Errorf("unknown record type %d", uint8(rec.Type))
	}
}

// condsMatcher compiles a Delete record's equality conjuncts into a row
// predicate.
func condsMatcher(t *storage.Table, conds []wal.Cond) (func(value.Row) bool, error) {
	type posCond struct {
		pos int
		val value.Value
	}
	resolved := make([]posCond, len(conds))
	for i, c := range conds {
		pos, ok := t.Rel.AttrIndex(c.Col)
		if !ok {
			return nil, fmt.Errorf("table %s has no column %q", t.Rel.Name, c.Col)
		}
		resolved[i] = posCond{pos: pos, val: c.Val}
	}
	return func(r value.Row) bool {
		for _, c := range resolved {
			if !value.Equal(r[c.pos], c.val) {
				return false
			}
		}
		return true
	}, nil
}
