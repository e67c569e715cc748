package access

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/bounded-eval/beas/internal/storage"
	"github.com/bounded-eval/beas/internal/value"
)

// indexShards is the number of independently locked partitions of an
// index. Keys are routed by hash, so the shards load-balance regardless
// of key distribution; a power of two keeps the routing a mask. 16
// shards are enough to make lock contention invisible at typical core
// counts while keeping the per-index footprint small.
const indexShards = 16

// Index is the modified hash index of paper §3: it takes the constraint's
// X attributes as key, and each key value points to a bucket holding the
// set of at most N distinct Y-values for that key.
//
// The index is maintained incrementally: it registers as an observer on
// its table, and per-bucket reference counts on Y-values keep deletions
// exact (a Y-value leaves the bucket only when its last witness row is
// deleted), implementing the Maintenance module of the AS Catalog.
//
// The bucket table is partitioned into indexShards shards, each guarded
// by its own RWMutex and keyed by a hash of the encoded X-key. Shards
// make the index independently lockable (concurrent queries probe
// different shards without contending) and independently buildable
// (BuildIndex folds large tables shard-parallel). The key encoding is
// untouched — FetchWeightedEncoded accepts exactly the value.Key bytes
// it always did.
type Index struct {
	C *Constraint

	xPos, yPos []int // attribute positions in the base relation

	shards [indexShards]indexShard

	// AutoWiden controls the violation policy during maintenance: when a
	// bucket would exceed N, the index either widens N to the new
	// cardinality (true, the paper's "periodically adjusts constraints")
	// or records the violation and keeps the tuple out of the index,
	// marking the index invalid (false).
	AutoWiden bool

	// vmu guards the violation state and the constraint-bound widening;
	// it is taken only when a bucket grows past the current bound.
	vmu        sync.Mutex
	invalid    bool
	violations []Violation

	// epoch, when set (Schema.Register), is the owning schema's bound
	// epoch: maintenance bumps it whenever it changes what the checker
	// would deduce from this index — N widened, or the index invalidated.
	epoch *atomic.Uint64
}

// bumpEpoch publishes a change of C.N or of the invalid flag. Callers
// make the change first, so a reader that still sees the old epoch has
// at worst deduced from the state of a moment ago.
func (ix *Index) bumpEpoch() {
	if ix.epoch != nil {
		ix.epoch.Add(1)
	}
}

// indexShard is one partition of the bucket table.
type indexShard struct {
	mu      sync.RWMutex
	buckets map[string]*bucket
	maxN    int   // largest bucket cardinality observed in this shard
	tuples  int64 // distinct Y-values over this shard's buckets
	// sizes is the shard's exact bucket-cardinality histogram:
	// sizes[k] = number of X-keys with exactly k distinct Y-values. It is
	// maintained incrementally on every insert and delete, so the
	// statistics catalog reads fan-out distributions (mean, p50, p95,
	// max) without scanning the buckets.
	sizes map[int]int64
}

type bucket struct {
	// order preserves first-insertion order of distinct Y-values so that
	// fetches are deterministic; counts[i] is the number of base rows
	// witnessing order[i] (the multiplicity needed for SQL bag semantics).
	order  []value.Row
	counts []int64
	// refs maps the Y encoding to its position in order.
	refs map[string]int
}

// shardOf routes an encoded X-key to its shard. The hash only spreads
// keys across shards; bucket contents and fetch results are independent
// of it.
func shardOf(key string) uint32 {
	return value.HashKey(key) & (indexShards - 1)
}

// BuildIndex scans the table and constructs the index for c. It fails if
// the instance does not conform to c (some bucket exceeds N), unless
// autoWiden is set, in which case N is widened to the observed maximum.
//
// BuildIndex reads the table without pinning it; callers that attach
// the index as a mutation observer afterwards should instead combine
// newIndex + buildFrom under storage.Table.ObserveBuild, as
// access.Schema.Register does, so no concurrent insert can slip between
// the scan and the registration.
func BuildIndex(c *Constraint, t *storage.Table, autoWiden bool) (*Index, error) {
	idx, err := newIndex(c, t, autoWiden)
	if err != nil {
		return nil, err
	}
	if err := idx.buildFrom(t.Rows()); err != nil {
		return nil, err
	}
	return idx, nil
}

// newIndex prepares an empty index for c over t's relation.
func newIndex(c *Constraint, t *storage.Table, autoWiden bool) (*Index, error) {
	xPos, err := t.Rel.AttrIndices(c.X)
	if err != nil {
		return nil, err
	}
	yPos, err := t.Rel.AttrIndices(c.Y)
	if err != nil {
		return nil, err
	}
	ix := &Index{
		C:         c,
		xPos:      xPos,
		yPos:      yPos,
		AutoWiden: autoWiden,
	}
	for s := range ix.shards {
		ix.shards[s].buckets = make(map[string]*bucket)
		ix.shards[s].sizes = make(map[int]int64)
	}
	return ix, nil
}

// parallelBuildThreshold is the table size below which buildFrom stays
// single-threaded: the fan-out bookkeeping costs more than it saves on
// small relations.
const parallelBuildThreshold = 1 << 14

// buildFrom folds rows into the empty index and enforces conformance
// (widening N instead when AutoWiden is set). Large tables build
// shard-parallel: the encoded X-keys are computed in chunk-parallel
// first, then one worker per shard folds its rows in table order, so
// every bucket's Y-value order is identical to a sequential build.
func (ix *Index) buildFrom(rows []value.Row) error {
	if workers := runtime.GOMAXPROCS(0); len(rows) >= parallelBuildThreshold && workers > 1 {
		ix.buildParallel(rows, workers)
	} else {
		var kb []byte
		for _, row := range rows {
			kb = value.AppendRowKey(kb[:0], row, ix.xPos)
			sh := &ix.shards[shardOf(string(kb))]
			sh.insert(kb, row, ix.yPos)
		}
	}
	if maxN := ix.MaxBucket(); maxN > ix.C.N {
		if !ix.AutoWiden {
			return fmt.Errorf("access: building index for %v: instance does not conform (max %d distinct Y-values per key)", ix.C, maxN)
		}
		ix.C.N = maxN
	}
	return nil
}

// buildParallel is the shard-parallel fold: phase one computes each
// row's shard in parallel chunks, phase two routes the rows into
// per-shard index lists (sequential, cheap), and phase three lets
// workers fold whole shards concurrently — no two workers ever touch
// the same bucket, and rows reach each shard in table order. Keys are
// encoded twice (once to route, once to insert) into reused buffers,
// which beats persisting an encoded key string per row.
func (ix *Index) buildParallel(rows []value.Row, workers int) {
	shard := make([]uint8, len(rows))
	chunk := (len(rows) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(rows))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var kb []byte
			for i := lo; i < hi; i++ {
				kb = value.AppendRowKey(kb[:0], rows[i], ix.xPos)
				shard[i] = uint8(shardOf(string(kb)))
			}
		}(lo, hi)
	}
	wg.Wait()

	var byShard [indexShards][]int32
	for i := range rows {
		s := shard[i]
		byShard[s] = append(byShard[s], int32(i))
	}

	for s := 0; s < indexShards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sh := &ix.shards[s]
			var kb []byte
			for _, i := range byShard[s] {
				kb = value.AppendRowKey(kb[:0], rows[i], ix.xPos)
				sh.insert(kb, rows[i], ix.yPos)
			}
		}(s)
	}
	wg.Wait()
}

// insert folds one row into the shard's bucket for the encoded X-key
// and returns the bucket's new cardinality. The key bytes are only
// copied when a new bucket is created, so steady-state maintenance is
// allocation-free. The caller must either own the shard exclusively
// (build) or hold sh.mu (maintenance).
func (sh *indexShard) insert(xKey []byte, row value.Row, yPos []int) int {
	b, ok := sh.buckets[string(xKey)]
	if !ok {
		b = &bucket{refs: make(map[string]int, 1)}
		sh.buckets[string(xKey)] = b
	}
	var kb [48]byte
	yk := value.AppendRowKey(kb[:0], row, yPos)
	if pos, ok := b.refs[string(yk)]; ok {
		b.counts[pos]++
		return len(b.order)
	}
	y := row.Project(yPos)
	b.refs[string(yk)] = len(b.order)
	b.order = append(b.order, y)
	b.counts = append(b.counts, 1)
	sh.tuples++
	// Bucket cardinality transition old → old+1 in the size histogram.
	if old := len(b.order) - 1; old > 0 {
		if sh.sizes[old]--; sh.sizes[old] == 0 {
			delete(sh.sizes, old)
		}
	}
	sh.sizes[len(b.order)]++
	if len(b.order) > sh.maxN {
		sh.maxN = len(b.order)
	}
	return len(b.order)
}

// Fetch returns the distinct Y-values associated with key (the values of
// the X attributes, in constraint order). The returned rows are the
// index's own storage and must not be mutated. The second result is the
// number of (partial) tuples accessed, which by conformance is ≤ N.
func (ix *Index) Fetch(key []value.Value) ([]value.Row, int) {
	rows, _, n := ix.FetchWeightedEncoded(value.Key(key))
	return rows, n
}

// FetchWeighted is Fetch plus the witness count of every distinct
// Y-value: counts[i] base rows carry rows[i]. The bounded executor uses
// the counts to preserve SQL bag semantics (duplicate base rows, COUNT)
// while still fetching only distinct partial tuples.
func (ix *Index) FetchWeighted(key []value.Value) (rows []value.Row, counts []int64, accessed int) {
	return ix.FetchWeightedEncoded(value.Key(key))
}

// FetchWeightedEncoded is FetchWeighted for a key already passed through
// value.Key. The bounded executor encodes each probe key once for its
// memoisation table and reuses the encoding here instead of re-encoding.
// Only the key's shard is read-locked, so concurrent probes proceed
// independently.
func (ix *Index) FetchWeightedEncoded(key string) (rows []value.Row, counts []int64, accessed int) {
	sh := &ix.shards[shardOf(key)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	b, ok := sh.buckets[key]
	if !ok {
		return nil, nil, 0
	}
	return b.order, b.counts, len(b.order)
}

// Contains reports whether any tuple with the given X-value exists.
func (ix *Index) Contains(key []value.Value) bool {
	k := value.Key(key)
	sh := &ix.shards[shardOf(k)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.buckets[k]
	return ok
}

// Buckets returns the number of distinct X-values.
func (ix *Index) Buckets() int {
	total := 0
	for s := range ix.shards {
		sh := &ix.shards[s]
		sh.mu.RLock()
		total += len(sh.buckets)
		sh.mu.RUnlock()
	}
	return total
}

// Tuples returns the total number of distinct (X, Y) pairs stored — the
// index footprint used by the discovery module's storage budget.
func (ix *Index) Tuples() int64 {
	var total int64
	for s := range ix.shards {
		sh := &ix.shards[s]
		sh.mu.RLock()
		total += sh.tuples
		sh.mu.RUnlock()
	}
	return total
}

// FanoutHist returns the index's exact bucket-cardinality histogram:
// hist[k] = number of X-keys with exactly k distinct Y-values. It is
// maintained incrementally under the same observer hooks as the buckets
// themselves (Insert/Delete/LoadCSV and WAL replay), so reading it never
// scans the index. The statistics catalog derives the per-constraint
// fan-out distribution (mean, p50, p95, max) from it.
func (ix *Index) FanoutHist() map[int]int64 {
	out := make(map[int]int64)
	for s := range ix.shards {
		sh := &ix.shards[s]
		sh.mu.RLock()
		for k, n := range sh.sizes {
			out[k] += n
		}
		sh.mu.RUnlock()
	}
	return out
}

// MaxBucket returns the largest observed bucket cardinality; conformance
// holds while MaxBucket ≤ C.N.
func (ix *Index) MaxBucket() int {
	maxN := 0
	for s := range ix.shards {
		sh := &ix.shards[s]
		sh.mu.RLock()
		if sh.maxN > maxN {
			maxN = sh.maxN
		}
		sh.mu.RUnlock()
	}
	return maxN
}

// Invalid reports whether maintenance detected a violation under the
// strict (non-widening) policy; an invalid index must not be used for
// bounded plans until rebuilt.
func (ix *Index) Invalid() bool {
	ix.vmu.Lock()
	defer ix.vmu.Unlock()
	return ix.invalid
}

// Violations returns the violations recorded under the strict policy.
func (ix *Index) Violations() []Violation {
	ix.vmu.Lock()
	defer ix.vmu.Unlock()
	return append([]Violation(nil), ix.violations...)
}

// OnInsert implements storage.Observer: incremental index maintenance for
// a newly inserted base row. Only the row's shard is write-locked.
func (ix *Index) OnInsert(row value.Row) {
	var kb [48]byte
	xk := value.AppendRowKey(kb[:0], row, ix.xPos)
	sh := &ix.shards[shardOf(string(xk))]
	sh.mu.Lock()
	n := sh.insert(xk, row, ix.yPos)
	sh.mu.Unlock()
	if n > ix.C.N {
		ix.vmu.Lock()
		defer ix.vmu.Unlock()
		if n <= ix.C.N { // another widening got here first
			return
		}
		if ix.AutoWiden {
			ix.C.N = n
			ix.bumpEpoch()
			return
		}
		ix.violations = append(ix.violations, Violation{
			Constraint: ix.C,
			XKey:       row.Project(ix.xPos),
			Count:      n,
		})
		if !ix.invalid {
			ix.invalid = true
			ix.bumpEpoch()
		}
	}
}

// OnDelete implements storage.Observer: removes one witness of the row's
// Y-value; the Y-value leaves the bucket when its last witness goes.
func (ix *Index) OnDelete(row value.Row) {
	var kb [48]byte
	xKey := string(value.AppendRowKey(kb[:0], row, ix.xPos))
	sh := &ix.shards[shardOf(xKey)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b, ok := sh.buckets[xKey]
	if !ok {
		return
	}
	yKey := value.Key(row.Project(ix.yPos))
	pos, ok := b.refs[yKey]
	if !ok {
		return
	}
	b.counts[pos]--
	if b.counts[pos] > 0 {
		return
	}
	// Bucket cardinality transition old → old-1 in the size histogram.
	if old := len(b.order); old > 0 {
		if sh.sizes[old]--; sh.sizes[old] == 0 {
			delete(sh.sizes, old)
		}
		if old > 1 {
			sh.sizes[old-1]++
		}
	}
	// Remove the Y-value: swap the last element into its slot.
	last := len(b.order) - 1
	moved := b.order[last]
	b.order[pos] = moved
	b.counts[pos] = b.counts[last]
	b.order = b.order[:last]
	b.counts = b.counts[:last]
	if pos < last {
		b.refs[value.Key(moved)] = pos
	}
	delete(b.refs, yKey)
	sh.tuples--
	if len(b.order) == 0 {
		delete(sh.buckets, xKey)
	}
	// maxN is an upper bound; deletions never invalidate conformance so we
	// leave it (Rebuild recomputes it exactly).
}

// Retighten recomputes the exact maximum bucket cardinality and adjusts
// the constraint's bound N to it, clearing any violation state — the
// Maintenance module's "periodically adjusts constraints in A" (§3).
// Tightening N improves every bound the BE Checker deduces with this
// constraint. It returns the new N.
func (ix *Index) Retighten() int {
	maxN := 0
	for s := range ix.shards {
		sh := &ix.shards[s]
		sh.mu.Lock()
		shMax := 0
		for _, b := range sh.buckets {
			if len(b.order) > shMax {
				shMax = len(b.order)
			}
		}
		sh.maxN = shMax
		sh.mu.Unlock()
		if shMax > maxN {
			maxN = shMax
		}
	}
	if maxN == 0 {
		maxN = 1 // an empty relation conforms to any positive bound
	}
	ix.vmu.Lock()
	ix.C.N = maxN
	ix.invalid = false
	ix.violations = nil
	ix.vmu.Unlock()
	ix.bumpEpoch()
	return maxN
}

// Conforms re-scans the index state and reports whether every bucket is
// within the constraint's bound, with the offending buckets if not.
func (ix *Index) Conforms() (bool, []Violation) {
	var out []Violation
	for s := range ix.shards {
		sh := &ix.shards[s]
		sh.mu.RLock()
		for _, b := range sh.buckets {
			if len(b.order) > ix.C.N {
				out = append(out, Violation{Constraint: ix.C, Count: len(b.order)})
			}
		}
		sh.mu.RUnlock()
	}
	return len(out) == 0, out
}
