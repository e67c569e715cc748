// Package qcache is the unified query-cache layer: a bounded,
// byte-accounted LRU of parsed statement templates plus a semantic
// result cache of materialized bounded answers that stays fresh under
// mutations through the storage layer's versioned observer hook.
//
// The two tiers share one canonical identity, computed by
// analyze.Canonical: statements that normalize to the same fingerprint
// and parameter vector share a single result entry even when their
// texts differ. The template tier is always on (it replaces the old
// unbounded per-DB plan cache); the result tier is opt-in.
//
// Freshness is incremental, not flush-everything. Every entry records
// which constraint-index regions its fetch steps actually probed — the
// exact encoded key sets, including keys that hit an empty bucket — and
// subscribes to the base tables through storage.VersionedObserver.
// A mutation whose rows touch none of an entry's recorded keys leaves
// the entry live. A relevant mutation either patches the materialized
// answer in place (simple single-step bag and COUNT/SUM/MIN/MAX
// aggregate shapes — see patch.go) or invalidates just that entry.
//
// Lock order: callers hold db.mu before Cache.mu; Cache.mu is acquired
// before any storage.Table or index shard lock. Storage delivers
// observer events outside the table lock, so the mutation path never
// holds a table lock while waiting on Cache.mu.
package qcache

import (
	"container/list"
	"fmt"
	"sync"

	"github.com/bounded-eval/beas/internal/access"
	"github.com/bounded-eval/beas/internal/analyze"
	"github.com/bounded-eval/beas/internal/core"
	"github.com/bounded-eval/beas/internal/storage"
	"github.com/bounded-eval/beas/internal/value"
)

// Defaults for the byte budgets of the two tiers.
const (
	DefaultTemplateMaxBytes = 16 << 20
	DefaultResultMaxBytes   = 64 << 20

	// maxKeysPerStep caps per-step fine-grained key registration: a step
	// that probed more keys subscribes coarsely to its whole table (any
	// mutation of the table invalidates the entry) instead of bloating
	// the reverse index.
	maxKeysPerStep = 1024
)

// Template is one cached parsed statement. Parsed is opaque to this
// package (the facade's analyzed form); Version pins the catalog
// version the analysis is valid for. ResultKey is the canonical
// identity of the statement's *answer*: fingerprint plus extracted
// parameter vector for shareable statements, the literal text
// otherwise. It keys the result tier.
type Template struct {
	Text      string
	Parsed    any
	Version   uint64
	ResultKey string
	Shareable bool

	// Fingerprint is the canonical statement identity *without* the
	// parameter vector — the workload-digest and capture-log key. For
	// shareable statements it is the UNION-joined analyze.Canonical
	// fingerprint (the prefix of ResultKey); otherwise a hash of the
	// literal text. Params is the extracted constant vector in
	// fingerprint placeholder order (nil when not shareable).
	Fingerprint string
	Params      []value.Value

	bytes int64 // accounted footprint, derived included
	extra int64 // the derived-state share of bytes (ChargeTemplate)
	elem  *list.Element
}

// CachedResult is a materialized bounded answer. Rows are shared with
// past serves and must be treated as read-only by callers; patches
// never mutate a row in place — they append, or swap in freshly
// allocated rows — so a snapshot handed out under the cache lock stays
// valid. Steps carry the per-step execution statistics of the original
// run (kept patch-accurate for counters that are data-derived).
type CachedResult struct {
	Columns         []string
	Rows            []value.Row
	Bound           uint64
	ConstraintsUsed int
	TuplesFetched   int64
	Steps           []core.StepStat
	Plan            string
	Optimized       bool
}

// TableVersion is a base-table version observed before execution. Store
// admits the entry only if the table is still at that version and the
// cache has processed every mutation up to it.
type TableVersion struct {
	Table   *storage.Table
	Version uint64
}

// StepReg registers one executed fetch step for freshness tracking:
// which table it read, through which key attributes, and the exact
// encoded keys it probed (empty-bucket probes included — a later insert
// under a probed-but-empty key must invalidate). StatIdx is the step's
// index in CachedResult.Steps.
type StepReg struct {
	Table   *storage.Table
	Step    *core.PlanStep
	Keys    []string
	StatIdx int
}

// StoreRequest carries everything Store needs to admit one answer.
type StoreRequest struct {
	Key         string
	Result      *CachedResult
	Branches    int
	Query       *analyze.Query // first branch, for patch eligibility
	Plan        *core.Plan     // first branch's executed plan
	Steps       []StepReg
	Tables      []TableVersion
	OptimizerOn bool
}

// Counters is a point-in-time snapshot of the cache's statistics.
type Counters struct {
	TemplateHits    uint64
	TemplateMisses  uint64
	TemplateEntries int
	TemplateBytes   int64

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

// Cache is the unified query cache. The zero value is not usable; call
// New.
type Cache struct {
	mu sync.Mutex

	tmplCap   int64
	tmplBytes int64
	tmpl      map[string]*Template
	tmplLRU   *list.List // front = most recently used

	resOn    bool
	resCap   int64
	resBytes int64
	entries  map[string]*entry
	resLRU   *list.List

	tabs    map[*storage.Table]*tableState
	tabList []*tableState // attach order, for deterministic detach

	templateHits, templateMisses      uint64
	hits, misses                      uint64
	stores, storeRaces                uint64
	patches, invalidations, evictions uint64
}

type entry struct {
	key    string
	res    *CachedResult
	bytes  int64
	elem   *list.Element
	dead   bool
	tables []*storage.Table
	regs   []reg
	guards []boundGuard
	patch  *patchInfo
}

// boundGuard pins one plan step's constraint bound at admission time.
// Auto-widening index maintenance mutates Constraint.N in place without
// a catalog bump, and a widened N changes the deduced bound — and can
// change the greedy step order — of a fresh check. An entry whose guard
// no longer holds must not be served: its stored plan, bound and row
// order may differ from what execution would now produce.
type boundGuard struct {
	c   *access.Constraint
	idx *access.Index
	n   int
}

// holds reports whether the admission-time bound is still current. The
// unsynchronised read of C.N matches the checker's own access pattern.
func (g boundGuard) holds() bool {
	return g.c.N == g.n && (g.idx == nil || !g.idx.Invalid())
}

// reg is one freshness registration of an entry: fine-grained under a
// key of a sig index, or coarse (si == nil) on the whole table.
type reg struct {
	ts  *tableState
	si  *sigIndex
	key string
}

// sigIndex is the reverse index for one key-attribute signature of a
// table: encoded key -> entries that probed it.
type sigIndex struct {
	sig   string
	attrs []int
	byKey map[string][]*entry
}

// tableState tracks freshness for one observed table. applied is the
// highest version whose mutation has been folded into the cache;
// events may arrive out of version order (concurrent writers) and are
// buffered until contiguous.
type tableState struct {
	t       *storage.Table
	obs     *tableObserver
	applied uint64
	pending map[uint64]*mutation

	sigList []*sigIndex
	sigs    map[string]*sigIndex
	coarse  []*entry
}

// mutation mirrors one storage.VersionedObserver event.
type mutation struct {
	inserted value.Row
	deleted  []value.Row
}

// tableObserver adapts the cache to storage.VersionedObserver. Identity
// doubles as a generation check: events from an observer that is no
// longer the table's registered one (detached by a flush) are dropped.
type tableObserver struct {
	c *Cache
	t *storage.Table
}

// OnMutation implements storage.VersionedObserver.
func (o *tableObserver) OnMutation(version uint64, inserted value.Row, deleted []value.Row) {
	o.c.onMutation(o, version, inserted, deleted)
}

// New returns a cache with the given byte budgets (≤ 0 selects the
// default) and the result tier initially set to resultsOn.
func New(templateMaxBytes, resultMaxBytes int64, resultsOn bool) *Cache {
	if templateMaxBytes <= 0 {
		templateMaxBytes = DefaultTemplateMaxBytes
	}
	if resultMaxBytes <= 0 {
		resultMaxBytes = DefaultResultMaxBytes
	}
	return &Cache{
		tmplCap: templateMaxBytes,
		tmpl:    make(map[string]*Template),
		tmplLRU: list.New(),
		resOn:   resultsOn,
		resCap:  resultMaxBytes,
		entries: make(map[string]*entry),
		resLRU:  list.New(),
		tabs:    make(map[*storage.Table]*tableState),
	}
}

// ResultsEnabled reports whether the result tier is on.
func (c *Cache) ResultsEnabled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resOn
}

// SetResults toggles the result tier. Turning it off drops every
// stored answer and detaches the table observers.
func (c *Cache) SetResults(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.resOn == on {
		return
	}
	c.resOn = on
	if !on {
		c.flushResultsLocked()
	}
}

// SetLimits adjusts the byte budgets of both tiers (≤ 0 keeps the
// respective default) and evicts from the LRU tails until the live
// entries fit the new budgets.
func (c *Cache) SetLimits(templateMaxBytes, resultMaxBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if templateMaxBytes <= 0 {
		templateMaxBytes = DefaultTemplateMaxBytes
	}
	if resultMaxBytes <= 0 {
		resultMaxBytes = DefaultResultMaxBytes
	}
	c.tmplCap = templateMaxBytes
	c.resCap = resultMaxBytes
	c.evictTemplatesLocked()
	for c.resBytes > c.resCap && c.resLRU.Len() > 0 {
		c.evictions++
		c.dropEntryLocked(c.resLRU.Back().Value.(*entry))
	}
}

// GetTemplate returns the cached template for text if it was analyzed
// at catalogVersion. A stale-version entry is dropped and reported as a
// miss.
func (c *Cache) GetTemplate(text string, catalogVersion uint64) (*Template, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tmpl[text]
	if ok && t.Version == catalogVersion {
		c.tmplLRU.MoveToFront(t.elem)
		c.templateHits++
		return t, true
	}
	if ok {
		c.removeTemplateLocked(t)
	}
	c.templateMisses++
	return nil, false
}

// PutTemplate admits a template, evicting least-recently-used ones
// while the tier exceeds its byte budget.
func (c *Cache) PutTemplate(t *Template) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.tmpl[t.Text]; ok {
		c.removeTemplateLocked(old)
	}
	// The parsed form is opaque, so its footprint is estimated from the
	// text: analyzed ASTs in this engine run a small constant factor of
	// the statement length, plus fixed per-entry overhead.
	t.extra = 0
	t.bytes = int64(len(t.Text))*8 + int64(len(t.ResultKey)) + int64(len(t.Fingerprint)) + 24*int64(len(t.Params)) + 512
	if t.bytes > c.tmplCap {
		return
	}
	c.tmpl[t.Text] = t
	t.elem = c.tmplLRU.PushFront(t)
	c.tmplBytes += t.bytes
	c.evictTemplatesLocked()
}

// ChargeTemplate accounts extra bytes of derived state that the owner of
// t.Parsed hung off it after admission (the facade's prepared plan: a
// check verdict, plan steps and describe text run to several KB, far
// more than the text-based estimate covers), then evicts from the LRU
// tail while the tier is over budget. extra replaces any earlier charge,
// so re-charging after the state is rebuilt is idempotent. A template no
// longer in the tier is left alone; one that cannot fit at all is dropped.
func (c *Cache) ChargeTemplate(t *Template, extra int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.elem == nil {
		return
	}
	c.tmplBytes += extra - t.extra
	t.bytes += extra - t.extra
	t.extra = extra
	if t.bytes > c.tmplCap {
		c.removeTemplateLocked(t)
	}
	c.evictTemplatesLocked()
}

// evictTemplatesLocked drops least-recently-used templates until the
// tier fits its byte budget.
func (c *Cache) evictTemplatesLocked() {
	for c.tmplBytes > c.tmplCap && c.tmplLRU.Len() > 0 {
		c.removeTemplateLocked(c.tmplLRU.Back().Value.(*Template))
	}
}

func (c *Cache) removeTemplateLocked(t *Template) {
	delete(c.tmpl, t.Text)
	if t.elem != nil {
		c.tmplLRU.Remove(t.elem)
		t.elem = nil
	}
	c.tmplBytes -= t.bytes
}

// GetResult looks up a fresh answer under the canonical key. It
// returns a snapshot that is safe to read after the call: the row
// slice is capacity-capped (later append-patches cannot reach it) and
// the step stats are copied (later counter-patches cannot race).
func (c *Cache) GetResult(key string) (CachedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		return CachedResult{}, false
	}
	// Freshness: every observed table must have had all of its
	// mutations folded in. A gap means a mutation event is still in
	// flight; serving now could return a stale answer.
	for _, t := range e.tables {
		ts := c.tabs[t]
		if ts == nil || ts.applied != t.Version() {
			c.misses++
			return CachedResult{}, false
		}
	}
	for _, g := range e.guards {
		if !g.holds() {
			c.invalidations++
			c.dropEntryLocked(e)
			c.misses++
			return CachedResult{}, false
		}
	}
	c.resLRU.MoveToFront(e.elem)
	c.hits++
	snap := *e.res
	snap.Rows = e.res.Rows[:len(e.res.Rows):len(e.res.Rows)]
	snap.Steps = append([]core.StepStat(nil), e.res.Steps...)
	return snap, true
}

// Store admits one answer. It fails (returning false) when the result
// tier is off, when any base table moved past the pre-execution
// version — the executed answer may already be stale — or when the
// entry alone exceeds the byte budget.
func (c *Cache) Store(req *StoreRequest) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.resOn {
		return false
	}
	for _, tv := range req.Tables {
		ts := c.tabs[tv.Table]
		if ts == nil {
			ts = c.attachLocked(tv.Table)
		}
		if tv.Table.Version() != tv.Version || ts.applied != tv.Version {
			c.storeRaces++
			return false
		}
	}
	if old, ok := c.entries[req.Key]; ok {
		c.dropEntryLocked(old)
	}
	e := &entry{key: req.Key, res: req.Result}
	for _, tv := range req.Tables {
		e.tables = append(e.tables, tv.Table)
	}
	// The version re-check above proved no insert ran since the plan was
	// made, so each constraint's N read here is the N the plan was
	// deduced under.
	for _, sr := range req.Steps {
		e.guards = append(e.guards, boundGuard{
			c:   sr.Step.Constraint,
			idx: sr.Step.Index,
			n:   sr.Step.Constraint.N,
		})
	}
	e.patch = buildPatchInfo(req)
	e.bytes = entryBytes(req)
	if e.bytes > c.resCap {
		return false
	}
	for _, sr := range req.Steps {
		ts := c.tabs[sr.Table]
		if req.OptimizerOn || len(sr.Keys) > maxKeysPerStep {
			// Optimizer-on plans are statistics-sensitive: any mutation
			// of a read table can change the chosen step order (and with
			// it row order and per-step stats), so the entry must not
			// outlive one. Oversized key sets degrade the same way.
			e.patch = nil
			ts.coarse = append(ts.coarse, e)
			e.regs = append(e.regs, reg{ts: ts})
			continue
		}
		si := ts.sigFor(sr.Step.XAttrs)
		for _, k := range sr.Keys {
			si.byKey[k] = append(si.byKey[k], e)
			e.regs = append(e.regs, reg{ts: ts, si: si, key: k})
		}
	}
	c.entries[req.Key] = e
	e.elem = c.resLRU.PushFront(e)
	c.resBytes += e.bytes
	c.stores++
	for c.resBytes > c.resCap {
		back := c.resLRU.Back()
		if back == nil {
			break
		}
		c.evictions++
		c.dropEntryLocked(back.Value.(*entry))
	}
	return true
}

// sigFor returns (creating on demand) the table's reverse index for
// one key-attribute signature.
func (ts *tableState) sigFor(attrs []int) *sigIndex {
	sig := fmt.Sprint(attrs)
	if ts.sigs == nil {
		ts.sigs = make(map[string]*sigIndex)
	}
	if si, ok := ts.sigs[sig]; ok {
		return si
	}
	si := &sigIndex{sig: sig, attrs: attrs, byKey: make(map[string][]*entry)}
	ts.sigs[sig] = si
	ts.sigList = append(ts.sigList, si)
	return si
}

// attachLocked subscribes the cache to a table's mutations. The version
// returned by ObserveVersioned is read atomically under the table lock,
// so applied starts exactly at the last version whose event will never
// be delivered to this observer.
func (c *Cache) attachLocked(t *storage.Table) *tableState {
	obs := &tableObserver{c: c, t: t}
	v := t.ObserveVersioned(obs)
	ts := &tableState{t: t, obs: obs, applied: v}
	c.tabs[t] = ts
	c.tabList = append(c.tabList, ts)
	return ts
}

// onMutation folds one storage event into the cache. Events apply only
// in contiguous version order; out-of-order arrivals (two racing
// writers) are buffered.
func (c *Cache) onMutation(o *tableObserver, version uint64, inserted value.Row, deleted []value.Row) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ts := c.tabs[o.t]
	if ts == nil || ts.obs != o {
		return // stale generation: detached by a flush
	}
	if version <= ts.applied {
		return
	}
	m := &mutation{inserted: inserted, deleted: deleted}
	if version != ts.applied+1 {
		if ts.pending == nil {
			ts.pending = make(map[uint64]*mutation)
		}
		ts.pending[version] = m
		return
	}
	c.applyEventLocked(ts, version, m)
	for {
		next, ok := ts.pending[ts.applied+1]
		if !ok {
			break
		}
		delete(ts.pending, ts.applied+1)
		c.applyEventLocked(ts, ts.applied+1, next)
	}
}

// applyEventLocked advances one table version: it finds the entries
// whose recorded key sets the mutated rows hit (plus coarse
// subscribers), patches the ones that admit an exact incremental
// update, and invalidates the rest. Key-disjoint mutations touch no
// entry at all.
func (c *Cache) applyEventLocked(ts *tableState, version uint64, m *mutation) {
	var affected []*entry
	seen := make(map[*entry]bool)
	add := func(es []*entry) {
		for _, e := range es {
			if !e.dead && !seen[e] {
				seen[e] = true
				affected = append(affected, e)
			}
		}
	}
	var kb []byte
	for _, si := range ts.sigList {
		if m.inserted != nil {
			kb = value.AppendRowKey(kb[:0], m.inserted, si.attrs)
			add(si.byKey[string(kb)])
		}
		for _, dr := range m.deleted {
			kb = value.AppendRowKey(kb[:0], dr, si.attrs)
			add(si.byKey[string(kb)])
		}
	}
	add(ts.coarse)
	if len(affected) > 0 {
		// A patch replays the mutation against the live index state, so
		// it is exact only when the table has not moved past this event.
		current := ts.t.Version() == version
		for _, e := range affected {
			if current && e.patch != nil && c.tryPatch(e, m) {
				c.patches++
				continue
			}
			c.invalidations++
			c.dropEntryLocked(e)
		}
	}
	ts.applied = version
	// Bag patches append rows; trim back to budget afterwards rather
	// than evicting mid-iteration.
	for c.resBytes > c.resCap {
		back := c.resLRU.Back()
		if back == nil {
			break
		}
		c.evictions++
		c.dropEntryLocked(back.Value.(*entry))
	}
}

// dropEntryLocked removes an entry from the map, the LRU list, the
// byte account and every freshness registration.
func (c *Cache) dropEntryLocked(e *entry) {
	if e.dead {
		return
	}
	e.dead = true
	delete(c.entries, e.key)
	if e.elem != nil {
		c.resLRU.Remove(e.elem)
		e.elem = nil
	}
	c.resBytes -= e.bytes
	for _, r := range e.regs {
		if r.si == nil {
			r.ts.coarse = removeEntry(r.ts.coarse, e)
			continue
		}
		es := removeEntry(r.si.byKey[r.key], e)
		if len(es) == 0 {
			delete(r.si.byKey, r.key)
		} else {
			r.si.byKey[r.key] = es
		}
	}
	e.regs = nil
}

func removeEntry(es []*entry, e *entry) []*entry {
	for i, x := range es {
		if x == e {
			return append(es[:i], es[i+1:]...)
		}
	}
	return es
}

// FlushAll empties both tiers and detaches every table observer. The
// facade calls it on any catalog change (DDL, constraint registration,
// Retighten): templates embed resolved schema state and answers embed
// constraint indexes, so neither survives.
func (c *Cache) FlushAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.tmplLRU.Front(); el != nil; {
		next := el.Next()
		c.removeTemplateLocked(el.Value.(*Template))
		el = next
	}
	c.flushResultsLocked()
}

// FlushResults empties the result tier only (execution-knob changes:
// the template analysis stays valid).
func (c *Cache) FlushResults() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushResultsLocked()
}

func (c *Cache) flushResultsLocked() {
	// Walk the LRU list, not the entry map: the flush order (and with
	// it every counter and observer interaction) stays deterministic.
	for el := c.resLRU.Front(); el != nil; {
		next := el.Next()
		c.invalidations++
		c.dropEntryLocked(el.Value.(*entry))
		el = next
	}
	for _, ts := range c.tabList {
		ts.t.UnobserveVersioned(ts.obs)
		ts.obs = nil
	}
	c.tabList = nil
	c.tabs = make(map[*storage.Table]*tableState)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Counters{
		TemplateHits:    c.templateHits,
		TemplateMisses:  c.templateMisses,
		TemplateEntries: len(c.tmpl),
		TemplateBytes:   c.tmplBytes,
		Hits:            c.hits,
		Misses:          c.misses,
		Stores:          c.stores,
		StoreRaces:      c.storeRaces,
		Patches:         c.patches,
		Invalidations:   c.invalidations,
		Evictions:       c.evictions,
		Entries:         len(c.entries),
		Bytes:           c.resBytes,
	}
}

// resultKeysLRU lists the result-tier keys from most to least recently
// used. Test hook.
func (c *Cache) resultKeysLRU() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []string
	for el := c.resLRU.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry).key)
	}
	return keys
}

// entryBytes estimates the retained footprint of one answer.
func entryBytes(req *StoreRequest) int64 {
	b := int64(len(req.Key)) + 512
	b += int64(len(req.Result.Plan))
	for _, col := range req.Result.Columns {
		b += int64(len(col)) + 16
	}
	for _, r := range req.Result.Rows {
		b += rowBytes(r)
	}
	b += int64(len(req.Result.Steps)) * 128
	for _, sr := range req.Steps {
		for _, k := range sr.Keys {
			b += int64(len(k)) + 48
		}
	}
	return b
}

func rowBytes(r value.Row) int64 {
	b := int64(24)
	for _, v := range r {
		b += 40 + int64(len(v.S))
	}
	return b
}
