package engine

import (
	"fmt"
	"sort"
	"time"

	"github.com/bounded-eval/beas/internal/analyze"
	"github.com/bounded-eval/beas/internal/iter"
	"github.com/bounded-eval/beas/internal/value"
)

// join wires left and right into a streaming join operator using the
// profile's algorithm, applying every conjunct that becomes fully
// contained in the merged unit. The accumulated left chain is the probe
// side and streams batch-at-a-time; only the right side (one base
// relation in a left-deep plan) is materialised by the operator.
func (e *Engine) join(q *analyze.Query, left, right *unit, applied []bool, trackers *[]*opTracker) (*unit, error) {
	// Equi-join keys: unapplied a = b conjuncts with one side in each
	// unit.
	var lKeys, rKeys []int // slots
	var keyConjuncts []int
	for ci, c := range q.Conjuncts {
		if applied[ci] || c.Kind != analyze.EqAttrAttr {
			continue
		}
		ls, lok := left.layout.Slot(c.A)
		rs, rok := right.layout.Slot(c.B)
		if lok && rok {
			lKeys = append(lKeys, ls)
			rKeys = append(rKeys, rs)
			keyConjuncts = append(keyConjuncts, ci)
			continue
		}
		ls, lok = left.layout.Slot(c.B)
		rs, rok = right.layout.Slot(c.A)
		if lok && rok {
			lKeys = append(lKeys, ls)
			rKeys = append(rKeys, rs)
			keyConjuncts = append(keyConjuncts, ci)
		}
	}
	for _, ci := range keyConjuncts {
		applied[ci] = true
	}

	// The merged estimate uses the same per-conjunct selectivity model as
	// join ordering (NDV-based with statistics, 0.01 without), so the
	// build-side choice below and the EXPLAIN EstRows agree with the
	// estimates the planner ordered by.
	est := left.est * right.est
	for _, ci := range keyConjuncts {
		est *= e.equiSelectivity(q, q.Conjuncts[ci])
	}
	if est < 1 {
		est = 1
	}
	cols := append(append([]analyze.ColID{}, left.cols...), right.cols...)
	merged := newUnit(left.name+" ⋈ "+right.name, nil, cols, nil, est)
	for a := range left.atoms {
		merged.atoms[a] = true
	}
	for a := range right.atoms {
		merged.atoms[a] = true
	}

	// Post-join filters: conjuncts now fully contained in the merged unit
	// (non-equi cross predicates, opaque predicates, ...).
	var post []analyze.Conjunct
	for ci, c := range q.Conjuncts {
		if applied[ci] {
			continue
		}
		if merged.hasAtoms(c.Refs) {
			post = append(post, c)
			applied[ci] = true
		}
	}

	algo := e.prof.Join
	if len(lKeys) == 0 {
		algo = NestedLoopJoin // cross product
	}
	// Build-side choice: the serial hash join always materialises the
	// right (new) unit. With statistics, build on whichever side is
	// estimated smaller — the output rows still concatenate left-first,
	// so the plan's layout and result bag are unchanged.
	swap := e.stats != nil && algo == HashJoin && left.est < right.est
	opName := fmt.Sprintf("%s %s ⋈ %s", algo, left.name, right.name)
	if swap {
		opName += " (build=left)"
	}
	tr := &opTracker{op: opName, est: est}
	*trackers = append(*trackers, tr)
	base := joinBase{
		probe:  left.it,
		build:  right.it,
		lKeys:  lKeys,
		rKeys:  rKeys,
		post:   post,
		layout: merged.layout,
		tr:     tr,
	}
	if swap {
		base.probe, base.build = right.it, left.it
		base.lKeys, base.rKeys = rKeys, lKeys
		base.swapped = true
	}
	switch algo {
	case HashJoin:
		h := &hashJoinOp{joinBase: base}
		// Columnar sides, when the units expose them: build keys encode
		// column-at-a-time and probe rows materialise only on a bucket
		// hit. Open/Close stay on the row views, which share the
		// underlying operators.
		pu, bu := left, right
		if swap {
			pu, bu = right, left
		}
		h.cprobe, h.cbuild = pu.cit, bu.cit
		merged.it = h
	case SortMergeJoin:
		merged.it = &sortMergeJoinOp{joinBase: base}
	default:
		merged.it = &nestedLoopJoinOp{joinBase: base}
	}
	return merged, nil
}

// joinBase is what every physical join operator shares: the streamed
// probe input (the accumulated join chain), the build input (the unit
// being joined in), the equi-join key slots on each side, and the
// conjuncts that become evaluable on the concatenated row.
type joinBase struct {
	probe, build iter.Iterator
	lKeys, rKeys []int // key slots in probe rows (lKeys) and build rows (rKeys)
	post         []analyze.Conjunct
	layout       *analyze.Layout
	tr           *opTracker
	// swapped marks a stats-driven build-side swap: probe rows are then
	// the plan's RIGHT side, so emit concatenates build-row first to
	// keep the merged layout (left cols ++ right cols) intact.
	swapped bool

	pbuf  iter.Batch // current probe batch
	ppos  int
	pdone bool
}

func (j *joinBase) Open() error {
	if err := j.probe.Open(); err != nil {
		return err
	}
	return j.build.Open()
}

func (j *joinBase) Close() error {
	err := j.probe.Close()
	if err2 := j.build.Close(); err == nil {
		err = err2
	}
	return err
}

// nextProbe returns the next probe row and its weight, pulling a fresh
// batch when the current one is exhausted; ok=false means the probe side
// is done (idempotently, so operators may keep asking).
func (j *joinBase) nextProbe() (value.Row, int64, bool, error) {
	if j.pdone {
		return nil, 0, false, nil
	}
	for j.ppos >= j.pbuf.Len() {
		ok, err := j.probe.Next(&j.pbuf)
		if err != nil || !ok {
			j.pdone = true
			return nil, 0, false, err
		}
		j.tr.rowsIn += int64(j.pbuf.Len())
		j.ppos = 0
	}
	r, w := j.pbuf.Rows[j.ppos], j.pbuf.Weight(j.ppos)
	j.ppos++
	return r, w, true, nil
}

// emit appends the concatenation of the probe row pr and build row br
// with bag weight w to out, unless a post-join filter rejects it. The
// layout's left part always comes first, whichever side was built.
func (j *joinBase) emit(out *iter.Batch, pr, br value.Row, w int64) error {
	lr, rr := pr, br
	if j.swapped {
		lr, rr = br, pr
	}
	row := make(value.Row, 0, len(lr)+len(rr))
	row = append(row, lr...)
	row = append(row, rr...)
	for _, f := range j.post {
		ok, err := analyze.EvalBool(f.Expr, row, j.layout)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
	out.Append(row, w)
	return nil
}

// joinBucket is one equal-key group of build rows with their weights.
type joinBucket struct {
	rows    []value.Row
	weights []int64
}

// hashJoinOp materialises only its build side as a hash table (on the
// first pull, so planning stays free) and streams the probe side through
// it, one batch at a time.
type hashJoinOp struct {
	joinBase
	table map[string]*joinBucket
	built bool
	key   []byte

	// cprobe/cbuild, when non-nil, are columnar views of the same
	// operators as probe/build (Open/Close still go through the row
	// views, which delegate to the shared operator). The build drains
	// batches with column-at-a-time key encoding; the probe materialises
	// a row only when its key hits a bucket.
	cprobe, cbuild iter.ColIterator
	cpb            iter.ColBatch
	cpos           int // next live-row index in cpb
	keyBufs        [][]byte
	pscratch       value.Row
}

func (h *hashJoinOp) buildTable() error {
	h.table = make(map[string]*joinBucket)
	if h.cbuild != nil {
		return h.buildTableCols()
	}
	var b iter.Batch
	for {
		ok, err := h.build.Next(&b)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		h.tr.rowsIn += int64(b.Len())
		for i, r := range b.Rows {
			if rowKeyHasNull(r, h.rKeys) {
				continue // NULL keys never match
			}
			h.key = value.AppendRowKey(h.key[:0], r, h.rKeys)
			bk, ok := h.table[string(h.key)]
			if !ok {
				bk = &joinBucket{}
				h.table[string(h.key)] = bk
			}
			bk.rows = append(bk.rows, r)
			bk.weights = append(bk.weights, b.Weight(i))
		}
	}
}

// buildTableCols drains the columnar build side: join keys for a whole
// batch encode column-at-a-time, and each kept row materialises fresh
// from the vectors (bucket rows outlive the batch).
func (h *hashJoinOp) buildTableCols() error {
	var cb iter.ColBatch
	for {
		ok, err := h.cbuild.NextCols(&cb)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		h.tr.rowsIn += int64(cb.Len())
		h.encodeKeys(&cb, h.rKeys)
		n := cb.Len()
		for i := 0; i < n; i++ {
			p := cb.Index(i)
			if colKeyHasNull(&cb, h.rKeys, p) {
				continue // NULL keys never match
			}
			bk, ok := h.table[string(h.keyBufs[p])]
			if !ok {
				bk = &joinBucket{}
				h.table[string(h.keyBufs[p])] = bk
			}
			row := make(value.Row, cb.Width())
			cb.ReadRow(p, row)
			bk.rows = append(bk.rows, row)
			bk.weights = append(bk.weights, cb.Weight(p))
		}
	}
}

// encodeKeys fills h.keyBufs with the encoded key of every physical row
// of cb, column-at-a-time.
func (h *hashJoinOp) encodeKeys(cb *iter.ColBatch, keys []int) {
	np := cb.Rows()
	for len(h.keyBufs) < np {
		h.keyBufs = append(h.keyBufs, nil)
	}
	for i := 0; i < np; i++ {
		h.keyBufs[i] = h.keyBufs[i][:0]
	}
	cb.AppendRowKeys(keys, h.keyBufs)
}

func (h *hashJoinOp) Next(out *iter.Batch) (bool, error) {
	t0 := time.Now()
	defer func() { h.tr.dur += time.Since(t0) }()
	if !h.built {
		if err := h.buildTable(); err != nil {
			return false, err
		}
		h.built = true
	}
	if h.cprobe != nil {
		return h.nextCols(out)
	}
	out.Reset()
	for out.Len() < iter.BatchSize {
		pr, pw, ok, err := h.nextProbe()
		if err != nil {
			return false, err
		}
		if !ok {
			break
		}
		if rowKeyHasNull(pr, h.lKeys) {
			continue
		}
		h.key = value.AppendRowKey(h.key[:0], pr, h.lKeys)
		bk := h.table[string(h.key)]
		if bk == nil {
			continue
		}
		for i, br := range bk.rows {
			if err := h.emit(out, pr, br, pw*bk.weights[i]); err != nil {
				return false, err
			}
		}
	}
	h.tr.rowsOut += int64(out.Len())
	return out.Len() > 0, nil
}

// nextCols probes with columnar batches: a batch's keys encode in one
// pass and only rows whose key hits a bucket materialise (into a scratch
// row — emit copies into the fresh output row).
func (h *hashJoinOp) nextCols(out *iter.Batch) (bool, error) {
	out.Reset()
	for out.Len() < iter.BatchSize {
		if h.cpos >= h.cpb.Len() {
			if h.pdone {
				break
			}
			ok, err := h.cprobe.NextCols(&h.cpb)
			if err != nil {
				return false, err
			}
			if !ok {
				h.pdone = true
				break
			}
			h.tr.rowsIn += int64(h.cpb.Len())
			h.encodeKeys(&h.cpb, h.lKeys)
			h.cpos = 0
		}
		p := h.cpb.Index(h.cpos)
		h.cpos++
		if colKeyHasNull(&h.cpb, h.lKeys, p) {
			continue
		}
		bk := h.table[string(h.keyBufs[p])]
		if bk == nil {
			continue
		}
		if h.pscratch == nil {
			h.pscratch = make(value.Row, h.cpb.Width())
		}
		h.cpb.ReadRow(p, h.pscratch)
		pw := h.cpb.Weight(p)
		for i, br := range bk.rows {
			if err := h.emit(out, h.pscratch, br, pw*bk.weights[i]); err != nil {
				return false, err
			}
		}
	}
	h.tr.rowsOut += int64(out.Len())
	return out.Len() > 0, nil
}

// keyedRow is a row tagged with its encoded join key and bag weight.
type keyedRow struct {
	key string
	row value.Row
	w   int64
}

// sortMergeJoinOp is inherently blocking on both inputs: it drains and
// sorts them on the encoded key on the first pull, then streams the
// merged equal-key runs batch-at-a-time (the cross product of a run is
// resumable, so one pull never emits more than about a batch).
type sortMergeJoinOp struct {
	joinBase
	ls, rs   []keyedRow
	prepared bool
	li, ri   int // merge positions
	le, re   int // current equal-key run end (valid while inRun)
	la, ra   int // cross-product cursor within the run
	inRun    bool
}

func (s *sortMergeJoinOp) drainKeyed(it iter.Iterator, keys []int) ([]keyedRow, error) {
	var out []keyedRow
	var b iter.Batch
	var kb []byte
	for {
		ok, err := it.Next(&b)
		if err != nil {
			return nil, err
		}
		if !ok {
			sort.SliceStable(out, func(i, j int) bool { return out[i].key < out[j].key })
			return out, nil
		}
		s.tr.rowsIn += int64(b.Len())
		for i, r := range b.Rows {
			if rowKeyHasNull(r, keys) {
				continue
			}
			kb = value.AppendRowKey(kb[:0], r, keys)
			out = append(out, keyedRow{key: string(kb), row: r, w: b.Weight(i)})
		}
	}
}

func (s *sortMergeJoinOp) Next(out *iter.Batch) (bool, error) {
	t0 := time.Now()
	defer func() { s.tr.dur += time.Since(t0) }()
	if !s.prepared {
		var err error
		if s.ls, err = s.drainKeyed(s.probe, s.lKeys); err != nil {
			return false, err
		}
		if s.rs, err = s.drainKeyed(s.build, s.rKeys); err != nil {
			return false, err
		}
		s.prepared = true
	}
	out.Reset()
	for out.Len() < iter.BatchSize {
		if s.inRun {
			if err := s.emit(out, s.ls[s.la].row, s.rs[s.ra].row, s.ls[s.la].w*s.rs[s.ra].w); err != nil {
				return false, err
			}
			s.ra++
			if s.ra >= s.re {
				s.ra = s.ri
				s.la++
			}
			if s.la >= s.le {
				s.inRun = false
				s.li, s.ri = s.le, s.re
			}
			continue
		}
		if s.li >= len(s.ls) || s.ri >= len(s.rs) {
			break
		}
		switch {
		case s.ls[s.li].key < s.rs[s.ri].key:
			s.li++
		case s.ls[s.li].key > s.rs[s.ri].key:
			s.ri++
		default:
			// Found an equal-key run on both sides.
			s.le = s.li
			for s.le < len(s.ls) && s.ls[s.le].key == s.ls[s.li].key {
				s.le++
			}
			s.re = s.ri
			for s.re < len(s.rs) && s.rs[s.re].key == s.rs[s.ri].key {
				s.re++
			}
			s.la, s.ra = s.li, s.ri
			s.inRun = true
		}
	}
	s.tr.rowsOut += int64(out.Len())
	return out.Len() > 0, nil
}

// nestedLoopJoinOp materialises the build side and streams the probe
// side, comparing every pair; it serves cross products and the explicit
// NestedLoopJoin profile algorithm. The inner loop is resumable so one
// pull emits about a batch.
type nestedLoopJoinOp struct {
	joinBase
	brows   []value.Row
	bw      []int64
	built   bool
	cur     value.Row // probe row currently being expanded
	curW    int64
	bi      int // next build row for cur
	haveCur bool
}

func (n *nestedLoopJoinOp) buildSide() error {
	var b iter.Batch
	for {
		ok, err := n.build.Next(&b)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		n.tr.rowsIn += int64(b.Len())
		for i, r := range b.Rows {
			n.brows = append(n.brows, r)
			n.bw = append(n.bw, b.Weight(i))
		}
	}
}

func (n *nestedLoopJoinOp) Next(out *iter.Batch) (bool, error) {
	t0 := time.Now()
	defer func() { n.tr.dur += time.Since(t0) }()
	if !n.built {
		if err := n.buildSide(); err != nil {
			return false, err
		}
		n.built = true
	}
	out.Reset()
	for out.Len() < iter.BatchSize {
		if !n.haveCur {
			pr, pw, ok, err := n.nextProbe()
			if err != nil {
				return false, err
			}
			if !ok {
				break
			}
			n.cur, n.curW, n.bi, n.haveCur = pr, pw, 0, true
		}
		for n.bi < len(n.brows) && out.Len() < iter.BatchSize {
			br, bw := n.brows[n.bi], n.bw[n.bi]
			n.bi++
			match := true
			for k := range n.lKeys {
				lv, rv := n.cur[n.lKeys[k]], br[n.rKeys[k]]
				if lv.IsNull() || rv.IsNull() || !value.Equal(lv, rv) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			if err := n.emit(out, n.cur, br, n.curW*bw); err != nil {
				return false, err
			}
		}
		if n.bi >= len(n.brows) {
			n.haveCur = false
		}
	}
	n.tr.rowsOut += int64(out.Len())
	return out.Len() > 0, nil
}

func rowKeyHasNull(r value.Row, keys []int) bool {
	for _, k := range keys {
		if r[k].IsNull() {
			return true
		}
	}
	return false
}

// colKeyHasNull reports whether physical row p of cb has a NULL in any
// key column. It reads through Value, which is correct for boxed columns
// whose null bitmap is stale after a kind migration.
func colKeyHasNull(cb *iter.ColBatch, keys []int, p int) bool {
	for _, k := range keys {
		if cb.Col(k).Value(p).IsNull() {
			return true
		}
	}
	return false
}
