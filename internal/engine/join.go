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
	var post []analyze.Expr
	for ci, c := range q.Conjuncts {
		if applied[ci] {
			continue
		}
		if merged.hasAtoms(c.Refs) {
			post = append(post, c.Expr)
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
		probe: left.cit,
		build: right.cit,
		lKeys: lKeys,
		rKeys: rKeys,
		width: len(cols),
		batch: e.batch,
		tr:    tr,
	}
	if len(post) > 0 {
		base.post = analyze.CompileFilters(post, merged.layout)
	}
	if swap {
		base.probe, base.build = right.cit, left.cit
		base.lKeys, base.rKeys = rKeys, lKeys
		base.swapped = true
	}
	switch algo {
	case HashJoin:
		base.keyed = true
		merged.cit = &hashJoinOp{joinBase: base}
	case SortMergeJoin:
		merged.cit = &sortMergeJoinOp{joinBase: base}
	default:
		merged.cit = &nestedLoopJoinOp{joinBase: base}
	}
	return merged, nil
}

// joinBase is what every physical join operator shares: the streamed
// probe input (the accumulated join chain), the build input (the unit
// being joined in), the equi-join key slots on each side, and the
// conjuncts that become evaluable on the concatenated row.
type joinBase struct {
	probe, build iter.ColIterator
	lKeys, rKeys []int              // key slots in probe rows (lKeys) and build rows (rKeys)
	post         *analyze.VecFilter // post-join conjuncts over the merged layout; nil if none
	width        int                // merged row width
	batch        int                // output batch row capacity
	tr           *opTracker
	// swapped marks a stats-driven build-side swap: probe rows are then
	// the plan's RIGHT side, so emit concatenates build-row first to
	// keep the merged layout (left cols ++ right cols) intact.
	swapped bool
	// keyed asks nextProbe to encode each probe batch's lKeys into
	// keyBufs (the hash join looks probe rows up by encoded key).
	keyed bool

	pb      iter.ColBatch // current probe batch
	ppos    int           // next live-row index in pb
	pdone   bool
	cand    iter.ColBatch // candidate rows awaiting the post-join filter
	keyBufs [][]byte      // encoded keys per physical row of the last encoded batch
	prow    value.Row     // probe row being joined, read from pb
	row     value.Row     // output row under construction, copied per emission
}

func (j *joinBase) Open() error {
	j.row = make(value.Row, j.width)
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

// next is every join's NextCols. fill appends concatenated rows to a
// batch while it holds fewer than limit rows, and appends none once the
// join is exhausted. Without post-join conjuncts it fills the output
// batch directly.
func (j *joinBase) next(out *iter.ColBatch, fill func(b *iter.ColBatch, limit int) error) (bool, error) {
	t0 := time.Now()
	defer func() { j.tr.dur += time.Since(t0) }()
	out.Reset(j.width)
	var err error
	if j.post == nil {
		err = fill(out, j.batch)
	} else {
		err = j.fillFiltered(out, fill)
	}
	if err != nil {
		return false, err
	}
	n := out.Rows()
	j.tr.rowsOut += int64(n)
	return n > 0, nil
}

// fillFiltered fills and filters candidates in a side batch and copies
// the survivors to out, until out holds a full batch of surviving rows
// or the join is exhausted. The join thus consumes exactly as much input
// per output batch as it would filtering row by row, and a LIMIT above
// stops its inputs at the same point.
func (j *joinBase) fillFiltered(out *iter.ColBatch, fill func(b *iter.ColBatch, limit int) error) error {
	for out.Rows() < j.batch {
		j.cand.Reset(j.width)
		if err := fill(&j.cand, j.batch-out.Rows()); err != nil {
			return err
		}
		if j.cand.Rows() == 0 {
			return nil
		}
		if err := j.post.Apply(&j.cand); err != nil {
			return err
		}
		for i, n := 0, j.cand.Len(); i < n; i++ {
			p := j.cand.Index(i)
			j.cand.ReadRow(p, j.row)
			out.AppendRow(j.row, j.cand.Weight(p))
		}
	}
	return nil
}

// nextProbe returns the physical index in pb of the next live probe row,
// pulling a fresh batch when the current one is exhausted; ok=false
// means the probe side is done (idempotently, so operators may keep
// asking).
func (j *joinBase) nextProbe() (int, bool, error) {
	for j.ppos >= j.pb.Len() {
		if j.pdone {
			return 0, false, nil
		}
		ok, err := j.probe.NextCols(&j.pb)
		if err != nil || !ok {
			j.pdone = true
			return 0, false, err
		}
		j.tr.rowsIn += int64(j.pb.Len())
		j.ppos = 0
		if len(j.prow) != j.pb.Width() {
			j.prow = make(value.Row, j.pb.Width())
		}
		if j.keyed {
			j.encodeKeys(&j.pb, j.lKeys)
		}
	}
	p := j.pb.Index(j.ppos)
	j.ppos++
	return p, true, nil
}

// encodeKeys fills j.keyBufs with the encoded key of every physical row
// of cb, column-at-a-time.
func (j *joinBase) encodeKeys(cb *iter.ColBatch, keys []int) {
	np := cb.Rows()
	for len(j.keyBufs) < np {
		j.keyBufs = append(j.keyBufs, nil)
	}
	for i := 0; i < np; i++ {
		j.keyBufs[i] = j.keyBufs[i][:0]
	}
	cb.AppendRowKeys(keys, j.keyBufs)
}

// emit appends the concatenation of the probe row pr and build row br
// with bag weight w to out. The layout's left part always comes first,
// whichever side was built.
func (j *joinBase) emit(out *iter.ColBatch, pr, br value.Row, w int64) {
	lr, rr := pr, br
	if j.swapped {
		lr, rr = br, pr
	}
	n := copy(j.row, lr)
	copy(j.row[n:], rr)
	out.AppendRow(j.row, w)
}

// drain materialises every live row of it with its weight; keys, when
// non-nil, also encodes each row's key, and rows with a NULL key — which
// never match — are dropped. Rows are counted as the operator's input.
func (j *joinBase) drain(it iter.ColIterator, keys []int, fn func(key []byte, row value.Row, w int64)) error {
	var cb iter.ColBatch
	for {
		ok, err := it.NextCols(&cb)
		if err != nil || !ok {
			return err
		}
		j.tr.rowsIn += int64(cb.Len())
		if keys != nil {
			j.encodeKeys(&cb, keys)
		}
		for i, n := 0, cb.Len(); i < n; i++ {
			p := cb.Index(i)
			var key []byte
			if keys != nil {
				if colKeyHasNull(&cb, keys, p) {
					continue // NULL keys never match
				}
				key = j.keyBufs[p]
			}
			row := make(value.Row, cb.Width())
			cb.ReadRow(p, row)
			fn(key, row, cb.Weight(p))
		}
	}
}

// joinBucket is one equal-key group of build rows with their weights.
type joinBucket struct {
	rows    []value.Row
	weights []int64
}

// hashJoinOp materialises only its build side as a hash table (on the
// first pull, so planning stays free) and streams the probe side through
// it, one batch at a time: a probe batch's keys encode column-at-a-time
// and only rows whose key hits a bucket are read out of the vectors.
type hashJoinOp struct {
	joinBase
	table map[string]*joinBucket
}

func (h *hashJoinOp) NextCols(out *iter.ColBatch) (bool, error) {
	return h.next(out, h.fill)
}

func (h *hashJoinOp) fill(out *iter.ColBatch, limit int) error {
	if h.table == nil {
		h.table = make(map[string]*joinBucket)
		err := h.drain(h.build, h.rKeys, func(key []byte, row value.Row, w int64) {
			bk, ok := h.table[string(key)]
			if !ok {
				bk = &joinBucket{}
				h.table[string(key)] = bk
			}
			bk.rows = append(bk.rows, row)
			bk.weights = append(bk.weights, w)
		})
		if err != nil {
			return err
		}
	}
	for out.Rows() < limit {
		p, ok, err := h.nextProbe()
		if err != nil || !ok {
			return err
		}
		if colKeyHasNull(&h.pb, h.lKeys, p) {
			continue
		}
		bk := h.table[string(h.keyBufs[p])]
		if bk == nil {
			continue
		}
		h.pb.ReadRow(p, h.prow)
		pw := h.pb.Weight(p)
		for i, br := range bk.rows {
			h.emit(out, h.prow, br, pw*bk.weights[i])
		}
	}
	return nil
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

func (s *sortMergeJoinOp) drainKeyed(it iter.ColIterator, keys []int) ([]keyedRow, error) {
	var out []keyedRow
	err := s.drain(it, keys, func(key []byte, row value.Row, w int64) {
		out = append(out, keyedRow{key: string(key), row: row, w: w})
	})
	sort.SliceStable(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out, err
}

func (s *sortMergeJoinOp) NextCols(out *iter.ColBatch) (bool, error) {
	return s.next(out, s.fill)
}

func (s *sortMergeJoinOp) fill(out *iter.ColBatch, limit int) error {
	if !s.prepared {
		var err error
		if s.ls, err = s.drainKeyed(s.probe, s.lKeys); err != nil {
			return err
		}
		if s.rs, err = s.drainKeyed(s.build, s.rKeys); err != nil {
			return err
		}
		s.prepared = true
	}
	for out.Rows() < limit {
		if s.inRun {
			s.emit(out, s.ls[s.la].row, s.rs[s.ra].row, s.ls[s.la].w*s.rs[s.ra].w)
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
	return nil
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
	curW    int64 // weight of the probe row in prow being expanded
	bi      int   // next build row for it
	haveCur bool
}

func (n *nestedLoopJoinOp) NextCols(out *iter.ColBatch) (bool, error) {
	return n.next(out, n.fill)
}

func (n *nestedLoopJoinOp) fill(out *iter.ColBatch, limit int) error {
	if !n.built {
		err := n.drain(n.build, nil, func(_ []byte, row value.Row, w int64) {
			n.brows = append(n.brows, row)
			n.bw = append(n.bw, w)
		})
		if err != nil {
			return err
		}
		n.built = true
	}
	for out.Rows() < limit {
		if !n.haveCur {
			p, ok, err := n.nextProbe()
			if err != nil || !ok {
				return err
			}
			n.pb.ReadRow(p, n.prow)
			n.curW, n.bi, n.haveCur = n.pb.Weight(p), 0, true
		}
		for n.bi < len(n.brows) && out.Rows() < limit {
			br, bw := n.brows[n.bi], n.bw[n.bi]
			n.bi++
			match := true
			for k := range n.lKeys {
				lv, rv := n.prow[n.lKeys[k]], br[n.rKeys[k]]
				if lv.IsNull() || rv.IsNull() || !value.Equal(lv, rv) {
					match = false
					break
				}
			}
			if match {
				n.emit(out, n.prow, br, n.curW*bw)
			}
		}
		if n.bi >= len(n.brows) {
			n.haveCur = false
		}
	}
	return nil
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
