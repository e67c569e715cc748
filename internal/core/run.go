package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/bounded-eval/beas/internal/analyze"
	"github.com/bounded-eval/beas/internal/exec"
	"github.com/bounded-eval/beas/internal/iter"
	"github.com/bounded-eval/beas/internal/value"
)

// StepStat records what one fetch step actually did, feeding the
// performance analyser of the demo (Fig. 3: per-operation breakdown).
// With streaming execution the counters reflect the work the step was
// actually pulled for — a LIMIT that stops the pipeline early leaves
// later steps with less (or zero) work recorded.
type StepStat struct {
	Atom        string
	Constraint  string
	DistinctKey int64 // distinct keys probed (each probed once, memoised)
	Fetched     int64 // partial tuples fetched (Σ bucket sizes over keys): |D_Q| share
	RowsOut     int64 // intermediate rows after join + filters
	Duration    time.Duration

	// KeyBound / OutBound are the step's a-priori worst-case bounds;
	// EstKeys / EstFetched / EstRows the optimizer's statistics-based
	// estimates (zero when the optimizer did not run). Together with the
	// actual counters above they form EXPLAIN ANALYZE's
	// estimated-vs-actual breakdown.
	KeyBound, OutBound           uint64
	EstKeys, EstFetched, EstRows float64
}

// statFor seeds a StepStat with the plan step's identity, bounds and
// estimates; the actual counters accrue during execution.
func statFor(q *analyze.Query, step *PlanStep) StepStat {
	return StepStat{
		Atom:       q.Atoms[step.Atom].Name,
		Constraint: step.Constraint.String(),
		KeyBound:   step.KeyBound,
		OutBound:   step.OutBound,
		EstKeys:    step.EstKeys,
		EstFetched: step.EstFetched,
		EstRows:    step.EstRows,
	}
}

// Stats aggregates bounded-plan execution statistics. Counters accrue
// while the plan streams; they are final once the result iterator is
// exhausted or closed.
type Stats struct {
	Steps    []StepStat
	Fetched  int64 // total partial tuples fetched = |D_Q|
	RowsOut  int64 // final result rows
	Duration time.Duration
	// StepKeys, filled only when Plan.CollectKeys is set, lists the
	// distinct encoded index keys each step probed (parallel to Steps).
	// Empty-bucket probes are included: the cache must learn about rows
	// later inserted under a key the query looked for and did not find.
	StepKeys [][]string
}

// RunContext executes a bounded plan and returns the result rows and
// execution statistics. All data access goes through the constraint
// indices' fetch operation; the plan never scans a base relation.
// Cancellation or deadline expiry halts the fetch loops at the next
// batch boundary and returns ctx's error; the stats then reflect only
// the work actually performed.
func RunContext(ctx context.Context, p *Plan) ([]value.Row, *Stats, error) {
	it, st := StreamContext(ctx, p, nil)
	rows, _, err := iter.Collect(it)
	if err != nil {
		return nil, st, err
	}
	return rows, st, nil
}

// StreamContext builds the bounded plan's pull pipeline and returns an
// iterator over the final result rows. Each fetch step is a streaming
// operator extending batches of weighted intermediate rows through its
// constraint index; the relational tail (internal/exec) pulls from the
// last step, so a LIMIT k query stops probing the indices after k rows.
// Statistics accrue in st while the iterator is consumed and are final
// once it is exhausted or closed.
//
// Every fetch step checks ctx before filling a batch, so a cancelled
// pipeline stops probing the constraint indices mid-flight — even when a
// blocking downstream stage (aggregation, ORDER BY) is draining it in a
// tight loop. A non-nil budget caps the tuples the steps fetch (see
// Budget); nil fetches everything the plan asks for.
func StreamContext(ctx context.Context, p *Plan, budget *Budget) (iter.Iterator, *Stats) {
	start := time.Now()
	st := &Stats{}
	if p.Check.EmptyGuaranteed {
		return iter.OnClose(iter.Empty(), func() { st.Duration = time.Since(start) }), st
	}
	q, layout := p.Query, p.Layout
	batch := p.BatchSize
	if batch <= 0 {
		batch = iter.BatchSize
	}

	// The intermediate relation starts as a single all-NULL row of the
	// final width; fetch steps fill slots in. Each row carries a weight:
	// the number of identical base-row combinations it stands for, since
	// constraint indices return distinct partial tuples with witness
	// counts (SQL bag semantics are restored by the relational tail).
	st.Steps = make([]StepStat, len(p.Steps))
	if p.CollectKeys {
		st.StepKeys = make([][]string, len(p.Steps))
	}
	cur := iter.ColFromRows([]value.Row{make(value.Row, layout.Len())}, nil, layout.Len(), batch)
	for i := range p.Steps {
		step := &p.Steps[i]
		st.Steps[i] = statFor(q, step)
		pr := probe{step: step, layout: layout, ss: &st.Steps[i], fetched: &st.Fetched}
		if p.CollectKeys {
			pr.keys = &st.StepKeys[i]
		}
		if budget != nil {
			pr.budget, pr.bstep = budget, len(budget.steps)
			budget.steps = append(budget.steps, budgetStep{})
		}
		cur = &colStepOp{probe: pr, ctx: ctx, in: cur, batch: batch}
	}
	out := iter.Counted(execTail(ctx, exec.StreamCol(q, cur, layout), start), &st.RowsOut)
	out = iter.WithContext(ctx, out)
	return iter.OnClose(out, func() {
		st.Duration = time.Since(start)
		emitStepSpans(ctx, start, st)
	}), st
}

// Budget is a fetch budget shared by every step of one run — and by
// every UNION branch of a statement: the paper's resource-bounded mode
// (§3), which runs the bounded plan fetching at most B tuples, B below
// the deduced bound M, and returns a subset of the exact answer with a
// deterministic accuracy lower bound. The paper defers its scheme to a
// later publication; this is a simplified deterministic instantiation
// with the same contract.
//
// Scheme. A step probing a key it has not seen fetches the key's bucket
// while budget is left, truncated to what remains, and is charged the
// truncated size. A key reached with no budget left is skipped: it is
// memoised as empty and charged the constraint's worst-case N, because
// its bucket was never read. Per step, the tuples relevant are the full
// bucket of every fetched key plus N per skipped key, and the step's
// coverage f_i is fetched / relevant. Coverage is Π f_i.
//
// Soundness under depth-first spending. The pipeline spends the budget
// in the order rows stream through the steps, not step by step, so any
// step may run out first; the argument does not depend on the order.
// Step i's keys are those of the rows that reached it — the fetched
// subset of the earlier steps' data. Of the data relevant to those keys
// it reads at least the fraction f_i: a skipped key's charge N is at
// least its real bucket. Every answer row is derived from tuples the
// run read, so the answer is a subset of the exact answer (for a query
// without aggregates), and the fraction of the relevant data it was
// computed from is at least Π f_i. The schedule is a pure function of
// the plan, the data and B, so Coverage is deterministic, and B ≥ M
// truncates and skips nothing: Coverage 1, and rows identical, in order,
// to the unbudgeted run.
type Budget struct {
	left  int64
	steps []budgetStep // one per fetch step, in pipeline build order
}

// budgetStep is one fetch step's accounting under a budget.
type budgetStep struct{ fetched, relevant int64 }

// coverage is the step's f_i: 1 for a step that saw no key.
func (s budgetStep) coverage() float64 {
	if s.relevant == 0 {
		return 1
	}
	return float64(s.fetched) / float64(s.relevant)
}

// NewBudget returns a budget of n tuples for one run.
func NewBudget(n int64) *Budget { return &Budget{left: n} }

// Coverage is the run's accuracy lower bound η ∈ [0, 1]: 1 means no
// bucket was truncated and no key skipped, so the answer is exact.
// Final once the run's iterators are exhausted or closed.
func (b *Budget) Coverage() float64 {
	c := 1.0
	for _, s := range b.steps {
		c *= s.coverage()
	}
	return c
}

// wBucket is one memoised index bucket: distinct partial tuples with
// their witness counts.
type wBucket struct {
	rows   []value.Row
	counts []int64
}

// memoPool recycles the fetch steps' bucket memos between runs. A memo
// is regrown from nothing by every step of every run otherwise, and for
// a plan that runs thousands of times a second that was the largest
// single source of garbage left in the bounded executor.
var memoPool = sync.Pool{New: func() any { return make(map[string]wBucket) }}

// maxPooledMemo caps the memos given back: clearing a map costs time in
// proportion to the size it once had, which every small run after one
// huge run would pay.
const maxPooledMemo = 256

func acquireMemo() map[string]wBucket { return memoPool.Get().(map[string]wBucket) }

// releaseMemo empties *m and gives it back, once: Close may run twice,
// or without Open.
func releaseMemo(m *map[string]wBucket) {
	if *m != nil && len(*m) <= maxPooledMemo {
		clear(*m)
		memoPool.Put(*m)
	}
	*m = nil
}

// probe is a fetch step's key enumeration and its memoised index probe,
// with the statistics, the probed-key sink and the budget it feeds.
type probe struct {
	step    *PlanStep
	layout  *analyze.Layout
	ss      *StepStat
	fetched *int64
	keys    *[]string // when non-nil, collects each distinct probed key
	budget  *Budget   // when non-nil, caps the run's fetches
	bstep   int       // this step's index into budget.steps

	memo map[string]wBucket
	key  []value.Value
	kb   []byte
}

func (p *probe) open() {
	p.memo = acquireMemo()
	p.key = make([]value.Value, len(p.step.Keys))
}

func (p *probe) close() { releaseMemo(&p.memo) }

// bucket returns the index bucket of the encoded key enc, fetching it —
// and counting the fetch — only the first time the step probes that key:
// the dedup-key semantics of the deduced bound.
func (p *probe) bucket(enc []byte) wBucket {
	if b, seen := p.memo[string(enc)]; seen {
		return b
	}
	ks := string(enc)
	if p.budget != nil {
		return p.spend(ks)
	}
	rows, counts, n := p.step.Index.FetchWeightedEncoded(ks)
	return p.keep(ks, rows, counts, n)
}

// spend is bucket for a key first seen under a budget: fetch and
// truncate while budget is left, else skip the key (see Budget).
func (p *probe) spend(ks string) wBucket {
	acct := &p.budget.steps[p.bstep]
	if p.budget.left <= 0 {
		acct.relevant += int64(p.step.Constraint.N)
		p.memo[ks] = wBucket{}
		return wBucket{}
	}
	rows, counts, n := p.step.Index.FetchWeightedEncoded(ks)
	use := int(min(int64(n), p.budget.left))
	p.budget.left -= int64(use)
	acct.fetched += int64(use)
	acct.relevant += int64(n)
	return p.keep(ks, rows[:use], counts[:use], use)
}

// keep memoises the n fetched tuples of key ks and counts the fetch.
func (p *probe) keep(ks string, rows []value.Row, counts []int64, n int) wBucket {
	b := wBucket{rows: rows, counts: counts}
	p.memo[ks] = b
	p.ss.DistinctKey++
	p.ss.Fetched += int64(n)
	*p.fetched += int64(n)
	if p.keys != nil {
		*p.keys = append(*p.keys, ks)
	}
	return b
}

// extend probes the index for every complete key of row — enumerated by
// stepKeys — and calls emit with each extended row that passes the
// step's filters and its weight. out is the row to extend into; it is
// overwritten for every candidate, so emit must copy what it keeps.
func (p *probe) extend(row, out value.Row, w int64, emit func(out value.Row, w int64)) error {
	return stepKeys(p.step, row, p.key, &p.kb, 0, func(enc []byte) error {
		bucket := p.bucket(enc)
		for yi, y := range bucket.rows {
			copy(out, row)
			for i, slot := range p.step.XSlots {
				out[slot] = p.key[i]
			}
			for i, yi2 := range p.step.YUsed {
				out[p.step.YSlots[i]] = y[yi2]
			}
			keep := true
			for _, f := range p.step.Filters {
				ok, err := analyze.EvalBool(f.Expr, out, p.layout)
				if err != nil {
					return fmt.Errorf("core: evaluating %s: %w", f, err)
				}
				if !ok {
					keep = false
					break
				}
			}
			if keep {
				emit(out, w*bucket.counts[yi])
			}
		}
		return nil
	})
}

// stepKeys enumerates the complete fetch keys of step for row — the
// cross product of constant candidates over slot reads, in nested
// component order — and calls fn with each encoded key. The encoding
// buffer is reused; fn must copy if it retains.
func stepKeys(step *PlanStep, row value.Row, key []value.Value, kb *[]byte, comp int, fn func(enc []byte) error) error {
	if comp < len(step.Keys) {
		src := step.Keys[comp]
		if src.Consts == nil {
			key[comp] = row[src.Slot]
			return stepKeys(step, row, key, kb, comp+1, fn)
		}
		for _, c := range src.Consts {
			key[comp] = c
			if err := stepKeys(step, row, key, kb, comp+1, fn); err != nil {
				return err
			}
		}
		return nil
	}
	*kb = (*kb)[:0]
	for _, kv := range key {
		*kb = value.AppendKey(*kb, kv)
	}
	return fn(*kb)
}

// colStepOp executes one fetch step as a streaming operator: it pulls
// batches of intermediate rows as column vectors, enumerates each row's
// key candidates, probes the constraint index (each distinct key exactly
// once, memoised — the dedup-key semantics of the deduced bound), and
// appends the extended rows that pass the step's filters into the output
// batch's columns through one reused scratch row — no per-output row
// allocation.
type colStepOp struct {
	probe
	ctx   context.Context
	in    iter.ColIterator
	batch int

	buf     *iter.ColBatch // pooled: acquired by Open, released by Close
	pos     int            // next live-row index in buf
	scratch value.Row      // current input row, read from buf; never mutated
	outRow  value.Row      // output row under construction, copied per emission
	done    bool
}

func (s *colStepOp) Open() error {
	s.open()
	s.scratch = make(value.Row, s.layout.Len())
	s.outRow = make(value.Row, s.layout.Len())
	s.buf = iter.AcquireColBatch()
	s.buf.Reset(s.layout.Len())
	return s.in.Open()
}

func (s *colStepOp) Close() error {
	s.done = true // buf and memo are gone: a late NextCols reports exhaustion
	iter.ReleaseColBatch(&s.buf)
	s.close()
	return s.in.Close()
}

func (s *colStepOp) NextCols(b *iter.ColBatch) (bool, error) {
	// Record self time only: the pull into upstream steps is timed by
	// those steps, so the per-step breakdown stays disjoint (Fig. 3).
	t0 := time.Now()
	var upstream time.Duration
	defer func() { s.ss.Duration += time.Since(t0) - upstream }()
	if err := s.ctx.Err(); err != nil {
		return false, err
	}
	b.Reset(s.layout.Len())
	// AppendRow copies the values into the columns, so an output costs a
	// slot-copy instead of a row allocation.
	emit := func(out value.Row, w int64) { b.AppendRow(out, w) }
	for b.Rows() < s.batch && !s.done {
		if s.pos >= s.buf.Len() {
			u0 := time.Now()
			ok, err := s.in.NextCols(s.buf)
			upstream += time.Since(u0)
			if err != nil {
				return false, err
			}
			if !ok {
				s.done = true
				break
			}
			s.pos = 0
			continue
		}
		p := s.buf.Index(s.pos)
		s.buf.ReadRow(p, s.scratch)
		w := s.buf.Weight(p)
		s.pos++
		if err := s.extend(s.scratch, s.outRow, w, emit); err != nil {
			return false, err
		}
	}
	s.ss.RowsOut += int64(b.Rows())
	return b.Rows() > 0, nil
}
