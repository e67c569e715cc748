package main

// Correctness oracle. Before the window the benchmark computes, for every
// distinct statement, the answer of the conventional engine
// (QueryBaseline — a code path that shares no operator with the bounded
// executor) as a row count plus row hashes; every response in the window
// is checked against it. Floats are hashed at six significant digits:
// the two engines sum in different orders, and the last bits differ.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"

	beas "github.com/bounded-eval/beas"
	"github.com/bounded-eval/beas/internal/value"
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// hashValue folds one value's canonical rendering into h: the decimal
// digits of an int, six significant digits of a float, a string's bytes.
func hashValue(h uint64, v value.Value, buf *[]byte) uint64 {
	b := (*buf)[:0]
	switch v.K {
	case value.Int, value.Bool:
		b = strconv.AppendInt(append(b, 'i'), v.I, 10)
	case value.Float:
		b = strconv.AppendFloat(append(b, 'f'), v.F, 'g', 6, 64)
	case value.String:
		b = append(append(b, 's'), v.S...)
	default:
		b = append(b, 'n')
	}
	*buf = b
	return (fnvBytes(h, b) ^ 0xff) * fnvPrime
}

// rowsHash is the pair of hashes an answer is compared by: bag is
// order-insensitive (Σ of mixed row hashes), seq folds rows in order.
type rowsHash struct {
	n        int
	bag, seq uint64
}

func (a *rowsHash) add(rh uint64) {
	a.n++
	a.bag += rh * 0x9e3779b97f4a7c15
	a.seq = (a.seq ^ rh) * fnvPrime
}

func hashRows(rows []value.Row) rowsHash {
	var out rowsHash
	buf := make([]byte, 0, 64)
	for _, r := range rows {
		h := uint64(fnvOffset)
		for _, v := range r {
			h = hashValue(h, v, &buf)
		}
		out.add(h)
	}
	return out
}

// answer is the oracle's record of one distinct statement.
type answer struct {
	rowsHash
	ordered bool         // statement has ORDER BY: seq must match too
	kinds   []value.Kind // column kinds, to render JSON numbers alike
}

func (a *answer) matches(got rowsHash) bool {
	return got.n == a.n && got.bag == a.bag && (!a.ordered || got.seq == a.seq)
}

func newAnswer(sql string, rows []value.Row) answer {
	a := answer{rowsHash: hashRows(rows), ordered: strings.Contains(sql, "ORDER BY")}
	if len(rows) > 0 {
		a.kinds = make([]value.Kind, len(rows[0]))
		for _, r := range rows {
			for j, v := range r {
				if a.kinds[j] == value.Null {
					a.kinds[j] = v.K
				}
			}
		}
	}
	return a
}

// buildOracle answers every statement of sqls for which pick(i) holds,
// through eval, on two goroutines (the set-up owns both cores).
func buildOracle(sqls []string, pick func(i int) bool, eval func(sql string) ([]value.Row, error)) ([]answer, []bool, error) {
	out := make([]answer, len(sqls))
	have := make([]bool, len(sqls))
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(sqls); i += 2 {
				if !pick(i) {
					continue
				}
				rows, err := eval(sqls[i])
				if err != nil {
					errs[w] = fmt.Errorf("oracle for %q: %w", sqls[i], err)
					return
				}
				out[i], have[i] = newAnswer(sqls[i], rows), true
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return out, have, nil
}

func baselineEval(db *beas.DB) func(string) ([]value.Row, error) {
	return func(sql string) ([]value.Row, error) {
		res, err := db.QueryBaseline(sql, beas.BaselinePostgres)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}
}

// failure classes, summed into fail_ratio.
const (
	failError = iota // transport or evaluation error
	failRefused
	failWrong // answer differs from the oracle
	failOverBound
	failMode
	failClasses
)

var failNames = [failClasses]string{"errors", "refused", "wrong_answers", "fetched_over_bound", "unexpected_mode"}

// checkStats classifies the statistics of one bounded answer; -1 = fine.
func checkStats(mode string, fetched int64, bound uint64) int {
	if mode != string(beas.ModeBounded) && mode != string(beas.ModeEmpty) {
		return failMode
	}
	if fetched < 0 || uint64(fetched) > bound {
		return failOverBound
	}
	return -1
}

// checkResult verifies one embedded answer against the oracle.
func checkResult(res *beas.Result, err error, want *answer) int {
	if err != nil {
		return failError
	}
	if c := checkStats(string(res.Stats.Mode), res.Stats.TuplesFetched, res.Stats.Bound); c >= 0 {
		return c
	}
	if want != nil && !want.matches(hashRows(res.Rows)) {
		return failWrong
	}
	return -1
}

// wireTrailer is the part of the NDJSON stats trailer the client reads.
type wireTrailer struct {
	Stats struct {
		Mode          string `json:"mode"`
		Rows          int64  `json:"rows"`
		Bound         uint64 `json:"bound"`
		TuplesFetched int64  `json:"tuplesFetched"`
	} `json:"stats"`
}

// checkBody verifies one /query response body. Every response has its
// lines counted and its trailer decoded (mode, bound, row count); with
// full set, every row chunk is decoded and hashed as well.
func checkBody(body []byte, want *answer, full bool) int {
	body = bytes.TrimRight(body, "\n")
	last := bytes.LastIndexByte(body, '\n')
	if last < 0 { // a header line and a trailer are the minimum
		return failWrong
	}
	var tr wireTrailer
	if err := json.Unmarshal(body[last+1:], &tr); err != nil || tr.Stats.Mode == "" {
		return failWrong
	}
	if c := checkStats(tr.Stats.Mode, tr.Stats.TuplesFetched, tr.Stats.Bound); c >= 0 {
		return c
	}
	if want == nil {
		return -1
	}
	if int(tr.Stats.Rows) != want.n {
		return failWrong
	}
	if !full {
		return -1
	}
	lines := bytes.Split(body[:last], []byte{'\n'})
	var got rowsHash
	buf := make([]byte, 0, 64)
	for _, ln := range lines[1:] { // lines[0] is the header
		var chunk struct {
			Rows [][]any `json:"rows"`
		}
		dec := json.NewDecoder(bytes.NewReader(ln))
		dec.UseNumber()
		if err := dec.Decode(&chunk); err != nil {
			return failWrong
		}
		for _, r := range chunk.Rows {
			h := uint64(fnvOffset)
			for j, x := range r {
				v, ok := wireValue(x, want.kinds, j)
				if !ok {
					return failWrong
				}
				h = hashValue(h, v, &buf)
			}
			got.add(h)
		}
	}
	if !want.matches(got) {
		return failWrong
	}
	return -1
}

// wireValue turns a decoded JSON value back into the value the oracle
// hashed. JSON does not separate 12 from 12.0, so the column kind the
// oracle saw decides how a number is read.
func wireValue(x any, kinds []value.Kind, j int) (value.Value, bool) {
	switch t := x.(type) {
	case nil:
		return value.NewNull(), true
	case string:
		return value.NewString(t), true
	case json.Number:
		if j < len(kinds) && kinds[j] == value.Float {
			f, err := t.Float64()
			return value.NewFloat(f), err == nil
		}
		i, err := t.Int64()
		return value.NewInt(i), err == nil
	}
	return value.Value{}, false
}
