// Command beasbench regenerates the paper's evaluation artefacts (figures
// and tables) on the synthetic TLC benchmark. Each experiment is
// described in DESIGN.md §4 and EXPERIMENTS.md.
//
// Usage:
//
//	beasbench -exp example2|fig3|fig4|queries|budget|partial|discovery|approx|maint|vector|cache|digest|all
//	          [-scale N] [-scales 1,2,5,10,20] [-runs 3]
//
// Scale factors stand in for the paper's 1 GB → 200 GB sweep: row counts
// grow linearly with scale (see DESIGN.md §5, Substitutions).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	beas "github.com/bounded-eval/beas"
)

func main() {
	exp := flag.String("exp", "all", "experiment: example2, fig3, fig4, queries, budget, partial, discovery, approx, maint, vector, cache, digest, all")
	scale := flag.Int("scale", 5, "TLC scale factor for single-scale experiments")
	scales := flag.String("scales", "1,2,5,10,20", "comma-separated scale factors for the fig4 sweep")
	runs := flag.Int("runs", 3, "timing repetitions (the minimum is reported)")
	jsonOut := flag.String("json", "", "also write machine-readable per-experiment timings (name, scale, runs, ns/op, rows fetched) to this file")
	jsonBase := flag.String("json-baseline", "", "write the digest experiment's digests-off timings to this file; with -json it forms the baseline/current pair cmd/benchgate compares")
	rcache := flag.Bool("rcache", false, "enable the semantic result cache on the benchmark databases; use to record the warm-cache run the cache experiment compares against")
	digests := flag.Bool("digests", false, "enable workload digests on the benchmark databases; use to measure the digest layer's overhead against a digests-off run")
	flag.Parse()

	sc, err := parseScales(*scales)
	if err != nil {
		fmt.Fprintln(os.Stderr, "beasbench:", err)
		os.Exit(2)
	}
	h := &harness{scale: *scale, scales: sc, runs: *runs, rcache: *rcache, digests: *digests}
	defer func() {
		write := func(path string, recs []benchRecord) {
			if path == "" {
				return
			}
			if err := writeJSON(path, recs); err != nil {
				fmt.Fprintln(os.Stderr, "beasbench:", err)
				os.Exit(1)
			}
			fmt.Printf("\nwrote %d timing records to %s\n", len(recs), path)
		}
		write(*jsonOut, h.records)
		write(*jsonBase, h.baseRecords)
	}()

	all := map[string]func(){
		"example2":  h.example2,
		"fig3":      h.fig3,
		"fig4":      h.fig4,
		"queries":   h.queries,
		"budget":    h.budget,
		"partial":   h.partial,
		"discovery": h.discovery,
		"approx":    h.approx,
		"maint":     h.maint,
		"vector":    h.vector,
		"cache":     h.cache,
		"digest":    h.digest,
	}
	if *exp == "all" {
		for _, name := range []string{"example2", "fig3", "fig4", "queries", "budget", "partial", "discovery", "approx", "maint", "vector", "cache", "digest"} {
			all[name]()
		}
		return
	}
	fn, ok := all[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "beasbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	fn()
}

func parseScales(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad scale %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

type harness struct {
	scale   int
	scales  []int
	runs    int
	rcache  bool
	digests bool

	dbCache map[int]*beas.DB
	records []benchRecord
	// baseRecords is the -json-baseline sink: the digests-off half of
	// the digest experiment's interleaved comparison.
	baseRecords []benchRecord
}

// benchRecord is one machine-readable timing: the -json output feeds the
// BENCH_*.json performance trajectory.
type benchRecord struct {
	Experiment    string `json:"experiment"`
	Name          string `json:"name"`
	Scale         int    `json:"scale"`
	Runs          int    `json:"runs"`
	NsPerOp       int64  `json:"nsPerOp"`
	Rows          int    `json:"rows"`
	TuplesFetched int64  `json:"tuplesFetched"`
	TuplesScanned int64  `json:"tuplesScanned"`
	// CacheHits / CacheMisses snapshot the database's cumulative
	// result-cache counters when the record was filed (cache experiment
	// only) — the hit-rate evidence behind the warm-vs-cold speedups.
	CacheHits   uint64 `json:"cacheHits,omitempty"`
	CacheMisses uint64 `json:"cacheMisses,omitempty"`
}

// record files one timing into the -json output.
func (h *harness) record(exp, name string, scale int, d time.Duration, res *beas.Result) {
	h.records = append(h.records, h.makeRecord(exp, name, scale, d, res))
}

// recordBaseline files one timing into the -json-baseline output.
func (h *harness) recordBaseline(exp, name string, scale int, d time.Duration, res *beas.Result) {
	h.baseRecords = append(h.baseRecords, h.makeRecord(exp, name, scale, d, res))
}

func (h *harness) makeRecord(exp, name string, scale int, d time.Duration, res *beas.Result) benchRecord {
	rec := benchRecord{Experiment: exp, Name: name, Scale: scale, Runs: h.runs, NsPerOp: d.Nanoseconds()}
	if res != nil {
		rec.Rows = len(res.Rows)
		rec.TuplesFetched = res.Stats.TuplesFetched
		rec.TuplesScanned = res.Stats.TuplesScanned
	}
	return rec
}

// recordCache is record plus the database's cumulative result-cache
// counters as hit-rate evidence.
func (h *harness) recordCache(exp, name string, scale int, d time.Duration, res *beas.Result, db *beas.DB) {
	h.record(exp, name, scale, d, res)
	s := db.ResultCacheStats()
	r := &h.records[len(h.records)-1]
	r.CacheHits, r.CacheMisses = s.Hits, s.Misses
}

// benchOutput is the top-level -json document.
type benchOutput struct {
	Schema  string        `json:"schema"`
	Records []benchRecord `json:"records"`
}

func writeJSON(path string, recs []benchRecord) error {
	out, err := json.MarshalIndent(benchOutput{Schema: "beasbench/v1", Records: recs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func (h *harness) db(scale int) *beas.DB {
	if h.dbCache == nil {
		h.dbCache = make(map[int]*beas.DB)
	}
	if db, ok := h.dbCache[scale]; ok {
		return db
	}
	fmt.Printf("  [generating TLC at scale %d ...]\n", scale)
	db := beas.MustNewTLCDB(scale)
	if h.rcache {
		db.SetResultCache(true)
	}
	if h.digests {
		db.SetDigests(beas.NewDigestSet(128))
	}
	h.dbCache[scale] = db
	return db
}

func (h *harness) banner(title string) {
	fmt.Println()
	fmt.Println("=" + strings.Repeat("=", 74))
	fmt.Println("== " + title)
	fmt.Println("=" + strings.Repeat("=", 74))
}

// timeQuery reports the minimum duration and the last result over h.runs
// repetitions, after one untimed warm-up run (the warm-up pays one-time
// costs such as table-statistics computation, which a production system
// would amortise across queries).
func (h *harness) timeQuery(run func() (*beas.Result, error)) (time.Duration, *beas.Result, error) {
	if _, err := run(); err != nil {
		return 0, nil, err
	}
	var best time.Duration
	var res *beas.Result
	for i := 0; i < h.runs; i++ {
		r, err := run()
		if err != nil {
			return 0, nil, err
		}
		if i == 0 || r.Stats.Duration < best {
			best = r.Stats.Duration
		}
		res = r
	}
	return best, res, nil
}

func (h *harness) timeBounded(db *beas.DB, sql string) (time.Duration, *beas.Result, error) {
	return h.timeQuery(func() (*beas.Result, error) { return db.QueryBounded(sql) })
}

func (h *harness) timeAuto(db *beas.DB, sql string) (time.Duration, *beas.Result, error) {
	return h.timeQuery(func() (*beas.Result, error) { return db.Query(sql) })
}

func (h *harness) timeBaseline(db *beas.DB, sql string, base beas.Baseline) (time.Duration, *beas.Result, error) {
	return h.timeQuery(func() (*beas.Result, error) { return db.QueryBaseline(sql, base) })
}

// table prints an aligned text table.
func table(headers []string, rows [][]string) {
	w := make([]int, len(headers))
	for i, hd := range headers {
		w[i] = len(hd)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(w) && len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", w[i], c)
		}
		fmt.Println("  " + strings.Join(parts, "  "))
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", w[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000.0)
}

func ratio(base, beasD time.Duration) string {
	if beasD <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.0fx", float64(base)/float64(beasD))
}

func tlcSQL(name string) string {
	for _, q := range beas.TLCQueries() {
		if q.Name == name {
			return q.SQL
		}
	}
	panic("unknown TLC query " + name)
}
