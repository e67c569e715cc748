package main

// Repeatability tool. -summarize reduces a set of result files to one
// row per end-to-end metric x workload (median, quartiles, spread) and
// is what derived the bounds in BENCHMARK.json; -compare puts two sets
// side by side against those bounds.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// quartiles is Python's statistics.quantiles(values, n=4) — the method
// the acceptance rule names — on at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := sortedCopy(values)
	n := len(data)
	if n < 2 {
		if n == 1 {
			return data[0], data[0], data[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*m - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// loadRuns reads the untraced runs of every result file under each
// argument (a file written by -out, or a directory of them).
func loadRuns(args []string) (map[string]map[string][]float64, error) {
	vals := make(map[string]map[string][]float64) // workload -> metric -> values
	var files []string
	for _, a := range args {
		info, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			files = append(files, a)
			continue
		}
		matches, _ := filepath.Glob(filepath.Join(a, "*.json"))
		sort.Strings(matches)
		files = append(files, matches...)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var s summary
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range s.Runs {
			if r.Traced {
				continue
			}
			if vals[r.Workload] == nil {
				vals[r.Workload] = make(map[string][]float64)
			}
			for name, m := range r.Metrics {
				vals[r.Workload][name] = append(vals[r.Workload][name], m.Value)
			}
		}
	}
	return vals, nil
}

// spreadRow is one metric x workload over a set of runs.
type spreadRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	N        int     `json:"n"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	// Spread is (Q3 - Q1) / median.
	Spread float64 `json:"spread"`
}

func spreadOf(workload, metric string, values []float64) spreadRow {
	q1, q2, q3 := quartiles(values)
	row := spreadRow{Workload: workload, Metric: metric, N: len(values), Median: q2, Q1: q1, Q3: q3}
	if q2 != 0 {
		row.Spread = (q3 - q1) / q2
	}
	return row
}

// worseBy is how far b's median is on the wrong side of a's, as a share
// of a's (negative = better).
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func compareMain(man *manifest, compare bool, args []string, out io.Writer) int {
	if compare && len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare wants two arguments: a.json b.json (files or directories of result files)")
		return 2
	}
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -summarize wants result files")
		return 2
	}
	if !compare {
		vals, err := loadRuns(args)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		var rows []spreadRow
		fmt.Fprintf(out, "%-14s %-18s %3s %14s %14s %14s %8s %8s\n", "workload", "metric", "n", "median", "q1", "q3", "spread", "bound")
		for _, w := range workloads {
			for _, d := range endToEnd {
				v := vals[w.name][d.name]
				if len(v) == 0 {
					continue
				}
				row := spreadOf(w.name, d.name, v)
				rows = append(rows, row)
				bound, _ := man.bound(d.name)
				fmt.Fprintf(out, "%-14s %-18s %3d %14.4f %14.4f %14.4f %7.2f%% %7.0f%%\n",
					row.Workload, row.Metric, row.N, row.Median, row.Q1, row.Q3, 100*row.Spread, 100*bound)
			}
		}
		data, _ := json.MarshalIndent(rows, "", "  ")
		fmt.Fprintf(out, "%s\n", data)
		return 0
	}

	a, err := loadRuns(args[:1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := loadRuns(args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	breaches := 0
	fmt.Fprintf(out, "%-14s %-18s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "a median", "b median", "b worse", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a[w.name][d.name], b[w.name][d.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ra, rb := spreadOf(w.name, d.name, va), spreadOf(w.name, d.name, vb)
			bound, _ := man.bound(d.name)
			worse := worseBy(d, ra.Median, rb.Median)
			spread := max(ra.Spread, rb.Spread)
			verdict := "within bound"
			switch {
			case spread > bound:
				verdict = "unresolved (spread exceeds bound)"
			case worse > bound:
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(out, "%-14s %-18s %14.4f %14.4f %+8.2f%% %7.2f%% %7.0f%%  %s\n",
				w.name, d.name, ra.Median, rb.Median, 100*worse, 100*spread, 100*bound, verdict)
		}
	}
	if breaches > 0 {
		fmt.Fprintf(out, "%d metric x workload pairs breach their bound\n", breaches)
		return 1
	}
	return 0
}
