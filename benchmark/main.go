// Command benchmark is the one benchmark of this repository: six named
// workloads over seeded TLC instances, end-to-end metrics from an
// untraced run and a per-layer cost ledger from a traced run. See
// README.md in this directory; BENCHMARK.json at the repository root is
// its manifest.
//
//	bash benchmark/run.sh --seed 1 --out results.json        # everything
//	bash benchmark/run.sh --workload http_hot --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runConfig is the shape of one run; only tests change anything but
// seed, window and trace.
type runConfig struct {
	seed    int64
	window  time.Duration
	warmup  time.Duration
	setups  int // set-ups per run; setup_s is their median
	scale   int // > 0 overrides every workload's scale (smoke test)
	smoke   bool
	scratch string
	// ledgerReqs is how many sampled requests the traced run walks
	// through the layers; probeMutations how many writer operations it
	// keeps back for its write-path probes.
	ledgerReqs     int
	probeMutations int
	// probeWindow is how long each timed probe of the traced run lasts.
	probeWindow time.Duration
	traceOut    string
	log         io.Writer
}

// metricValue is one reported number; N is the sample count behind a
// timing, Q the percentile actually reported for a tail metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q     float64 `json:"q,omitempty"`
}

// runResult is one workload's run, traced or not.
type runResult struct {
	Workload  string                 `json:"workload"`
	Why       string                 `json:"why"`
	Traced    bool                   `json:"traced"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	FailBy    map[string]int64       `json:"failed_by"`
	Checks    []check                `json:"validity"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Extra holds numbers printed for the reader that are in neither
	// list: generator and oracle cost, per-arm medians, text counts.
	Extra map[string]float64 `json:"extra"`
}

func (r *runResult) correct() bool {
	if r.Failed != 0 {
		return false
	}
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (r *runResult) set(name string, v float64, n int) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("benchmark: metric " + name + " is in neither list")
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit, N: n}
}

func newResult(w *workload, why string, traced bool) *runResult {
	return &runResult{Workload: w.name, Why: why, Traced: traced,
		FailBy: map[string]int64{}, Metrics: map[string]metricValue{}, Extra: map[string]float64{}}
}

// fold adds the window's counts and every end-to-end metric to r.
func (w *workload) fold(r *runResult, res *windowResult, post *postWindow, setupS float64) {
	attempted, _, fail := res.reads()
	attempted += res.writer.attempted
	for k, n := range res.writer.fail {
		fail[k] += n
	}
	failed := int64(post.recoveryWrong + post.sweepWrong)
	for k, n := range fail {
		r.FailBy[failNames[k]] = n
		failed += n
	}
	r.Attempted, r.Failed = attempted, failed

	// scale_sweep's throughput and latency are over its two baseline
	// arms: the only place a fallback-engine change shows end to end.
	// Its median is over the scale-20 arm alone: the two arms' latencies
	// do not overlap (0.2-1.4 ms and 4-16 ms), so the median of their
	// pool falls in the empty stretch between them and jumps with the
	// odd sample. The pooled p99 lies wholly inside the scale-20 arm.
	arms := []int{0}
	midArms := arms
	if w.sweep {
		arms = []int{armBaselineSmall, armBaselineBig}
		midArms = []int{armBaselineBig}
	}
	// Each timing is the median over the sub-windows of its value in
	// each. p99 needs 1 000 samples: where a sub-window has fewer it is
	// taken over the whole window (and from fewer than 1 000 in all, the
	// highest percentile that still has ten samples beyond it).
	var thr, p50, p99 []float64
	part := res.dur.Seconds() / subWindows
	tailBySub := true
	for sub := 0; sub < subWindows; sub++ {
		lat := durationsUS(res.latenciesIn(sub, arms...))
		thr = append(thr, float64(res.okIn(sub, arms...))/part)
		p50 = append(p50, quantile(durationsUS(res.latenciesIn(sub, midArms...)), 0.5))
		p99 = append(p99, quantile(lat, 0.99))
		tailBySub = tailBySub && len(lat) >= 1000
	}
	all := durationsUS(res.latencies(arms...))
	tail, q := median(p99), 0.99
	if !tailBySub {
		tail, q = tailQuantile(all)
	}
	r.set("setup_s", setupS, 0)
	r.set("throughput_ops_s", median(thr), int(res.okIn(-1, arms...)))
	r.set("latency_p50_us", median(p50), len(res.latencies(midArms...)))
	r.set("latency_p99_us", tail, len(all))
	m := r.Metrics["latency_p99_us"]
	m.Q = q
	r.Metrics["latency_p99_us"] = m
	r.set("peak_rss_mb", res.peakRSS, 0)
}

// secondary reports the workload-specific end-to-end numbers the window
// itself produced (write acks, recovery, the paper's two ratios).
func (w *workload) secondary(r *runResult, res *windowResult, post *postWindow) {
	r.set("fail_ratio", float64(r.Failed)/float64(max(r.Attempted, 1)), int(r.Attempted))
	if w.writeRate > 0 {
		acks := durationsUS(res.writer.acks)
		a99, _ := tailQuantile(acks)
		l99, _ := tailQuantile(durationsUS(res.writer.late))
		r.set("write_ack_p50_us", quantile(acks, 0.5), len(acks))
		r.set("write_ack_p99_us", a99, len(acks))
		r.set("write_lateness_p99_us", l99, len(acks))
	}
	if w.durable {
		r.set("recovery_s", post.recoveryS, post.recoveryChecked)
	}
	if w.sweep {
		med := func(arm int) float64 { return quantile(durationsUS(res.latencies(arm)), 0.5) }
		bs, bb, cb := med(armBoundedSmall), med(armBoundedBig), med(armBaselineBig)
		r.Extra["bounded_small_p50_us"], r.Extra["bounded_big_p50_us"] = bs, bb
		r.Extra["baseline_small_p50_us"], r.Extra["baseline_big_p50_us"] = med(armBaselineSmall), cb
		if bs > 0 && bb > 0 {
			r.set("flatness_ratio", bb/bs, int(res.okIn(-1, armBoundedBig)))
			r.set("baseline_speedup", cb/bb, int(res.okIn(-1, armBaselineBig)))
		}
	}
}

// runUntraced is the end-to-end run: repeated set-up, warm-up, the
// timed window with tracing off, verification.
func (w *workload) runUntraced(cfg *runConfig, why string) (*runResult, error) {
	e, setupS, err := w.setupMedian(cfg, nil)
	if err != nil {
		return nil, err
	}
	defer e.close()
	p, err := w.prepare(cfg, e)
	if err != nil {
		return nil, err
	}
	res, err := w.runWindow(cfg, e, p)
	if err != nil {
		return nil, err
	}
	post, err := w.verifyAfter(e, p, res)
	if err != nil {
		return nil, err
	}
	r := newResult(w, why, false)
	w.fold(r, res, post, setupS)
	w.secondary(r, res, post)
	r.Checks = w.validity(cfg, e, p, res, post)
	w.describe(r, e, p)
	return r, nil
}

func (w *workload) describe(r *runResult, e *env, p *prepared) {
	r.Extra["scale"] = float64(e.scale)
	r.Extra["distinct_texts"] = float64(len(p.in.texts))
	r.Extra["distinct_answers"] = float64(len(p.in.bases))
	r.Extra["oracle_baseline_answers"] = float64(p.oracleBaseline)
	r.Extra["gen_s"] = p.genTime.Seconds()
	r.Extra["oracle_s"] = p.oracleTime.Seconds()
	r.Extra["mutations_materialised"] = float64(len(p.in.muts))
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

func (m *manifest) why(name string) string {
	for _, w := range m.Workloads {
		if w.Name == name {
			return w.Why
		}
	}
	return ""
}

func (m *manifest) bound(name string) (float64, bool) {
	for _, e := range m.EndToEnd {
		if e.Name == name {
			return e.Bound, true
		}
	}
	return 0, false
}

// stamp is the environment printed with every result.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Fsync      string `json:"fsync_policy"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"window_seconds"`
}

func newStamp(root string, seed int64, seconds int) stamp {
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return stamp{Commit: commit, GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: seconds,
		Fsync: "durable stores fsync every record (beas.Open defaults), snapshot every 100000 records"}
}

// summary is what -out writes. Claim is last and always null: this
// program measures; it compares nothing against a parent commit.
type summary struct {
	Env   stamp        `json:"env"`
	Runs  []*runResult `json:"runs"`
	Claim *string      `json:"claim"`
}

// printRun writes one run for a reader: every metric by name and unit.
func printRun(out io.Writer, r *runResult) {
	mode := "untraced"
	defs := endToEnd
	if r.Traced {
		mode, defs = "traced ledger", perLayer
	}
	fmt.Fprintf(out, "\n== %s (%s) ==\n   %s\n", r.Workload, mode, r.Why)
	printDefs := func(defs []metricDef) {
		for _, d := range defs {
			m, ok := r.Metrics[d.name]
			if !ok {
				continue
			}
			fmt.Fprintf(out, "  %-32s %14.4f %-6s", d.name, m.Value, m.Unit)
			if m.N > 0 {
				fmt.Fprintf(out, " n=%d", m.N)
			}
			if m.Q > 0 && m.Q != 0.99 {
				fmt.Fprintf(out, " (p%.1f: too few samples for p99)", 100*m.Q)
			}
			fmt.Fprintln(out)
		}
	}
	printDefs(defs)
	if !r.Traced {
		printDefs(perLayer) // the workload's own secondary numbers
	}
	fmt.Fprintf(out, "  attempted %d, failed %d %v\n", r.Attempted, r.Failed, r.FailBy)
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "VIOLATED"
		}
		fmt.Fprintf(out, "  validity: %-52s %s (%s)\n", c.Assertion, verdict, c.Detail)
	}
	extra, _ := json.Marshal(r.Extra)
	fmt.Fprintf(out, "  extra: %s\n", extra)
}

// driverLine is the last line of standard output in single-workload
// mode: exactly the keys the driver reads.
func driverLine(r *runResult) string {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		m := r.Metrics[d.name]
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[d.name] = mv{v, d.unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct(), max(r.Attempted, 1), r.Failed, metrics})
	return string(b)
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		root     = flag.String("root", ".", "checkout root (holds BENCHMARK.json; scratch files go under its .bench_build/)")
		name     = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", 0, "timed window per workload in seconds (default: run_seconds of BENCHMARK.json)")
		trace    = flag.String("trace", "both", "0 = untraced end-to-end run, 1 = traced ledger run, both")
		out      = flag.String("out", "", "write the full results as JSON to this file")
		traceOut = flag.String("trace-out", "", "write the traced run's spans as JSON lines to this file")
		compare  = flag.Bool("compare", false, "compare two result files (arguments: a.json b.json) against the recorded bounds")
		summ     = flag.Bool("summarize", false, "print per metric x workload median, quartiles and spread of result files (arguments: run1.json run2.json ...)")
	)
	flag.Parse()
	man, err := loadManifest(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *compare || *summ {
		return compareMain(man, *compare, flag.Args(), os.Stdout)
	}
	if *seconds <= 0 {
		*seconds = man.RunSeconds
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else if w := workloadByName(*name); w != nil {
		ws = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fmt.Fprintf(os.Stderr, "benchmark: -trace wants 0, 1 or both, got %q\n", *trace)
		return 2
	}
	scratch, err := scratchDir(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	defer os.RemoveAll(scratch)

	window := time.Duration(*seconds) * time.Second
	cfg := &runConfig{seed: *seed, window: window, warmup: window / 5, setups: 5, scratch: scratch,
		ledgerReqs: 2000, probeMutations: 4096, probeWindow: 400 * time.Millisecond, traceOut: *traceOut}
	sum := &summary{Env: newStamp(*root, *seed, *seconds)}
	env, _ := json.Marshal(sum.Env)
	fmt.Printf("env: %s\n", env)

	code := 0
	for _, w := range ws {
		for _, traced := range []bool{false, true} {
			if (traced && *trace == "0") || (!traced && *trace == "1") {
				continue
			}
			var r *runResult
			if traced {
				r, err = w.runTraced(cfg, man.why(w.name))
			} else {
				r, err = w.runUntraced(cfg, man.why(w.name))
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			printRun(os.Stdout, r)
			sum.Runs = append(sum.Runs, r)
			if !r.correct() {
				code = 1
			}
		}
	}
	if *out != "" {
		data, _ := json.MarshalIndent(sum, "", "  ")
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if len(sum.Runs) == 1 {
		fmt.Println(driverLine(sum.Runs[0]))
	} else {
		line, _ := json.Marshal(struct {
			Correct bool    `json:"correct"`
			Runs    int     `json:"runs"`
			Claim   *string `json:"claim"`
		}{code == 0, len(sum.Runs), nil})
		fmt.Println(string(line))
	}
	return code
}
