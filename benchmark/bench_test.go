package main

import (
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	beas "github.com/bounded-eval/beas"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func testManifest(t *testing.T) *manifest {
	t.Helper()
	man, err := loadManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// BENCHMARK.json and the Go tables name the same metrics, units and
// directions, and the same workloads in the same order.
func TestManifestMatchesTables(t *testing.T) {
	man := testManifest(t)
	if len(man.EndToEnd) != len(endToEnd) || len(man.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the tables %d+%d", len(man.EndToEnd), len(man.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := make(map[string]bool)
	for i, d := range endToEnd {
		m := man.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, table has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		seen[d.name] = true
	}
	for i, d := range perLayer {
		m := man.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, table has %+v", i, m, d)
		}
		if seen[d.name] {
			t.Errorf("metric name %s used twice", d.name)
		}
		seen[d.name] = true
	}
	for name := range seen {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is malformed", name)
		}
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		mw := man.Workloads[i]
		if mw.Name != w.name || !nameRE.MatchString(mw.Name) {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, mw.Name, w.name)
		}
		if mw.Why == "" || len(mw.Why) > 200 {
			t.Errorf("%s: why has %d characters", mw.Name, len(mw.Why))
		}
	}
}

// The request and mutation lists depend on the seed and on nothing else.
func TestGeneratorIsSeeded(t *testing.T) {
	db, err := beas.NewTLCDB(1)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := sampleKeys(db)
	if err != nil {
		t.Fatal(err)
	}
	gen := func(w *workload, seed int64) uint64 {
		in := w.gen(seed, ks, w.clients)
		if w.writeRate > 0 {
			in.muts = genMutations(seed, 2000, in.hotKeys)
		}
		return in.digest()
	}
	for _, w := range workloads {
		one, two := gen(w, 1), gen(w, 2)
		if one != gen(w, 1) || two != gen(w, 2) {
			t.Errorf("%s: one seed gave two different input lists", w.name)
		}
		if one == two {
			t.Errorf("%s: seeds 1 and 2 gave the same input lists", w.name)
		}
	}
}

// Every workload at scale 1 with a 200 ms window, untraced and traced:
// every metric of BENCHMARK.json comes out once, finite, with its unit,
// nothing fails and every validity assertion that a short window can
// meet holds.
func TestSmoke(t *testing.T) {
	man := testManifest(t)
	scratch := t.TempDir()
	cfg := &runConfig{seed: 7, window: 200 * time.Millisecond, warmup: 50 * time.Millisecond, setups: 1,
		scale: 1, smoke: true, scratch: scratch, ledgerReqs: 96, probeMutations: 4096,
		probeWindow: 40 * time.Millisecond}
	for _, w := range workloads {
		runs := map[string]func(*runConfig, string) (*runResult, error){"untraced": w.runUntraced, "traced": w.runTraced}
		for mode, run := range runs {
			t.Run(w.name+"/"+mode, func(t *testing.T) {
				if mode == "traced" {
					cfg.traceOut = scratch + "/" + w.name + ".jsonl"
				}
				r, err := run(cfg, man.why(w.name))
				if err != nil {
					t.Fatal(err)
				}
				if r.Failed != 0 || r.Attempted == 0 {
					t.Errorf("attempted %d, failed %d (%v)", r.Attempted, r.Failed, r.FailBy)
				}
				for _, c := range r.Checks {
					if !c.OK {
						t.Errorf("validity: %s violated (%s)", c.Assertion, c.Detail)
					}
				}
				defs := endToEnd
				if mode == "traced" {
					defs = perLayer
					if info, err := os.Stat(cfg.traceOut); err != nil || info.Size() == 0 {
						t.Errorf("no spans written: %v", err)
					}
				}
				for _, d := range defs {
					m, ok := r.Metrics[d.name]
					if !ok {
						t.Errorf("%s not emitted", d.name)
						continue
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", d.name, m.Value)
					}
					if m.Unit != d.unit {
						t.Errorf("%s has unit %q, want %q", d.name, m.Unit, d.unit)
					}
				}
				if mode == "untraced" {
					for _, d := range endToEnd {
						if r.Metrics[d.name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", d.name, r.Metrics[d.name].Value)
						}
					}
				}
			})
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
