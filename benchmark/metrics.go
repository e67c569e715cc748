package main

// Metric names, units and directions — the vocabulary later issues use —
// plus the small statistics the runs need. BENCHMARK.json repeats the two
// lists (with each end-to-end bound); bench_test.go holds them equal.

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metricDef struct {
	name, unit, better string
}

// endToEnd are measured by the untraced run and gated by BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_ops_s", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p99_us", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are measured by the traced ledger run and reported, not
// gated. The first block are end-to-end numbers that belong to one or
// two workloads only; the contract wants every gated metric from every
// workload, so they are reported here (measured in the window where the
// workload has the mechanism, by a short probe on its instance where it
// does not).
var perLayer = []metricDef{
	{"fail_ratio", "ratio", "lower"},
	{"write_ack_p50_us", "us", "lower"},
	{"write_ack_p99_us", "us", "lower"},
	{"write_lateness_p99_us", "us", "lower"},
	{"recovery_s", "s", "lower"},
	{"flatness_ratio", "ratio", "lower"},
	{"baseline_speedup", "ratio", "higher"},

	{"sqlparser.parse_ns", "ns", "lower"},
	{"analyze.analyze_ns", "ns", "lower"},
	{"analyze.canonical_ns", "ns", "lower"},

	{"qcache.template_hit_ratio", "ratio", "higher"},
	{"qcache.template_get_ns", "ns", "lower"},
	{"qcache.template_evictions", "count", "lower"},
	{"qcache.result_hit_ratio", "ratio", "higher"},
	{"qcache.result_get_ns", "ns", "lower"},
	{"qcache.patches", "count", "higher"},
	{"qcache.invalidations", "count", "lower"},
	{"qcache.stores", "count", "lower"},
	{"qcache.mutation_overhead_ns", "ns", "lower"},

	{"core.check_ns", "ns", "lower"},
	{"core.checks_per_request", "count", "lower"},
	{"core.newplan_ns", "ns", "lower"},
	{"core.run_ns", "ns", "lower"},
	{"core.tuples_fetched_per_op", "count", "lower"},
	{"core.distinct_keys_per_op", "count", "lower"},
	{"core.bound_utilisation", "ratio", "higher"},

	{"opt.rewrite_ns", "ns", "lower"},
	{"opt.fetched_vs_greedy_ratio", "ratio", "lower"},

	{"access.fetch_ns_per_key", "ns", "lower"},
	{"access.rows_per_key", "count", "lower"},
	{"access.oninsert_ns", "ns", "lower"},
	{"access.footprint_bytes_per_row", "B", "lower"},

	{"exec.tail_ns", "ns", "lower"},
	{"exec.tail_rows_in_per_op", "count", "lower"},
	{"engine.run_ns", "ns", "lower"},
	{"engine.tuples_scanned_per_op", "count", "lower"},
	{"storage.scan_ns_per_krow", "ns", "lower"},
	{"storage.insert_ns", "ns", "lower"},

	{"wal.append_ns", "ns", "lower"},
	{"wal.fsync_ns", "ns", "lower"},
	{"wal.bytes_per_record", "B", "lower"},
	{"wal.fsyncs_per_mutation", "ratio", "lower"},
	{"wal.bytes_per_user_byte", "ratio", "lower"},
	{"wal.replay_ns_per_record", "ns", "lower"},

	{"server.handler_self_ns", "ns", "lower"},
	{"server.encode_ns_per_row", "ns", "lower"},
	{"server.bytes_out_per_op", "B", "lower"},
	{"server.check_stage_ns", "ns", "lower"},
	{"server.execute_stage_ns", "ns", "lower"},
	{"server.rejects", "count", "lower"},
	{"net.loopback_self_ns", "ns", "lower"},

	{"beas.query_ns", "ns", "lower"},
	{"beas.queryiter_drain_ns", "ns", "lower"},
	{"beas.facade_self_ns", "ns", "lower"},
	{"beas.allocs_per_op", "count", "lower"},
	{"beas.alloc_bytes_per_op", "B", "lower"},
	{"beas.lock_interference_ratio", "ratio", "lower"},

	{"runtime.gc_cpu_fraction", "ratio", "lower"},
	{"runtime.heap_inuse_mb", "MB", "lower"},
	{"ledger.coverage_ratio", "ratio", "higher"},
	{"trace.overhead_ratio", "ratio", "higher"},
}

var metricUnits = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			m[d.name] = d.unit
		}
	}
	return m
}()

// quantile returns the q-quantile (nearest rank) of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	sort.Float64s(out)
	return out
}

// tailQuantile is the highest percentile, at most p99, that still has
// ten samples beyond it — p99 itself from 1 000 samples on.
func tailQuantile(sorted []float64) (value, q float64) {
	q = 0.99
	if n := len(sorted); n < 1000 && n > 0 {
		q = math.Max(0.5, 1-10/float64(n))
	}
	return quantile(sorted, q), q
}

// rssMB reads the resident set size of this process.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssSampler tracks the resident-set high-water mark over an interval.
// VmHWM cannot be reset, and set-up is repeated before the window, so
// the peak is sampled instead: ten reads of /proc a second.
type rssSampler struct {
	stop chan struct{}
	done chan float64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := rssMB()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.done <- math.Max(peak, rssMB())
				return
			case <-t.C:
				peak = math.Max(peak, rssMB())
			}
		}
	}()
	return s
}

func (s *rssSampler) peak() float64 {
	close(s.stop)
	return <-s.done
}
