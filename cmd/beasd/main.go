// Command beasd is the BEAS query daemon: it serves a database over
// HTTP/JSON with bound-based admission control (internal/server). Every
// request is checked first — the access bound is deduced from the query
// and the access schema before any data is touched — and queries over
// the budget are rejected, serialised, or downgraded to approximation
// per the configured policy.
//
// With -data the daemon is durable: the directory holds a write-ahead
// log plus snapshots (see the README's Durability section), every
// mutation is logged before it is acknowledged, boot recovers the last
// durable state (surviving kill -9), and SIGTERM/SIGINT take a final
// snapshot before exit. A directory of CSVs written by cmd/tlcgen is
// still recognised and served in-memory, as before.
//
// Usage:
//
//	beasd -tlc 2 -addr :7171 -budget 100000 -policy reject
//	beasd -data ./beasdata -tlc 2            # durable store, TLC-seeded once
//	beasd -data ./beasdata -snapshot-every 50000
//
// Observability: -trace records query-lifecycle span traces (GET /trace,
// /trace/<id>; every traced response carries an X-Beas-Trace-Id header),
// GET /metrics serves Prometheus text exposition, -slow-query-ms /
// -slow-query-fetch write a JSON-lines slow-query log, and -debug-addr
// serves net/http/pprof on a separate listener. Workload digests are on
// by default (-digest-topk; GET /digests aggregates per-fingerprint
// latency, bound utilisation and estimate drift), and -capture turns on
// the flight recorder: every admitted query is appended to a
// size-rotated JSON-lines capture that cmd/beasreplay can re-execute
// and diff against the recorded answers.
//
// Endpoints: POST /query, POST /check, POST /explain, GET /stats,
// GET /metrics, GET /trace, GET /digests, GET /healthz — see package
// internal/server for the wire format, and the README for an example
// curl session.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registered on the DefaultServeMux, served only via -debug-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	beas "github.com/bounded-eval/beas"
	"github.com/bounded-eval/beas/internal/cliutil"
	"github.com/bounded-eval/beas/internal/obs"
	"github.com/bounded-eval/beas/internal/server"
)

func main() {
	addr := flag.String("addr", ":7171", "listen address")
	tlcScale := flag.Int("tlc", 0, "generate a TLC instance at this scale and serve it")
	dataDir := flag.String("data", "", "durable data directory (WAL + snapshots; created if missing); a directory of tlcgen CSVs is loaded in-memory instead")
	snapEvery := flag.Int("snapshot-every", 0, "take a snapshot and truncate the WAL every N records (0 = default 100000, negative disables)")
	noSync := flag.Bool("nosync", false, "skip the per-record WAL fsync (faster; an OS crash may lose the newest writes)")
	budget := flag.Uint64("budget", 0, "admission budget on the deduced access bound, in tuples (0 = unlimited)")
	policy := flag.String("policy", "reject", "over-budget policy: reject, queue or approx")
	approxBudget := flag.Int64("approx-budget", 0, "fetch budget for approx downgrades (default: -budget)")
	workers := flag.Int("workers", 0, "max concurrent query executions (default: GOMAXPROCS)")
	optimizer := flag.Bool("optimizer", false, "enable the cost-based plan optimizer (statistics-driven fetch-step ordering and join planning; results are identical, admission bounds unchanged)")
	batchSize := flag.Int("batch-size", 0, "columnar batch row capacity for vectorized execution (0 = default 256)")
	resultCache := flag.Bool("result-cache", false, "enable the semantic result cache: repeat covered queries (and syntactic variants) are served from fresh materialized answers, kept fresh incrementally under mutations; results are identical")
	resultCacheBytes := flag.Int64("result-cache-bytes", 0, "byte budget of the result-cache answer tier (0 = default 64 MiB)")
	planCacheBytes := flag.Int64("plan-cache-bytes", 0, "byte budget of the parsed-template (plan) cache tier (0 = default 16 MiB)")
	queueDepth := flag.Int("queue-depth", 0, "max requests waiting for a worker (default 64)")
	timeout := flag.Duration("timeout", time.Minute, "per-query execution deadline; 0 disables it (a stalled client then holds the catalog read lock indefinitely)")
	allowUncovered := flag.Bool("allow-uncovered", false, "admit queries not covered by the access schema (no a-priori bound)")
	trace := flag.Bool("trace", false, "record query-lifecycle span traces (GET /trace, X-Beas-Trace-Id headers)")
	traceSample := flag.Float64("trace-sample", 0.01, "fraction of traces retained in the ring; slow and rejected queries are always kept (with -trace)")
	traceRing := flag.Int("trace-ring", 256, "number of recent traces retained for GET /trace/<id>")
	slowMS := flag.Int("slow-query-ms", 0, "log queries at least this slow as JSON lines (0 disables the latency test)")
	slowFetch := flag.Int64("slow-query-fetch", 0, "log queries fetching at least this many tuples (0 disables the volume test)")
	slowLogPath := flag.String("slow-query-log", "", "slow-query log file, appended to (default: stderr)")
	captureDir := flag.String("capture", "", "flight-recorder directory: every admitted query is appended as a JSON line for replay with beasreplay (empty disables)")
	captureBytes := flag.Int64("capture-bytes", 0, "capture segment rotation size in bytes (0 = default 8 MiB; the newest 8 segments are kept)")
	digestTopK := flag.Int("digest-topk", 128, "workload digests: retain the top K statement fingerprints by total execution time (GET /digests; <= 0 disables)")
	digestDrift := flag.Float64("digest-drift", 0, "flag a fingerprint as drifting when actual fetch volume differs from the optimizer estimate by this factor (0 = default 2)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty disables profiling)")
	flag.Parse()

	pol, err := server.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "beasd:", err)
		os.Exit(2)
	}
	db, err := cliutil.OpenDB(*tlcScale, *dataDir, &beas.Options{
		SnapshotEvery: *snapEvery,
		NoSync:        *noSync,
	}, func(format string, args ...any) {
		fmt.Printf("beasd: "+format+"\n", args...)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "beasd:", err)
		os.Exit(1)
	}
	if *optimizer {
		db.SetOptimizer(true)
	}
	if *batchSize > 0 {
		db.SetBatchSize(*batchSize)
	}
	if *resultCacheBytes > 0 || *planCacheBytes > 0 {
		db.SetResultCacheLimits(*planCacheBytes, *resultCacheBytes)
	}
	if *resultCache {
		db.SetResultCache(true)
	}

	var tracer *beas.Tracer
	if *trace {
		tracer = beas.NewTracer(beas.TracerOptions{
			SampleRate:    *traceSample,
			SlowThreshold: time.Duration(*slowMS) * time.Millisecond,
			RingSize:      *traceRing,
		})
		// Queries that bypass the HTTP layer (none today, but embedders
		// share the DB) get traced too.
		db.SetTracer(tracer)
	}
	if *digestTopK > 0 {
		d := beas.NewDigestSet(*digestTopK)
		if *digestDrift > 0 {
			d.SetDriftThreshold(*digestDrift)
		}
		db.SetDigests(d)
	}
	var capture *obs.Recorder
	if *captureDir != "" {
		capture, err = obs.NewRecorder(*captureDir, *captureBytes, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "beasd: opening capture dir:", err)
			os.Exit(1)
		}
		defer capture.Close()
		fmt.Printf("beasd: flight recorder on, capturing to %s\n", *captureDir)
	}
	var slowLog *obs.SlowLog
	if *slowMS > 0 || *slowFetch > 0 {
		slowW := os.Stderr
		if *slowLogPath != "" {
			f, err := os.OpenFile(*slowLogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintln(os.Stderr, "beasd: opening slow-query log:", err)
				os.Exit(1)
			}
			defer f.Close()
			slowW = f
		}
		slowLog = obs.NewSlowLog(slowW, time.Duration(*slowMS)*time.Millisecond, *slowFetch, nil)
	}

	srv := server.New(db, server.Config{
		MaxConcurrent:  *workers,
		QueueDepth:     *queueDepth,
		BoundBudget:    *budget,
		OverBudget:     pol,
		AllowUncovered: *allowUncovered,
		ApproxBudget:   *approxBudget,
		QueryTimeout:   *timeout,
		Tracer:         tracer,
		SlowQueryLog:   slowLog,
		Capture:        capture,
	})
	httpSrv := newHTTPServer(*addr, srv.Handler())

	// The pprof listener is separate from the service address on purpose:
	// profiles stay off the public surface unless explicitly exposed.
	if *debugAddr != "" {
		go func() {
			fmt.Printf("beasd: pprof on %s/debug/pprof/\n", *debugAddr)
			if err := newHTTPServer(*debugAddr, nil).ListenAndServe(); err != nil {
				fmt.Fprintln(os.Stderr, "beasd: debug listener:", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Shutdown makes ListenAndServe return immediately; drained signals
	// when in-flight requests have actually finished (or the grace
	// window expired), and main must wait for it before exiting.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutCtx)
	}()

	fmt.Printf("beasd: %d rows, %d constraints; budget=%s policy=%s optimizer=%v; listening on %s\n",
		db.TotalRows(), len(db.Constraints()), budgetStr(*budget), pol, db.OptimizerEnabled(), *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "beasd:", err)
		os.Exit(1)
	}
	<-drained
	// Snapshot-on-SIGTERM: Close writes a final snapshot of everything
	// not yet covered by one, so the next boot recovers instantly.
	if st := db.Durability(); st.Durable {
		fmt.Printf("beasd: closing store (%d records since last snapshot)\n", st.RecordsSinceSnapshot)
		if err := db.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "beasd: closing store:", err)
			os.Exit(1)
		}
	}
	fmt.Println("beasd: shut down")
}

func budgetStr(b uint64) string {
	if b == 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%d", b)
}

// Connection timeouts of both listeners. A client must finish sending its
// request headers within readHeaderTimeout, and an idle keep-alive
// connection is closed after idleTimeout, so a connection that never
// completes a request cannot be held open forever. There is deliberately
// no WriteTimeout: /query answers stream for as long as the query runs
// (bounded by -timeout), and pprof profiles for as long as asked.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the HTTP server for one listener address.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}
