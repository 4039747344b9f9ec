// Command smtsimd serves the scenario engine as a long-running HTTP/JSON
// daemon: clients POST declarative sweep specs and receive reduced
// results, with every simulation deduplicated and cached across requests
// by full canonical machine configuration.
//
//	smtsimd -addr :8080 -cache-entries 4096 -j 8
//
// API:
//
//	POST /v1/scenario[?format=ndjson|table|json|csv]
//	    Body: a scenario.Spec JSON document (same schema as the
//	    -scenario flag of cmd/experiments; see examples/scenarios/).
//	    The default format streams reduced rows as NDJSON — one JSON
//	    object per grid cell, in a fixed workload-major order that is
//	    bit-identical for any worker count. Rows are flushed to the
//	    client before the sweep waits on a simulation that has not
//	    finished (a grid cell or a fairness reference), not per row: a
//	    finished row never waits behind a running cell, and a fully
//	    cached replay goes out in one write. table, json and csv buffer
//	    the full result set before writing. Every distinct body is
//	    decoded and planned once (scenario.NewPlan): its plan is cached
//	    by the body's bytes for the daemon's life, within fixed entry
//	    and byte bounds, and every request with that body, in any
//	    format, executes the cached plan. Spec errors (anything after
//	    the spec document included) return 400 with a JSON {"error"}
//	    body, and a body over -max-body returns 413; simulation
//	    failures return 500 (buffered formats) or an {"error"} NDJSON
//	    line terminating the stream.
//	GET /v1/metrics
//	    Cache hit/miss/eviction/in-flight counters, configured bounds,
//	    request/row totals, the plan cache's counters (under "plans"),
//	    the trace tier's hit/miss/generated counters (under "trace"),
//	    and (when -store-dir is set) the persistent store's
//	    diskHits/diskMisses/diskBytes/diskEvictions, as JSON.
//	GET /healthz
//	    Liveness probe; 200 "ok".
//
// The process is safe to run indefinitely: the simulation cache is an
// LRU bounded by -cache-entries (internal/simcache; 0 = unbounded), so
// arbitrary client sweeps recycle memory instead of growing the process,
// while in-flight simulations are never evicted and repeated identical
// sweeps stay cache hits. A cached result is at most about 1 KB, so the
// 4096-entry default holds a few MB.
//
// With -store-dir the daemon adds a persistent on-disk tier beneath the
// memory cache (internal/resultstore): every completed simulation is
// written behind its result, a memory miss probes the store in the
// request's own handler before the cell would queue (a disk hit never
// reaches the work queue or a worker), and -store-bytes bounds the
// directory's footprint (least-recently-accessed entries are deleted
// past it). Simulations are
// deterministic pure functions of (workload, config), so a killed and
// restarted daemon — or a second daemon sharing the directory — serves
// previously-run sweeps byte-identically without re-simulating them;
// `smtload -restart-check` proves exactly that against a live daemon.
//
// Generated instruction traces are served from an in-memory trace tier
// shared by every cell of every sweep: N configurations of one workload
// generate the trace once, and single-thread fairness references reuse
// the traces their SMT runs already generated. The tier is a recency LRU
// of at most MaxThreads × (workers+1) traces and 4 MiB
// (workload.MaxThreads, -j, tracestore.DefaultMemBytes), so cold traffic
// of distinct specs does not accumulate traces. Traces are never
// written to disk: a restarted daemon serves its earlier cells from
// -store-dir and needs no trace for them. The -trace-dir flag is
// accepted and ignored, so scripts that still pass it keep starting; the
// daemon logs that it ignores it and creates nothing there.
//
// The result store keeps each result in a checksummed entry envelope
// (magic, version, identity echo, payload, CRC-32), with atomic
// temp-file-then-rename writes, byte-bounded LRU eviction, and corrupt,
// torn or stale files read as misses that are deleted and recomputed.
// The resultstore package documentation states the durability contract:
// no fsync, so a crash costs recomputation, never a wrong answer. If the
// -store-dir directory is removed under a running daemon, the daemon does
// not recreate it: every later write fails and counts in diskWriteErrors,
// every later disk probe misses, and sweeps are still served, simulated
// or from the memory cache. Restarting the daemon recreates the directory.
//
// Scheduling across clients is fair: each request is attributed to a
// client identity (the X-Client header when present, otherwise the
// remote address) and the session's work queue interleaves queued jobs
// ICOUNT-style — the client with the fewest grid cells in service pops
// next — so a one-cell probe submitted behind a 4096-cell sweep is
// served long before the sweep drains. Scheduling only reorders
// execution, never results. /v1/metrics reports the queue depth
// ("queued"), the queue's per-client accounting ("scheduler") and the
// live goroutine count ("goroutines") — a leak gauge that returns to its
// post-startup baseline when the daemon goes idle.
//
// Cancellation is first-class: every sweep executes under its request's
// context, so a client that disconnects mid-sweep stops consuming the
// shared worker pool — grid cells not yet started are never simulated
// (they count in /v1/metrics as cache.canceled), while cells already
// running finish and stay cached for the next request. Client
// disconnects count under "canceled" in /v1/metrics, not "failures".
// SIGINT/SIGTERM shut the daemon down gracefully: the listener closes,
// in-flight responses drain up to -drain, then the process exits 0.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/simcache"
	"repro/internal/tracestore"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	entries := flag.Int("cache-entries", 4096, "simulation cache entry bound (0 = unbounded)")
	workers := flag.Int("j", 0, "concurrent simulations (0 = all cores)")
	traceLen := flag.Int("tracelen", 0, "default per-thread trace length (specs may override via base.traceLen)")
	maxBody := flag.Int64("max-body", 1<<20, "maximum request body size in bytes")
	maxCells := flag.Int64("max-cells", 4096, "maximum grid cells (workloads x combos) per request (0 = unbounded)")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown deadline for in-flight responses")
	storeDir := flag.String("store-dir", "", "persistent on-disk result store directory (empty = disabled)")
	storeBytes := flag.Int64("store-bytes", 0, "on-disk result store byte bound (0 = unbounded)")
	traceDir := flag.String("trace-dir", "", "ignored: traces are kept in memory only (accepted so existing scripts still start)")
	flag.Parse()
	rejectNegative("cache-entries", "j", "tracelen", "max-body", "max-cells",
		"drain", "store-bytes")
	if *traceDir != "" {
		log.Printf("smtsimd: -trace-dir %s ignored: traces are kept in memory only", *traceDir)
	}

	opt := experiments.Default()
	if *traceLen > 0 {
		opt.TraceLen = *traceLen
	}
	opt.Workers = *workers
	opt.CacheEntries = *entries
	opt.StoreDir = *storeDir
	opt.StoreBytes = *storeBytes

	srv, err := newServer(opt, *maxBody)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv.maxCells = *maxCells
	if *storeDir != "" {
		log.Printf("smtsimd persistent result store at %s (bound %d bytes)", *storeDir, *storeBytes)
	}
	log.Printf("smtsimd listening on %s (cache bound: %d entries)", *addr, *entries)
	// No WriteTimeout: NDJSON responses legitimately stream for as long
	// as a sweep simulates. Header and idle timeouts still bound what a
	// stalled or idle client can pin.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	log.Printf("smtsimd: signal received; draining in-flight responses (deadline %v)", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		// The drain deadline passed with responses still streaming: cut
		// them off so the process cannot hang past its deadline.
		log.Printf("smtsimd: drain deadline exceeded, closing: %v", err)
		hs.Close()
		os.Exit(1)
	}
	log.Printf("smtsimd: shutdown complete")
}

// rejectNegative exits 2 naming the first of the given flags that holds
// a negative value: no size, count or bound means anything below zero,
// and reading one as 0 or as the default would hide the mistake.
func rejectNegative(names ...string) {
	for _, name := range names {
		if v := flag.Lookup(name).Value.String(); strings.HasPrefix(v, "-") {
			fmt.Fprintf(os.Stderr, "invalid value %s for flag -%s: must not be negative\n", v, name)
			os.Exit(2)
		}
	}
}

// The plan cache's bounds. They are fixed, not flags: a plan costs a few
// KiB, and a working set of repeated bodies far smaller than the entry
// bound already hits.
const (
	planEntries = 64
	planBytes   = 4 << 20
)

// server is the daemon state: one experiment session (worker pool +
// bounded simulation cache) shared by every request, the plan cache,
// and serving counters for /v1/metrics.
type server struct {
	session  *experiments.Session
	maxBody  int64
	maxCells int64

	// plans maps a request body to its planning outcome. maxCells and the
	// session are fixed once the daemon serves, so an outcome is a pure
	// function of the body.
	plans *simcache.Cache[string, planned]

	requests atomic.Uint64 // scenario requests accepted
	failures atomic.Uint64 // scenario requests that failed simulating
	canceled atomic.Uint64 // scenario requests cut short by the client
	rows     atomic.Uint64 // reduced rows served
}

// newServer builds the daemon around a fresh session.
func newServer(opt experiments.Options, maxBody int64) (*server, error) {
	s, err := experiments.NewSession(opt)
	if err != nil {
		return nil, fmt.Errorf("smtsimd: %w", err)
	}
	if maxBody <= 0 {
		maxBody = 1 << 20
	}
	return &server{
		session:  s,
		maxBody:  maxBody,
		maxCells: 4096,
		plans:    simcache.New[string](planEntries, planBytes, func(p planned) int64 { return p.bytes }),
	}, nil
}

// planned is one request body's planning outcome: its plan, or the spec
// error the body earns (a 400), and the bytes the cache entry retains,
// the body itself included.
type planned struct {
	plan  *scenario.Plan
	err   error
	bytes int64
}

// plan returns body's plan, decoding and planning it only on the body's
// first sighting. ExecuteStreamCtx only reads a plan, so concurrent
// requests with the same body, in any format, share one.
func (s *server) plan(ctx context.Context, body []byte) (*scenario.Plan, error) {
	call, created := s.plans.BeginCtx(ctx, string(body))
	if created {
		out := planned{bytes: int64(len(body))}
		sp, err := scenario.Decode(bytes.NewReader(body))
		if err == nil {
			// Pre-flight the full grid: an invalid spec or machine
			// configuration, or an oversized cross-product, is the
			// client's error and must be a 400, not a mid-stream failure
			// line (or a daemon-sized allocation).
			out.plan, err = scenario.NewPlan(s.session, sp, s.maxCells)
		}
		out.err = err
		if out.plan != nil {
			out.bytes += out.plan.SizeBytes()
		}
		call.Fulfill(out, nil)
	}
	out, err := call.WaitCtx(ctx)
	if err != nil {
		return nil, err
	}
	return out.plan, out.err
}

// clientID attributes a request to a client identity: the X-Client
// header when the client names itself (smtload -client, the CI smoke
// jobs), otherwise the remote host. The fair queue keys on this
// identity.
func (s *server) clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// handler routes the three endpoints.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/scenario", s.handleScenario)
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// handleScenario validates and executes one sweep.
func (s *server) handleScenario(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST a scenario spec"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		// An oversized body is its own condition (413), not a malformed
		// spec (400): the client must shrink the request, not fix it.
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", s.maxBody))
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("scenario: %w", err))
		return
	}
	// The plan is executed as is, whatever the format.
	plan, err := s.plan(r.Context(), body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = plan.Spec.Format
	}
	if format == "" {
		format = "ndjson"
	}
	if err := scenario.CheckFormat(format); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.requests.Add(1)

	// The request's context threads through every execution layer: when
	// the client disconnects (or the connection dies), cells of this
	// sweep not yet started are never simulated, the wait aborts, and
	// the request counts as canceled, not failed. The client identity
	// rides the same context so the session's fair queue attributes every
	// job this sweep queues — references included.
	ctx := sched.WithRequester(r.Context(), s.clientID(r))
	if format == "ndjson" {
		s.streamScenario(ctx, w, plan)
		return
	}
	// Buffered formats complete the sweep before the first byte, so a
	// simulation failure can still surface as a clean 500.
	rs, err := scenario.ExecuteStreamCtx(ctx, plan, nil, nil)
	if err != nil {
		if s.clientGone(ctx, err) {
			return // nobody is listening for a status line
		}
		s.failures.Add(1)
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	switch format {
	case "table":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	case "json":
		w.Header().Set("Content-Type", "application/json")
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
	}
	// Emit through a writer that marks connection failures with
	// errClientWrite, so a dead client (canceled) is distinguishable from
	// a server-side render/encode failure (failures) — the same
	// classification the streaming path applies per row. Rows count only
	// once the whole render lands: counting len(rs.Rows) up front credited
	// failed writes with every row while the NDJSON path counted only
	// successfully encoded ones.
	if err := rs.Emit(clientWriter{w}, format); err != nil {
		s.countEmitError(ctx, err)
		return
	}
	s.rows.Add(uint64(len(rs.Rows)))
}

// countEmitError classifies a failure to emit a completed sweep: client
// write trouble (dead connection, canceled request) counts as canceled,
// anything else — a server-side render or encode failure — as failures,
// per the metricsDoc contract.
func (s *server) countEmitError(ctx context.Context, err error) {
	if !s.clientGone(ctx, err) {
		s.failures.Add(1)
	}
}

// clientWriter wraps a buffered response so that connection-write errors
// inside ResultSet.Emit surface wrapped in errClientWrite. Emitters only
// ever see this writer fail on the transport, so any other error they
// return is the server's own rendering trouble.
type clientWriter struct{ w io.Writer }

func (cw clientWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	if err != nil {
		return n, fmt.Errorf("%w: %v", errClientWrite, err)
	}
	return n, nil
}

// errClientWrite marks a response-write failure on the streaming path: a
// dead connection surfaces there (EPIPE, reset) possibly before net/http
// cancels the request context, and must still count as the client going
// away rather than as simulator trouble.
var errClientWrite = errors.New("client write failed")

// clientGone classifies a sweep error: if the request's context died
// (client disconnect, connection reset, server Close) or the response
// write itself failed, the request counts as canceled — a client
// behavior, not a simulation failure — and clientGone reports true after
// counting it.
func (s *server) clientGone(ctx context.Context, err error) bool {
	if ctx.Err() == nil && !errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, errClientWrite) {
		return false
	}
	s.canceled.Add(1)
	return true
}

// streamScenario writes NDJSON rows as grid cells complete. Rows
// collect in the response's buffer and are flushed only when the sweep
// is about to wait on a simulation that has not finished, so a fully
// cached replay goes out in one write while a finished row never sits
// behind a running cell. The status line goes out before the sweep
// finishes, so a mid-sweep simulation failure is reported as a terminal
// {"error"} line instead of a 500.
func (s *server) streamScenario(ctx context.Context, w http.ResponseWriter, plan *scenario.Plan) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := scenario.NewRowEncoder(w, plan.Spec)
	var flush func()
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	_, err := scenario.ExecuteStreamCtx(ctx, plan, func(row scenario.Row) error {
		if err := enc.Encode(row); err != nil {
			return fmt.Errorf("%w: %v", errClientWrite, err)
		}
		s.rows.Add(1)
		return nil
	}, flush)
	if err != nil && !s.clientGone(ctx, err) {
		s.failures.Add(1)
		json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
	}
}

// metricsDoc is the /v1/metrics wire shape. The cache object is the
// result cache's view; it is bounded by entries only, so its bytes and
// maxBytes read 0. Failures counts sweeps that failed simulating or
// emitting; Canceled counts sweeps cut short by the client going away
// (disconnects, resets) — the two are never conflated, so a flaky client
// population cannot masquerade as simulator trouble.
// The disk* fields describe the persistent result store and stay zero
// when -store-dir is unset: diskHits are memory-cache misses served from
// disk without simulating, diskMisses are probes that fell through to a
// fresh simulation, diskBytes/diskEvictions track the bounded footprint,
// and diskWriteErrors counts results that failed to persist (write-behind
// is best-effort, so a full or read-only store dir shows up here — and
// nowhere else — before a restart re-simulates everything).
// The trace object reports the shared trace tier: hits/misses/generated
// count how often a grid cell's instruction traces were served from
// memory versus generated fresh; entries/bytes/evictions describe its
// recency tier, and maxEntries/maxBytes its bounds: at most
// MaxThreads × (workers+1) traces and 4 MiB.
// The plans object is the plan cache's view: a hit is a request whose
// body was already decoded and planned, so hits/(hits+misses) is the
// share of repeated bodies.
// Goroutines is the process's live goroutine count — a leak gauge: it
// returns to its post-startup baseline when the daemon is idle, so CI's
// leak-smoke step (and any monitor) can assert sweeps do not strand
// workers, waiters or response plumbing.
// Queued counts grid cells accepted into the work queue but not yet
// picked up by a worker, so a daemon sitting on a deep backlog does not
// report an idle picture. The scheduler object is the work queue's own
// view: queued jobs/cells, in-service cells, and per-client queued/
// in-service accounting (active clients only). Both count only cells
// that simulate: a memory hit never queues, and a disk hit is read in
// the request's handler and never queues either, so a restarted daemon
// replaying stored sweeps reads zero here while diskHits grows.
type metricsDoc struct {
	Cache           simcache.Stats   `json:"cache"`
	Plans           simcache.Stats   `json:"plans"`
	Requests        uint64           `json:"requests"`
	Failures        uint64           `json:"failures"`
	Canceled        uint64           `json:"canceled"`
	Rows            uint64           `json:"rows"`
	Goroutines      int              `json:"goroutines"`
	Queued          int              `json:"queued"`
	DiskHits        uint64           `json:"diskHits"`
	DiskMisses      uint64           `json:"diskMisses"`
	DiskBytes       int64            `json:"diskBytes"`
	DiskEvictions   uint64           `json:"diskEvictions"`
	DiskWriteErrors uint64           `json:"diskWriteErrors"`
	Trace           tracestore.Stats `json:"trace"`
	Scheduler       sched.Snapshot   `json:"scheduler"`
}

// handleMetrics reports cache effectiveness and serving counters.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	disk := s.session.StoreStats()
	schedSnap := s.session.SchedStats()
	enc.Encode(metricsDoc{
		Cache:           s.session.CacheStats(),
		Plans:           s.plans.Stats(),
		Requests:        s.requests.Load(),
		Failures:        s.failures.Load(),
		Canceled:        s.canceled.Load(),
		Rows:            s.rows.Load(),
		Goroutines:      runtime.NumGoroutine(),
		Queued:          schedSnap.QueuedCells,
		DiskHits:        disk.Hits,
		DiskMisses:      disk.Misses,
		DiskBytes:       disk.Bytes,
		DiskEvictions:   disk.Evictions,
		DiskWriteErrors: disk.WriteErrors,
		Trace:           s.session.TraceStats(),
		Scheduler:       schedSnap,
	})
}
