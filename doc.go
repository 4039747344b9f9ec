// Package repro is a from-scratch Go reproduction of "Runahead Threads to
// Improve SMT Performance" (Ramírez, Pajuelo, Santana, Valero; HPCA 2008).
//
// The repository contains a cycle-level SMT out-of-order processor
// simulator (internal/pipeline) configured per the paper's Table 1, the
// Runahead Threads mechanism that is the paper's contribution
// (internal/runahead plus the pipeline's dispatch/issue/commit hooks),
// every baseline policy it compares against (internal/policy: STALL,
// FLUSH; internal/rescontrol: DCRA, Hill Climbing), synthetic calibrated
// stand-ins for the SPEC CPU2000 workloads (internal/trace,
// internal/workload), the paper's metrics and FAME measurement methodology
// (internal/metrics, internal/core), and a harness that regenerates every
// figure of the evaluation (internal/experiments, cmd/experiments).
//
// The experiment harness is parallel: the paper's evaluation grid is a set
// of independent workload×policy simulations, and experiments.Session
// dispatches them onto a bounded worker pool (experiments.Options.Workers;
// 0 selects GOMAXPROCS) with singleflight deduplication, so figures that
// share runs still simulate each point exactly once. Both binaries expose
// the pool via a -j flag: `experiments -j 8` bounds concurrent
// simulations while regenerating figures, and `smtsim -fairness -j 4`
// parallelizes the single-thread reference runs. Results are bit-identical
// for any worker count — each simulation is deterministic and reductions
// collect in a fixed order — so -j trades nothing but wall-clock time.
// The simulator's per-cycle loop is allocation-free in steady state
// (instructions recycle through a per-core free list; see
// internal/pipeline/pool.go and BenchmarkStepAllocs).
//
// On top of the session sits a declarative scenario engine
// (internal/scenario): a Spec — loaded from JSON or built in code — names
// a workload selection (Table 2 groups and/or ad-hoc combinations like
// "art+mcf+swim+twolf"), a base delta, a set of crossed axes of typed
// configuration deltas reaching any core.Config knob (ROB size, cache
// geometry and latencies, machine width, issue queues, runahead tuning —
// not just the paper's policy and register-file axes), the metrics to
// reduce, and an output format. `experiments -scenario file.json -format
// json|csv|table` runs it end to end; examples/scenarios/ documents the
// schema and ships runnable sweeps. The session's simulation cache keys
// by the full canonical configuration (core.Config.Canonical), so
// scenario points, figure runs and repeated sweeps that describe the same
// machine share one simulation. The Fig1–Fig6 reproductions are
// themselves Spec instances plus their paper-specific reductions, with
// golden tests (internal/experiments/testdata) locking their text output,
// and cmd/smtsim runs its one cell as a one-point Spec. A spec is
// validated before anything simulates: unknown names, a machine no worker
// can build, a negative perGroup or warmupInsts, and a metric listed
// twice are errors.
//
// The engine is also served as a long-running daemon, cmd/smtsimd: POST a
// Spec to /v1/scenario and reduced rows stream back as NDJSON in a fixed
// workload-major order as each grid cell's simulation completes (or
// buffered as table/json/csv via ?format=). Each request is planned once
// (scenario.NewPlan: validated, workloads selected, grid expanded and
// fingerprinted) and the plan executes as is; streamed rows are flushed
// to the client only before the sweep waits on an unfinished simulation,
// so a fully cached replay leaves in one write. /v1/metrics reports cache
// hit/miss/eviction/in-flight counters and /healthz answers liveness
// probes. What makes the process safe to run indefinitely is
// internal/simcache, the session's simulation cache: an LRU keyed by
// (workload name, core.Config value) and bounded by entry count
// (experiments.Options.CacheEntries; smtsimd's -cache-entries, 4096 by
// default; 0 = unbounded, the cmd/experiments default). A result is at
// most about 1 KB, so the entry count bounds the cache's memory too. The
// singleflight contract is preserved — duplicate requests join one
// computation, in-flight simulations are never evicted, and eviction only
// ever costs recomputation because every simulation is deterministic.
// cmd/smtload is the proof harness: it fires N concurrent seeded sweep
// requests at a live daemon and asserts each response is bit-identical to
// a sequential in-process run of the same spec.
//
// # Persistent results
//
// Beneath the in-memory cache sits an optional on-disk tier,
// internal/resultstore (experiments.Options.StoreDir/StoreBytes;
// -store-dir/-store-bytes on smtsimd and cmd/experiments). Every
// simulation is a deterministic pure function of (workload,
// core.Config.Canonical()), so its result can be persisted and replayed:
// a memory-cache miss probes the store before simulating, and every
// completed simulation is written behind its result. The probe runs in
// the requester (Session.StartRunCtx), so a disk hit is fulfilled before
// the cell would queue: it never enters the work queue or wakes a
// worker, and only cells that simulate use the pool. An entry is a
// file named by the SHA-256 of its identity (the workload name and the
// full canonical configuration) and holds one envelope — magic,
// version, the identity echoed back, the encoded result and a CRC-32
// trailer. Anything unexpected on read (truncation, corruption, a stale
// version, an identity mismatch, a directory in the entry's place) is
// a clean miss that deletes the entry and recomputes, never a wrong
// answer; a file that cannot be opened at all is a miss left in place.
// Writes go to a temp file renamed into place; there is no fsync, so a
// crash may lose recent entries or leave a torn one, which the next read
// catches and recomputes — the resultstore package documentation states
// this durability contract in full. The store is byte-bounded:
// least-recently-accessed entries are deleted past StoreBytes, with
// recency persisted in file modification times. A killed-and-restarted
// smtsimd over the same -store-dir therefore serves previously-run
// sweeps byte-identically with zero new simulations (visible as
// diskHits with diskMisses == 0 in /v1/metrics, alongside diskBytes and
// diskEvictions), and several daemons may share one directory —
// `smtload -restart-check` proves the contract against a live daemon,
// and the restart-smoke CI job replays it on every push.
// A store directory removed under a running daemon is not recreated:
// writes fail and count as diskWriteErrors while every sweep is still
// served, which the same CI job checks after the replay.
//
// # Trace tier
//
// Instruction traces are the other deduplicated artifact. Every trace
// has a pure identity — (benchmark, length, per-context derived seed,
// address-space placement; workload.ContextOptions) — and
// internal/tracestore serves all of them with singleflight generation,
// so N grid cells that differ only in machine configuration share one
// generated trace instead of regenerating it N times, and a workload's
// single-thread fairness references reuse the context-0 traces the SMT
// runs already produced. The tier is a small recency LRU of at most
// MaxThreads × (workers+1) traces and 4 MiB per session
// (workload.MaxThreads, tracestore.DefaultMemBytes) that keeps recent
// traces between consecutive cells of one workload: cells run
// workload-major, so each worker needs one workload's traces at a time,
// plus one workload of slack (TestTraceTierBoundedByWorkers checks the
// bound under cold traffic). A figures run whose traces outgrow that
// bound, such as the -quick or full suite, may therefore regenerate a
// trace between figures, or while a cell still holds it; the results are
// the same either way. Traces live in memory only: one regenerates from
// its identity in a few milliseconds, and a restarted process serves its
// earlier cells from the result store without asking for a trace at all
// (TestRestartServesFromDisk checks that the restarted daemon generates
// none). Every cell runs through the one scalar path, core.RunTraced,
// against the session's tier; traces are immutable after generation, so
// sharing them cannot change a result. TestSweepSharesTraces locks the
// sharing (every identity generated exactly once, repeats served as
// hits), and the tier's counters are visible in /v1/metrics under
// "trace".
//
// # Scheduling and fairness
//
// The session's work queue is fair (internal/sched): a single FIFO would
// let one max-size sweep ahead of a one-cell request starve it for the
// whole sweep — head-of-line blocking in a daemon that simulates SMT
// fetch policies invented to prevent exactly that. The queue applies the
// paper's ICOUNT idea to the serving layer: each queued job carries a
// requester identity and a cell count, and workers pop the next job from
// the requester with the fewest cells currently in service, ties
// rotating round-robin toward the least recently served. A lone
// requester pops in push order. Identity reaches the queue as a context
// value (sched.WithRequester / sched.Requester): smtsimd stamps each
// request with its X-Client header or remote host, and the identity
// threads unchanged through scenario execution into every job the sweep
// queues — grid cells and fairness references alike. Scheduling only
// reorders execution, never results (simulations are deterministic and
// reductions collect in fixed order), so the bit-identity guarantees
// above hold for attributed and anonymous sweeps alike; the starvation
// regression test in internal/experiments locks the fix. The daemon
// reports the queue in /v1/metrics: "queued" (cells accepted but not yet
// started; the cache's inFlight counts them too) and a "scheduler"
// object with queued and in-service cells in total and per client. Only
// cells that simulate queue: memory and disk hits never appear there.
// cmd/smtload prints per-request latency percentiles (min/p50/p99/max)
// and takes -client to name itself.
//
// The fairness metric's single-thread reference is defined once, by
// core.Reference: the benchmark alone, under ICOUNT, on the SMT run's
// machine. core.RunSingle runs it directly; the scenario engine
// dispatches it through the session like any other cell, so references
// share the canonical-config cache and collapse across policies.
//
// # Cancellation and shutdown
//
// Execution is cancellation-correct at every layer. The session's worker
// pool is the fair queue drained by at most Workers goroutines (spawned
// on demand, exiting when idle), and every dispatch entry point takes a
// context — experiments.Session.StartRunCtx / RunScenarioCtx,
// scenario.ExecuteStreamCtx (over a scenario.Plan),
// simcache.Cache.BeginCtx / Call.WaitCtx — threading the requester's
// context down to the queue.
// When every requester interested in a queued cell has canceled before a
// worker picks it up, the cell is abandoned: never simulated, its key
// freed for recomputation, its waiters failed with the cancellation
// error (simcache.Cache.Abandon; the abandoned count surfaces as cache
// "canceled" in metrics). A cell already running always finishes and
// populates the cache — results are deterministic and shared, so
// completing them is never waste. For smtsimd this means a client that
// disconnects mid-sweep stops consuming the pool: queued cells die, the
// request counts under the "canceled" /v1/metrics counter (client
// behavior, distinct from "failures", which is simulator trouble), and
// live requests are unaffected. SIGINT/SIGTERM shut the daemon down
// gracefully — the listener closes, in-flight responses drain up to
// -drain, then the process exits 0 — while cmd/experiments, cmd/smtsim
// and cmd/smtload treat Ctrl-C as cancellation of the same session
// context (queued simulations never start; exit status 130).
//
// # Static analysis and invariants
//
// The contracts above are held by tests that run the real code: the
// figure goldens, TestResultsPinnedExactly, the Workers=1 vs GOMAXPROCS
// byte-equality tests, the cancellation tests and the fuzz corpora.
// Where a bug once passed all of them, a test was added rather than a
// lint rule: sessions that never drain their queue prove every wait
// honours its context, a recording runner proves every dispatch carries
// the requester, figure results with twelve groups prove the renderers
// follow Groups rather than a map, a reopen test pins resultstore's
// oldest-mtime-first adoption, and the result codec's damaged-input
// test feeds an impossible thread count. FuzzRun in internal/scenario
// draws configuration deltas: each is rejected by plan-time validation
// (core.Config.Validate, which checks the trace length, FAME iteration
// and warm-up bounds and the pipeline the policy implies, including the
// completion-wheel bound on latencies and the cap on the delays added to
// the cycle count) or runs without panicking, with finite metrics and a
// repeatable Result. FuzzMetamorphic in internal/core checks exact
// relations between policies on drawn configurations, in paranoid mode:
// with one thread RR equals ICOUNT, and on a run with no L2-miss load
// every policy that reacts only to L2 misses equals ICOUNT.
//
// One lint-time check is left, by design: nowallclock forbids wall-clock
// reads and global math/rand in the simulation packages, where
// internal/rng and the cycle counter are the only sanctioned sources of
// nondeterminism. `go test ./internal/analysis/...` runs it: TestLintClean
// lists the module's packages, parses them with go/parser (the check
// resolves package names through each file's import table, so nothing
// is type-checked) and must find nothing. There is no suppression
// directive.
// See internal/analysis/README.md.
//
// # Concurrency invariants
//
// The serving layers — a singleflight cache, a fair scheduler, a worker
// pool and one disk tier — hold three mutexes (resultstore, simcache,
// experiments) and start goroutines in two places (the experiments
// worker pool and the daemon's listener). Their contracts are enforced
// dynamically, by gates that run the real code:
//
//   - CI runs the whole suite under `go test -race -timeout 5m`. The
//     race detector catches unsynchronized access. A lock left held on
//     some return path shows up as a deadlocked test, and the timeout
//     turns that into a failure with every goroutine's stack instead of
//     a hung job.
//   - internal/leakcheck, a stdlib-only reduction of go.uber.org/goleak,
//     gates the suites of sched, simcache, resultstore, tracestore,
//     experiments and cmd/smtsimd: TestMain diffs live goroutines
//     against the pre-suite baseline, and the heavy concurrency tests
//     defer a per-test check. A goroutine counts as the test's if code
//     under test started it, wherever it is parked, so a fire-and-forget
//     write, a worker that never leaves its loop and a wait on a context
//     nobody cancels all fail the run.
//   - The daemon exposes a "goroutines" gauge in /v1/metrics, and CI's
//     leak-smoke step asserts the count returns to its post-startup
//     baseline after a full smtload run.
//
// No gate proves lock order. Each package holds at most one mutex and
// the import graph has no cycles, so an inversion needs a callback run
// under a lock that takes another package's lock; simcache's sizeOf,
// which settle calls under the cache mutex, must stay lock-free.
//
// examples/scenarios/README.md documents the scenario format and the
// daemon, internal/analysis/README.md the lint suite, and bench/README.md
// the benchmark.
package repro
