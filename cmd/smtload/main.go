// Command smtload is the load generator and determinism checker for the
// smtsimd daemon: it fires N concurrent randomized-but-seeded sweep
// requests and asserts that every response is bit-identical to running
// the same spec sequentially in process — the daemon's scale proof and
// its correctness proof in one binary.
//
//	smtsimd -addr :8091 -cache-entries 64 &
//	smtload -addr http://127.0.0.1:8091 -n 32
//
// Spec generation is a pure function of (-seed, request index), so a run
// is exactly reproducible. Distinct specs use distinct simulation seeds
// and knob values (register file, ROB, L2 latency, policy), which makes
// every grid cell a distinct cache entry — against a small -cache-entries
// daemon this churns the LRU and drives evictions while the byte-equality
// assertion proves eviction never changes an answer. Each generated spec
// is requested -repeat times (concurrently with everything else), so the
// daemon also serves hits for entries that survived.
//
// Exit status 0 means every response matched its in-process reference;
// any mismatch or transport failure exits 1 after printing a diff
// summary. Ctrl-C (or SIGTERM) cancels the run's context — in-flight
// HTTP requests abort and the in-process reference sweeps stop at the
// next queued cell — and the process exits 130. On success the daemon's
// /v1/metrics document prints to stdout (ready for jq in CI), and
// per-request wall-clock latency percentiles (min/p50/p99/max) print to
// stderr. -client names this process in the daemon's X-Client header,
// keying its fair-queue accounting; unset, the daemon falls back to the
// remote address.
//
// -restart-check is the warm-restart proof for a daemon running with
// -store-dir: run smtload once against a fresh daemon (populating the
// persistent store), kill and restart the daemon on the same directory,
// then run smtload again with the same -seed plus -restart-check. The
// replay must be byte-identical as usual, AND the daemon must have
// simulated nothing: every cell served from disk (diskHits > 0,
// diskMisses == 0 in /v1/metrics), or smtload exits 1.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "smtsimd base URL")
	n := flag.Int("n", 16, "total concurrent requests")
	repeat := flag.Int("repeat", 2, "requests per distinct spec (>=2 exercises cache hits)")
	seed := flag.Uint64("seed", 1, "spec generation seed")
	traceLen := flag.Int("tracelen", 1500, "per-thread trace length pinned into every spec")
	timeout := flag.Duration("timeout", 5*time.Minute, "per-request timeout")
	restartCheck := flag.Bool("restart-check", false,
		"assert the daemon served every cell from its persistent store (diskHits > 0, diskMisses == 0)")
	clientName := flag.String("client", "", "client identity sent as the X-Client header (empty = none)")
	flag.Parse()
	if *n <= 0 || *repeat <= 0 {
		fmt.Fprintln(os.Stderr, "smtload: -n and -repeat must be positive")
		os.Exit(2)
	}

	// Ctrl-C cancels everything smtload has in flight — the HTTP requests
	// (so the daemon sees the disconnect and abandons un-started cells)
	// and the in-process reference runs — and exits 130, matching the
	// other CLIs.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	client := &http.Client{Timeout: *timeout}
	specs := (*n + *repeat - 1) / *repeat
	fmt.Fprintf(os.Stderr, "smtload: %d requests over %d distinct specs against %s\n", *n, specs, *addr)

	// Fire all requests concurrently first: the daemon must dedup the
	// in-flight duplicates (singleflight) and survive the churn.
	type reply struct {
		spec   int
		format string
		body   []byte
		err    error
		dur    time.Duration // request wall clock, success or not
	}
	replies := make([]reply, *n)
	var wg sync.WaitGroup
	for i := 0; i < *n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			si := i % specs
			g := newGen(*seed, si, *traceLen)
			r := &replies[i]
			r.spec, r.format = si, g.format
			start := time.Now()
			r.body, r.err = request(ctx, client, *addr, *clientName, g)
			r.dur = time.Since(start)
		}(i)
	}
	wg.Wait()

	// Latency summary before the verification pass: wall clock per request
	// as the client saw it, the number the fair queue actually moves.
	durs := make([]time.Duration, *n)
	for i := range replies {
		durs[i] = replies[i].dur
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	pct := func(p int) time.Duration { return durs[(len(durs)-1)*p/100] }
	fmt.Fprintf(os.Stderr, "smtload: latency min=%v p50=%v p99=%v max=%v\n",
		durs[0].Round(time.Millisecond), pct(50).Round(time.Millisecond),
		pct(99).Round(time.Millisecond), durs[len(durs)-1].Round(time.Millisecond))

	// Reference run: each distinct spec once, sequentially, in process,
	// on a fresh one-worker session per spec (no cross-spec cache, no
	// concurrency — the most boring execution possible).
	failures := 0
	for si := 0; si < specs; si++ {
		g := newGen(*seed, si, *traceLen)
		want, err := reference(ctx, g)
		if err != nil {
			if errors.Is(err, context.Canceled) && ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "smtload: interrupted")
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "smtload: spec %d reference run: %v\n", si, err)
			os.Exit(1)
		}
		for i := 0; i < *n; i++ {
			r := &replies[i]
			if r.spec != si {
				continue
			}
			if r.err != nil {
				failures++
				fmt.Fprintf(os.Stderr, "smtload: request %d (spec %d): %v\n", i, si, r.err)
				continue
			}
			if !bytes.Equal(r.body, want) {
				failures++
				fmt.Fprintf(os.Stderr,
					"smtload: request %d (spec %d, %s) DIVERGES from sequential in-process run\n got: %s\nwant: %s\n",
					i, si, r.format, excerpt(r.body), excerpt(want))
			}
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "smtload: %d/%d requests failed or diverged\n", failures, *n)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "smtload: %d/%d responses bit-identical to sequential in-process runs\n", *n, *n)

	resp, err := client.Get(strings.TrimRight(*addr, "/") + "/v1/metrics")
	if err != nil {
		fmt.Fprintf(os.Stderr, "smtload: metrics: %v\n", err)
		os.Exit(1)
	}
	metricsBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "smtload: metrics: %v\n", err)
		os.Exit(1)
	}
	os.Stdout.Write(metricsBody)

	if *restartCheck {
		// The byte-equality pass above proved the restarted daemon's
		// answers; this proves their provenance — all disk, zero fresh
		// simulations.
		var doc struct {
			DiskHits   uint64 `json:"diskHits"`
			DiskMisses uint64 `json:"diskMisses"`
		}
		if err := json.Unmarshal(metricsBody, &doc); err != nil {
			fmt.Fprintf(os.Stderr, "smtload: restart-check: decoding metrics: %v\n", err)
			os.Exit(1)
		}
		if doc.DiskHits == 0 || doc.DiskMisses != 0 {
			fmt.Fprintf(os.Stderr,
				"smtload: restart-check FAILED: diskHits=%d diskMisses=%d, want every cell served from the store (diskHits > 0, diskMisses == 0)\n",
				doc.DiskHits, doc.DiskMisses)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "smtload: restart-check OK: %d cells served from disk, 0 simulated\n", doc.DiskHits)
	}
}

// gen is one deterministic generated request: a spec plus its format.
type gen struct {
	spec   *scenario.Spec
	format string
}

// menus for the generator. Small trace lengths and 2-thread workloads
// keep a 32-request run in CI territory; distinct seeds per spec keep
// every cell a distinct cache key.
var (
	benches = []string{"art", "mcf", "swim", "twolf", "gzip", "bzip2", "gcc", "equake", "vpr", "crafty"}
	formats = []string{"ndjson", "json", "csv", "table"}
)

// newGen derives the spec for one index from the run seed. It must stay
// a pure function of its arguments: smtload calls it once on the request
// path and once on the verification path.
func newGen(seed uint64, index, traceLen int) gen {
	r := rand.New(rand.NewSource(int64(seed)*1_000_003 + int64(index)))
	pick := func(s []string) string { return s[r.Intn(len(s))] }

	// Two 2-thread workloads x one 3-point axis = 6 grid cells per spec;
	// with per-spec simulation seeds every cell is a distinct cache
	// entry, so a few dozen requests overflow a small daemon cache.
	pair := func() string { return pick(benches) + "+" + pick(benches) }
	simSeed := uint64(r.Intn(1_000_000) + 1)
	tl := traceLen
	mc := uint64(2_000_000)
	sp := &scenario.Spec{
		Name:      fmt.Sprintf("load-%d", index),
		Workloads: scenario.WorkloadSpec{Adhoc: []string{"A/" + pair(), "B/" + pair()}},
		Base:      scenario.Delta{TraceLen: &tl, Seed: &simSeed, MaxCycles: &mc},
		Metrics:   []string{"throughput", "l2mpki"},
	}
	axis := scenario.Axis{Name: "x"}
	addPoint := func(label string, d scenario.Delta) {
		axis.Points = append(axis.Points, scenario.Point{Label: label, Delta: d})
	}
	switch r.Intn(4) {
	case 0:
		for _, regs := range []int{96 + 32*r.Intn(3), 224, 320} {
			regs := regs
			addPoint(fmt.Sprintf("regs%d", regs), scenario.Delta{Regs: &regs})
		}
	case 1:
		for _, rob := range []int{64 + 32*r.Intn(3), 160, 256} {
			rob := rob
			addPoint(fmt.Sprintf("rob%d", rob), scenario.Delta{ROBSize: &rob})
		}
	case 2:
		for _, lat := range []uint64{uint64(10 + r.Intn(8)), 24, 30} {
			lat := lat
			addPoint(fmt.Sprintf("l2lat%d", lat), scenario.Delta{L2Lat: &lat})
		}
	case 3:
		for _, pol := range []string{"ICOUNT", "RaT", pick([]string{"STALL", "DCRA", "FLUSH"})} {
			pol := pol
			addPoint(pol, scenario.Delta{Policy: &pol})
		}
	}
	sp.Axes = []scenario.Axis{axis}
	return gen{spec: sp, format: formats[r.Intn(len(formats))]}
}

// request POSTs the generated spec and returns the response body. A
// non-empty clientName rides the X-Client header so the daemon
// attributes the request to this load generator by name. The context
// cancels the request mid-stream — exactly the disconnect the daemon's
// cancellation path exists to absorb.
func request(ctx context.Context, client *http.Client, addr, clientName string, g gen) ([]byte, error) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(g.spec); err != nil {
		return nil, err
	}
	url := strings.TrimRight(addr, "/") + "/v1/scenario?format=" + g.format
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, &body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if clientName != "" {
		req.Header.Set("X-Client", clientName)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, excerpt(out))
	}
	return out, nil
}

// reference renders the generated spec's expected bytes: a sequential
// (Workers=1) in-process execution on a fresh session, bounded by ctx —
// an interrupted smtload must not keep simulating reference grids.
func reference(ctx context.Context, g gen) ([]byte, error) {
	opt := experiments.Default()
	opt.Workers = 1
	s, err := experiments.NewSession(opt)
	if err != nil {
		return nil, err
	}
	rs, err := s.RunScenarioCtx(ctx, g.spec)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rs.Emit(&buf, g.format); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// excerpt truncates a body for diagnostics.
func excerpt(b []byte) string {
	const max = 300
	if len(b) <= max {
		return string(b)
	}
	return string(b[:max]) + fmt.Sprintf("... (%d bytes)", len(b))
}
