package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/leakcheck"
	"repro/internal/scenario"
)

// testSpec is a small two-axis sweep touching two workloads; traceLen and
// seed are pinned in the spec so results do not depend on daemon options.
const testSpec = `{
  "name": "daemon-test",
  "workloads": {"adhoc": ["art+mcf", "gzip+bzip2"]},
  "base": {"traceLen": 1500, "maxCycles": 2000000, "seed": 7},
  "axes": [
    {"name": "rob", "points": [
      {"label": "64", "delta": {"robSize": 64}},
      {"label": "128", "delta": {"robSize": 128}}
    ]}
  ],
  "metrics": ["throughput", "l2mpki"]
}`

// testOptions keeps daemon tests fast.
func testOptions() experiments.Options {
	o := experiments.Quick()
	o.TraceLen = 1500
	return o
}

// newTestServer starts an httptest daemon over the given options.
func newTestServer(t *testing.T, opt experiments.Options) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(opt, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a scenario and returns status and body.
func post(t *testing.T, url, spec string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, testOptions())
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
}

func TestScenarioBadRequests(t *testing.T) {
	_, ts := newTestServer(t, testOptions())
	for name, tc := range map[string]struct {
		url, body string
		want      int
	}{
		"malformed JSON":  {ts.URL + "/v1/scenario", "{", http.StatusBadRequest},
		"unknown field":   {ts.URL + "/v1/scenario", `{"name":"x","bogus":1}`, http.StatusBadRequest},
		"missing name":    {ts.URL + "/v1/scenario", `{}`, http.StatusBadRequest},
		"unknown bench":   {ts.URL + "/v1/scenario", `{"name":"x","workloads":{"adhoc":["nope"]}}`, http.StatusBadRequest},
		"unknown format":  {ts.URL + "/v1/scenario?format=xml", testSpec, http.StatusBadRequest},
		"oversized combo": {ts.URL + "/v1/scenario", `{"name":"x","axes":[{"name":"a","points":[{"delta":{"robSize":0}}]}],"base":{"robSize":-1}}`, http.StatusBadRequest},
		"trailing spec":   {ts.URL + "/v1/scenario", testSpec + ` {"name":"y"}`, http.StatusBadRequest},
		"trailing junk":   {ts.URL + "/v1/scenario", testSpec + ` garbage`, http.StatusBadRequest},
		// Latencies past the completion wheel and a runahead cache the
		// policy enables with no entries: rejected at plan time, before
		// any worker simulates them.
		"memLatency 1100": {ts.URL + "/v1/scenario", `{"name":"memlat","workloads":{"groups":["MEM2"],"perGroup":1},"base":{"traceLen":2000},"axes":[{"name":"mem","points":[{"delta":{"memLatency":1100}}]}],"metrics":["throughput"]}`, http.StatusBadRequest},
		"fpDivLat 5000":   {ts.URL + "/v1/scenario", `{"name":"fpdiv","workloads":{"groups":["MEM2"],"perGroup":1},"base":{"traceLen":2000,"fpDivLat":5000}}`, http.StatusBadRequest},
		"racache 0":       {ts.URL + "/v1/scenario", `{"name":"racache","workloads":{"groups":["MEM2"],"perGroup":1},"base":{"traceLen":2000,"policy":"RaT-racache","raCacheEntries":0}}`, http.StatusBadRequest},
		// Structures no worker can allocate, which would take the daemon
		// down with it.
		"negative l2KB":  {ts.URL + "/v1/scenario", `{"name":"l2neg","workloads":{"groups":["MEM2"],"perGroup":1},"base":{"traceLen":2000,"l2KB":-1,"l2Ways":18014398509481983}}`, http.StatusBadRequest},
		"1 PiB L2":       {ts.URL + "/v1/scenario", `{"name":"l2pib","workloads":{"groups":["MEM2"],"perGroup":1},"base":{"traceLen":2000,"l2KB":1099511627776,"l2Ways":2}}`, http.StatusBadRequest},
		"robSize 2^62+1": {ts.URL + "/v1/scenario", `{"name":"rob","workloads":{"groups":["MEM2"],"perGroup":1},"base":{"traceLen":2000,"robSize":4611686018427387905}}`, http.StatusBadRequest},
		// Measurement knobs past their caps: a trace no worker can make,
		// and a FAME span that wraps to 0 and reports an empty window.
		"traceLen 2^40":      {ts.URL + "/v1/scenario", `{"name":"tl","workloads":{"groups":["MEM2"],"perGroup":1},"base":{"traceLen":1099511627776}}`, http.StatusBadRequest},
		"wrapping FAME span": {ts.URL + "/v1/scenario", `{"name":"fame","workloads":{"groups":["MEM2"],"perGroup":1},"base":{"traceLen":16384,"minIterations":1125899906842624}}`, http.StatusBadRequest},
		// Delays that would wrap the cycle count to a few cycles.
		"mispredictRedirect 2^64-1": {ts.URL + "/v1/scenario", `{"name":"redirect","workloads":{"groups":["MEM2"],"perGroup":1},"base":{"traceLen":2000,"mispredictRedirect":18446744073709551615}}`, http.StatusBadRequest},
		"frontEndDepth 2^64-1":      {ts.URL + "/v1/scenario", `{"name":"frontend","workloads":{"groups":["MEM2"],"perGroup":1},"base":{"traceLen":2000,"frontEndDepth":18446744073709551615}}`, http.StatusBadRequest},
		"raExitPenalty 2^64-1":      {ts.URL + "/v1/scenario", `{"name":"raexit","workloads":{"groups":["MEM2"],"perGroup":1},"base":{"traceLen":2000,"policy":"RaT","raExitPenalty":18446744073709551615}}`, http.StatusBadRequest},
		// A negative count that would run the whole group, and a negative
		// warm-up that would run as the default under another fingerprint.
		"negative perGroup":    {ts.URL + "/v1/scenario", `{"name":"pg","workloads":{"groups":["MEM2"],"perGroup":-2},"base":{"traceLen":2000}}`, http.StatusBadRequest},
		"negative warmupInsts": {ts.URL + "/v1/scenario", `{"name":"warm","workloads":{"groups":["MEM2"],"perGroup":1},"base":{"traceLen":2000,"warmupInsts":-5}}`, http.StatusBadRequest},
	} {
		status, body := post(t, tc.url, tc.body)
		if status != tc.want {
			t.Errorf("%s: status = %d (body %s), want %d", name, status, body, tc.want)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: body %q is not a JSON error", name, body)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz after the bad requests: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status after the bad requests = %d", resp.StatusCode)
	}
	if method, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/scenario", nil); method != nil {
		resp, err := http.DefaultClient.Do(method)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/scenario status = %d, want 405", resp.StatusCode)
		}
	}
}

// TestGridBound: a cross-product beyond the cell bound is rejected up
// front, before any simulation or grid allocation.
func TestGridBound(t *testing.T) {
	s, ts := newTestServer(t, testOptions())
	s.maxCells = 3
	status, body := post(t, ts.URL+"/v1/scenario", testSpec) // 2 workloads x 2 combos = 4 cells
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d (body %s), want 400", status, body)
	}
	if !strings.Contains(string(body), "more than 3 cells") {
		t.Errorf("body %s does not name the cell bound", body)
	}
	// A spec with no axes is still bounded: its cell count is its
	// workload count.
	noAxes := `{"name":"x","workloads":{"adhoc":["A/art+mcf","B/art+mcf","C/art+mcf","D/art+mcf"]}}`
	if status, body := post(t, ts.URL+"/v1/scenario", noAxes); status != http.StatusBadRequest {
		t.Errorf("no-axes spec: status = %d (body %s), want 400", status, body)
	}
}

// mustSession is an in-process session over testOptions, without a store.
func mustSession(t *testing.T) *experiments.Session {
	t.Helper()
	sess, err := experiments.NewSession(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// inProcessNDJSON renders spec's rows as NDJSON from an in-process
// session, the bytes a daemon must answer with.
func inProcessNDJSON(t *testing.T, sess *experiments.Session, spec string) []byte {
	t.Helper()
	sp, err := scenario.Parse(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sess.RunScenarioCtx(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rs.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestNDJSONMatchesInProcess locks the daemon's default streaming format
// to the engine's own serialization: the streamed body must be
// bit-identical to rendering the same sweep in process.
func TestNDJSONMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	_, ts := newTestServer(t, testOptions())
	status, body := post(t, ts.URL+"/v1/scenario", testSpec)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}

	want := inProcessNDJSON(t, mustSession(t), testSpec)
	if !bytes.Equal(body, want) {
		t.Errorf("streamed NDJSON differs from in-process render:\ngot:\n%s\nwant:\n%s", body, want)
	}
	if n := bytes.Count(body, []byte("\n")); n != 4 {
		t.Errorf("row count = %d, want 4 (2 workloads x 2 combos)", n)
	}
}

// TestResponseDeterministicAcrossWorkers is the service-level determinism
// contract: daemons over Workers=1 and Workers=GOMAXPROCS sessions return
// byte-identical bodies in every format, including concurrent requests
// against one daemon (run under -race in CI).
func TestResponseDeterministicAcrossWorkers(t *testing.T) {
	// Registered before newTestServer's ts.Close cleanup so it runs after
	// it (cleanups are LIFO): the check must see the listener closed and
	// DefaultTransport's keep-alives drained, not flag them.
	t.Cleanup(func() { leakcheck.Check(t) })
	if testing.Short() {
		t.Skip("simulation run")
	}
	oSeq := testOptions()
	oSeq.Workers = 1
	oPar := testOptions()
	oPar.Workers = runtime.GOMAXPROCS(0)
	// A tight entry bound on the parallel daemon forces evictions during
	// the sweep; responses must not change.
	oPar.CacheEntries = 3
	_, seq := newTestServer(t, oSeq)
	par, parTS := newTestServer(t, oPar)

	for _, format := range []string{"ndjson", "table", "json", "csv"} {
		url := "/v1/scenario?format=" + format
		status, want := post(t, seq.URL+url, testSpec)
		if status != http.StatusOK {
			t.Fatalf("%s: sequential status = %d, body %s", format, status, want)
		}
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				status, got := post(t, parTS.URL+url, testSpec)
				if status != http.StatusOK {
					t.Errorf("%s: parallel status = %d, body %s", format, status, got)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: parallel daemon response differs from sequential:\ngot:\n%s\nwant:\n%s",
						format, got, want)
				}
			}()
		}
		wg.Wait()
	}
	if st := par.session.CacheStats(); st.Evictions == 0 {
		t.Errorf("cache stats %+v: want evictions > 0 under a 3-entry bound", st)
	}
}

// getMetrics fetches and decodes /v1/metrics.
func getMetrics(t *testing.T, url string) metricsDoc {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc metricsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestRequestTooLarge: a body beyond -max-body is the client's size
// problem (413), not a malformed spec (400).
func TestRequestTooLarge(t *testing.T) {
	opt := testOptions()
	s, err := newServer(opt, 64) // far below len(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	status, body := post(t, ts.URL+"/v1/scenario", testSpec)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d (body %s), want 413", status, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "64 bytes") {
		t.Errorf("body %q does not name the body bound", body)
	}
}

// TestClientDisconnectStopsSweep is the serving-layer cancellation
// contract end to end: a client that opens a large NDJSON sweep and
// vanishes after the first row stops consuming the worker pool — cells
// not yet started are abandoned un-simulated (cache.canceled), in-flight
// work drains to zero, and the request counts as canceled, never as a
// simulation failure.
func TestClientDisconnectStopsSweep(t *testing.T) {
	// Registered before newTestServer's ts.Close cleanup so it runs after
	// it (cleanups are LIFO): the check must see the listener closed and
	// DefaultTransport's keep-alives drained, not flag them.
	t.Cleanup(func() { leakcheck.Check(t) })
	if testing.Short() {
		t.Skip("simulation run")
	}
	opt := testOptions()
	opt.Workers = 1 // one running cell at a time: the rest must queue
	_, ts := newTestServer(t, opt)

	// One workload × 8 ROB points: 8 grid cells behind a single worker.
	var axes strings.Builder
	for i := 0; i < 8; i++ {
		if i > 0 {
			axes.WriteString(",")
		}
		fmt.Fprintf(&axes, `{"label":"%d","delta":{"robSize":%d}}`, 64+16*i, 64+16*i)
	}
	spec := `{
	  "name": "disconnect-test",
	  "workloads": {"adhoc": ["art+mcf"]},
	  "base": {"traceLen": 1500, "maxCycles": 2000000, "seed": 11},
	  "axes": [{"name": "rob", "points": [` + axes.String() + `]}],
	  "metrics": ["throughput"]
	}`

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/scenario", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read exactly one streamed row, then vanish mid-response.
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil {
		t.Fatalf("first NDJSON row: %v", err)
	}
	if !json.Valid([]byte(line)) {
		t.Fatalf("first row is not JSON: %q", line)
	}
	cancel()
	resp.Body.Close()

	// The pool must drain: the running cell finishes, queued cells are
	// abandoned without ever simulating.
	deadline := time.Now().Add(30 * time.Second)
	var doc metricsDoc
	for {
		doc = getMetrics(t, ts.URL)
		if doc.Cache.InFlight == 0 && doc.Canceled > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never drained after disconnect: %+v", doc)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if doc.Failures != 0 {
		t.Errorf("client disconnect counted as failure: %+v", doc)
	}
	if doc.Canceled != 1 {
		t.Errorf("canceled = %d, want 1", doc.Canceled)
	}
	if doc.Cache.Canceled == 0 {
		t.Errorf("no queued cell was abandoned (all %d dispatched cells simulated): %+v", doc.Cache.Misses, doc)
	}

	// The daemon is undamaged: the same sweep completes for a patient
	// client, re-simulating what was abandoned.
	status, body := post(t, ts.URL+"/v1/scenario", spec)
	if status != http.StatusOK {
		t.Fatalf("post-disconnect sweep status = %d, body %s", status, body)
	}
	if n := bytes.Count(body, []byte("\n")); n != 8 {
		t.Errorf("post-disconnect sweep rows = %d, want 8", n)
	}
	after := getMetrics(t, ts.URL)
	if after.Failures != 0 {
		t.Errorf("failures after recovery sweep: %+v", after)
	}
}

// failingWriter is a ResponseWriter whose connection is dead: every
// write fails. It stands in for a client that vanished between the sweep
// finishing and the response being rendered.
type failingWriter struct {
	h      http.Header
	status int
}

func (f *failingWriter) Header() http.Header {
	if f.h == nil {
		f.h = http.Header{}
	}
	return f.h
}
func (f *failingWriter) WriteHeader(code int)      { f.status = code }
func (f *failingWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("broken pipe") }

// TestRowsNotCountedOnWriteFailure is the regression test for the
// buffered-path rows over-count: when every write to the client fails,
// the NDJSON path and the buffered paths must agree that zero rows were
// served — the buffered path used to credit len(rs.Rows) before Emit ran.
// Both failures are client behavior, so they must count as canceled, not
// failures.
func TestRowsNotCountedOnWriteFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	s, _ := newTestServer(t, testOptions())
	rowsBy := map[string]uint64{}
	for _, format := range []string{"ndjson", "json", "table", "csv"} {
		before := s.rows.Load()
		req := httptest.NewRequest(http.MethodPost, "/v1/scenario?format="+format, strings.NewReader(testSpec))
		s.handleScenario(&failingWriter{}, req)
		rowsBy[format] = s.rows.Load() - before
	}
	for format, rows := range rowsBy {
		if rows != rowsBy["ndjson"] {
			t.Errorf("rows counted on a dead connection disagree: %s = %d, ndjson = %d",
				format, rows, rowsBy["ndjson"])
		}
		if rows != 0 {
			t.Errorf("%s: counted %d rows served on a connection that accepted zero bytes", format, rows)
		}
	}
	if got := s.canceled.Load(); got != 4 {
		t.Errorf("canceled = %d, want 4 (every dead-connection response)", got)
	}
	if got := s.failures.Load(); got != 0 {
		t.Errorf("failures = %d, want 0: client write trouble is not simulator trouble", got)
	}
}

// TestEmitErrorClassification locks the metricsDoc contract for buffered
// emit errors: connection-write failures (errClientWrite) and dead
// request contexts count as canceled; any other emit error is a
// server-side render/encode failure and counts as failures.
func TestEmitErrorClassification(t *testing.T) {
	s, err := newServer(testOptions(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	deadCtx, cancel := context.WithCancel(ctx)
	cancel()
	for _, tc := range []struct {
		name       string
		ctx        context.Context
		err        error
		wantFail   uint64
		wantCancel uint64
	}{
		{"server-side render failure", ctx, fmt.Errorf("json: unsupported value"), 1, 0},
		{"connection write failure", ctx, fmt.Errorf("scenario x: %w: reset", errClientWrite), 1, 1},
		{"request context dead", deadCtx, fmt.Errorf("anything"), 1, 2},
	} {
		s.countEmitError(tc.ctx, tc.err)
		if got := s.failures.Load(); got != tc.wantFail {
			t.Errorf("%s: failures = %d, want %d", tc.name, got, tc.wantFail)
		}
		if got := s.canceled.Load(); got != tc.wantCancel {
			t.Errorf("%s: canceled = %d, want %d", tc.name, got, tc.wantCancel)
		}
	}
}

// TestRestartServesFromDisk is the warm-restart contract end to end: a
// daemon with a persistent store is torn down after a sweep; a fresh
// daemon over the same directory serves the identical sweep
// byte-identically with zero new simulations — every memory-cache miss
// becomes a disk hit — and without generating or even asking for a
// single trace, which is why traces need no disk tier of their own.
func TestRestartServesFromDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	opt := testOptions()
	opt.StoreDir = t.TempDir()

	_, ts1 := newTestServer(t, opt)
	status, want := post(t, ts1.URL+"/v1/scenario", testSpec)
	if status != http.StatusOK {
		t.Fatalf("cold sweep status = %d, body %s", status, want)
	}
	cold := getMetrics(t, ts1.URL)
	if cold.DiskMisses == 0 || cold.DiskHits != 0 || cold.DiskBytes == 0 {
		t.Fatalf("cold daemon disk stats = %+v, want only misses and a populated store", cold)
	}
	ts1.Close() // the kill

	_, ts2 := newTestServer(t, opt) // the restart, same -store-dir
	status, got := post(t, ts2.URL+"/v1/scenario", testSpec)
	if status != http.StatusOK {
		t.Fatalf("warm sweep status = %d, body %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("restarted daemon response differs from pre-restart response:\ngot:\n%s\nwant:\n%s", got, want)
	}
	warm := getMetrics(t, ts2.URL)
	if warm.DiskMisses != 0 {
		t.Errorf("restarted daemon simulated %d cells, want 0 (all from disk): %+v", warm.DiskMisses, warm)
	}
	if warm.DiskHits == 0 {
		t.Errorf("restarted daemon served no disk hits: %+v", warm)
	}
	if warm.Trace.Generated != 0 || warm.Trace.Misses != 0 {
		t.Errorf("restarted daemon needed traces to replay stored cells: %+v", warm.Trace)
	}
	if warm.Failures != 0 || warm.Canceled != 0 {
		t.Errorf("restarted daemon counters dirty: %+v", warm)
	}
}

// TestStoreDirRemovedUnderDaemon: the -store-dir directory vanishes under
// a running daemon. The daemon does not recreate it: every new cell's
// write fails and is counted in diskWriteErrors, while rows stay
// byte-identical to an in-process run and /healthz stays 200. (A
// read-only directory is not tested: root, which CI runs as, ignores the
// mode bits.)
func TestStoreDirRemovedUnderDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	opt := testOptions()
	opt.StoreDir = filepath.Join(t.TempDir(), "store")
	_, ts := newTestServer(t, opt)
	sess := mustSession(t)
	first := mustPost(t, ts.URL+"/v1/scenario", coldSpec(0))
	if before := getMetrics(t, ts.URL); before.DiskWriteErrors != 0 || before.DiskBytes == 0 {
		t.Fatalf("metrics before removal %+v: want a populated store and no write error", before)
	}
	if err := os.RemoveAll(opt.StoreDir); err != nil {
		t.Fatal(err)
	}

	for i := 1; i <= 2; i++ { // two specs of new cells, two cells each
		got := mustPost(t, ts.URL+"/v1/scenario", coldSpec(i))
		if want := inProcessNDJSON(t, sess, coldSpec(i)); !bytes.Equal(got, want) {
			t.Errorf("spec %d after removal differs from the in-process render:\ngot:\n%s\nwant:\n%s", i, got, want)
		}
	}
	if got := mustPost(t, ts.URL+"/v1/scenario", coldSpec(0)); !bytes.Equal(got, first) {
		t.Errorf("replay after removal differs:\ngot:\n%s\nwant:\n%s", got, first)
	}
	doc := getMetrics(t, ts.URL)
	if doc.DiskWriteErrors != 4 || doc.Failures != 0 {
		t.Errorf("metrics %+v: want 4 disk write errors (one per new cell) and no failure", doc)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d after removal", resp.StatusCode)
	}
	if _, err := os.Stat(opt.StoreDir); !os.IsNotExist(err) {
		t.Errorf("store directory after removal: stat err = %v, want it still absent", err)
	}
}

// TestTinyTraceAllFormats runs a deliberately starved configuration —
// tiny trace, cycle budget low enough to truncate — through every output
// format: truncated rows must emit cleanly (finite JSON numbers, no
// "unsupported value" encode failures) in each of them.
func TestTinyTraceAllFormats(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	_, ts := newTestServer(t, testOptions())
	spec := `{
	  "name": "tiny-trace",
	  "workloads": {"adhoc": ["art+mcf"]},
	  "base": {"traceLen": 200, "maxCycles": 400, "seed": 3},
	  "metrics": ["throughput", "l2mpki", "ed2", "cycles", "committed"]
	}`
	for _, format := range []string{"ndjson", "json", "csv", "table"} {
		status, body := post(t, ts.URL+"/v1/scenario?format="+format, spec)
		if status != http.StatusOK {
			t.Fatalf("%s: status = %d, body %s", format, status, body)
		}
		if len(bytes.TrimSpace(body)) == 0 {
			t.Errorf("%s: empty body", format)
		}
		switch format {
		case "json":
			if !json.Valid(body) {
				t.Errorf("json body invalid: %s", body)
			}
		case "ndjson":
			for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
				if !json.Valid(line) {
					t.Errorf("ndjson line invalid: %s", line)
				}
			}
		}
	}
	if doc := getMetrics(t, ts.URL); doc.Failures != 0 {
		t.Errorf("tiny-trace sweeps failed: %+v", doc)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	s, ts := newTestServer(t, testOptions())
	if status, body := post(t, ts.URL+"/v1/scenario", testSpec); status != http.StatusOK {
		t.Fatalf("scenario status = %d, body %s", status, body)
	}
	// A repeat of the same sweep must be pure cache hits.
	before := s.session.CacheStats()
	if status, _ := post(t, ts.URL+"/v1/scenario", testSpec); status != http.StatusOK {
		t.Fatal("second scenario request failed")
	}
	after := s.session.CacheStats()
	if after.Misses != before.Misses {
		t.Errorf("repeat sweep added %d misses, want 0", after.Misses-before.Misses)
	}
	if after.Hits <= before.Hits {
		t.Errorf("repeat sweep added no hits: %+v -> %+v", before, after)
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc metricsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Requests != 2 || doc.Failures != 0 {
		t.Errorf("metrics = %+v, want 2 requests / 0 failures", doc)
	}
	if doc.Rows != 8 {
		t.Errorf("metrics rows = %d, want 8 (2 sweeps x 4 rows)", doc.Rows)
	}
	if doc.Cache.Misses == 0 || doc.Cache.Hits == 0 {
		t.Errorf("cache stats %+v: want both misses and hits", doc.Cache)
	}
	if doc.Queued != 0 || doc.Scheduler.QueuedCells != 0 || len(doc.Scheduler.Clients) != 0 {
		t.Errorf("scheduler not idle at rest: queued=%d %+v", doc.Queued, doc.Scheduler)
	}
	if doc.Goroutines <= 0 {
		t.Errorf("goroutines gauge = %d, want a live count", doc.Goroutines)
	}
	if doc.Plans.Misses != 1 || doc.Plans.Hits != 1 || doc.Plans.Entries != 1 {
		t.Errorf("plan cache %+v: want the repeated body planned once and hit once", doc.Plans)
	}
}

// TestPlanSharedAcrossFormats: one body POSTed concurrently in all four
// formats is decoded and planned once, every response byte-equals the
// in-process render, and /v1/metrics reads cleanly while the cells
// settle (run under -race in CI).
func TestPlanSharedAcrossFormats(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	formats := []string{"ndjson", "json", "csv", "table"}
	sp, err := scenario.Parse(strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := experiments.NewSession(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sess.RunScenarioCtx(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for _, format := range formats {
		var buf bytes.Buffer
		if err := rs.Emit(&buf, format); err != nil {
			t.Fatal(err)
		}
		want[format] = buf.Bytes()
	}

	_, ts := newTestServer(t, testOptions())
	const perFormat = 3
	done := make(chan struct{})
	polled := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				polled <- n
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/v1/metrics")
			if err != nil {
				t.Error(err)
				continue
			}
			var doc metricsDoc
			if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
				t.Errorf("metrics while cells settle: %v", err)
			}
			resp.Body.Close()
			n++
		}
	}()
	var wg sync.WaitGroup
	for _, format := range formats {
		for i := 0; i < perFormat; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				status, got := post(t, ts.URL+"/v1/scenario?format="+format, testSpec)
				if status != http.StatusOK {
					t.Errorf("%s: status = %d, body %s", format, status, got)
					return
				}
				if !bytes.Equal(got, want[format]) {
					t.Errorf("%s: response differs from the in-process render:\ngot:\n%s\nwant:\n%s", format, got, want[format])
				}
			}()
		}
	}
	wg.Wait()
	close(done)
	if n := <-polled; n == 0 {
		t.Error("metrics never polled while the requests ran")
	}
	doc := getMetrics(t, ts.URL)
	if doc.Plans.Misses != 1 || doc.Plans.Hits != uint64(len(formats)*perFormat-1) {
		t.Errorf("plan cache %+v: want 1 miss and %d hits", doc.Plans, len(formats)*perFormat-1)
	}
	if doc.Requests != uint64(len(formats)*perFormat) || doc.Failures != 0 {
		t.Errorf("metrics %+v: want %d requests, no failures", doc, len(formats)*perFormat)
	}
}

// coldSpec is spec i of a cold-traffic run: two 2-thread workloads at
// 3000 instructions under a seed no other spec uses, so no trace is
// shared across specs.
func coldSpec(i int) string {
	return fmt.Sprintf(`{
  "name": "cold-%d",
  "workloads": {"adhoc": ["A/art+mcf", "B/gzip+bzip2"]},
  "base": {"traceLen": 3000, "maxCycles": 2000000, "seed": %d},
  "metrics": ["throughput"]
}`, i, 1000+i)
}

// TestColdTrafficTraceTierBounded: cold traffic whose traces total more
// than the trace tier's recency bound (16 specs x 4 traces x 72 KB, about
// 4.6 MB) leaves the tier within its bound with evictions, and still
// generates every identity once and answers byte-identically to an
// in-process session (run under -race in CI).
func TestColdTrafficTraceTierBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	const specs = 16
	sess := mustSession(t)
	want := make([][]byte, specs)
	for i := range want {
		want[i] = inProcessNDJSON(t, sess, coldSpec(i))
	}

	_, ts := newTestServer(t, testOptions())
	var wg sync.WaitGroup
	next := make(chan int, specs)
	for i := 0; i < specs; i++ {
		next <- i
	}
	close(next)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				status, got := post(t, ts.URL+"/v1/scenario", coldSpec(i))
				if status != http.StatusOK {
					t.Errorf("spec %d: status = %d, body %s", i, status, got)
					continue
				}
				if !bytes.Equal(got, want[i]) {
					t.Errorf("spec %d: response differs from the in-process render:\ngot:\n%s\nwant:\n%s", i, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
	tr := getMetrics(t, ts.URL).Trace
	if tr.MaxBytes != 4<<20 || tr.Bytes > tr.MaxBytes {
		t.Errorf("trace tier %+v: want maxBytes 4194304 and bytes within it", tr)
	}
	if tr.Evictions == 0 {
		t.Errorf("trace tier %+v: want evictions from %d specs of cold traffic", tr, specs)
	}
	if tr.Generated != tr.Misses {
		t.Errorf("trace tier %+v: generated != misses, some identity generated twice", tr)
	}
}

// runDaemon runs main() with args in a subprocess and returns its exit
// code (-1 when it did not exit by itself) and stderr. The timeout turns
// a regression (a daemon that starts serving) into a failure rather than
// a hang.
func runDaemon(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// TestNegativeFlagsRejected: `-cache-entries -7` used to start a daemon
// whose cache enforced no bound at all. Every size, count and bound flag
// now refuses a negative value before the daemon listens. -trace-bytes
// bounded the deleted trace disk tier; it is an unknown flag now and
// exits 2 the same way.
func TestNegativeFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-cache-entries", "-7"}, {"-j", "-7"}, {"-tracelen", "-7"}, {"-max-body", "-7"},
		{"-max-cells", "-7"}, {"-store-bytes", "-7"},
		{"-drain", "-7s"}, // a bare -7 fails the duration parse, not the sign check
		{"-trace-bytes", "1"},
	} {
		if code, stderr := runDaemon(t, args...); code != 2 || !strings.Contains(stderr, args[0]) {
			t.Errorf("smtsimd %s %s: exit %d, stderr %q; want exit 2 naming the flag", args[0], args[1], code, stderr)
		}
	}
}

// TestTraceLenCapRejected: a -tracelen past core's cap used to start a
// daemon whose every request then failed. The session validates its
// base, so the daemon exits 1 naming the trace length before it listens.
func TestTraceLenCapRejected(t *testing.T) {
	if code, stderr := runDaemon(t, "-tracelen", "1099511627776"); code != 1 || !strings.Contains(stderr, "trace length") {
		t.Errorf("smtsimd -tracelen 2^40: exit %d, stderr %q; want exit 1 naming the trace length", code, stderr)
	}
}

// TestTraceDirIgnored: -trace-dir is accepted, so scripts that pass it
// still start, and it creates nothing. With a -tracelen past the cap the
// daemon exits 1 for the trace length when it builds its session, before
// it listens: by then the flag has parsed (an unknown flag exits 2), the
// daemon has said it ignores it, and the session has made nothing there.
func TestTraceDirIgnored(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "t")
	code, stderr := runDaemon(t, "-trace-dir", dir, "-tracelen", "1099511627776")
	if code != 1 || !strings.Contains(stderr, "trace length") {
		t.Errorf("smtsimd -trace-dir %s -tracelen 2^40: exit %d, stderr %q; want exit 1 naming the trace length", dir, code, stderr)
	}
	if !strings.Contains(stderr, "-trace-dir "+dir+" ignored") {
		t.Errorf("stderr %q does not say -trace-dir is ignored", stderr)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("-trace-dir %s exists after the daemon ran (err=%v)", dir, err)
	}
}
