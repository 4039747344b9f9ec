package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/experiments"
)

// serveClients is the number of closed-loop HTTP clients, each with its
// own connection. It is fixed rather than taken from the host so that a
// workload means the same traffic everywhere.
const serveClients = 2

// primedSpecs is the working set serve-warm and serve-disk replay: 240
// cells, more than serve-disk's 64-entry memory cache holds.
const primedSpecs = 40

// buildDaemon builds cmd/smtsimd from the repository into out/bin.
func buildDaemon(ctx context.Context, repo, out string) (string, error) {
	bin := filepath.Join(out, "bin", "smtsimd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/smtsimd")
	cmd.Dir = repo
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building smtsimd: %w", err)
	}
	return bin, nil
}

// daemon is one running smtsimd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error // receives the process's exit
}

// startDaemon starts smtsimd and returns once /healthz answers, with the
// wall time from exec to that answer and the CPU time the daemon used to
// get there. A port lost to another process between choosing and binding
// it is retried.
func startDaemon(ctx context.Context, e *env, args ...string) (*daemon, setup, error) {
	logf, err := os.OpenFile(filepath.Join(e.out, e.name+"-smtsimd.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, setup{}, err
	}
	defer logf.Close()
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, setup{}, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		cmd := exec.Command(e.daemon, append([]string{"-addr", addr, "-j", strconv.Itoa(e.nproc)}, args...)...)
		cmd.Stdout, cmd.Stderr = logf, logf
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, setup{}, fmt.Errorf("starting smtsimd: %w", err)
		}
		d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
		go func() { d.done <- cmd.Wait() }()
		if lastErr = d.waitHealthy(ctx); lastErr == nil {
			wall := time.Since(t0)
			cpu, err := procThreadsCPU(cmd.Process.Pid)
			if err != nil {
				d.stop()
				return nil, setup{}, err
			}
			return d, setup{wall, cpu}, nil
		}
		d.stop()
	}
	return nil, setup{}, lastErr
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /healthz every millisecond until it answers 200, the
// process exits, or ten seconds pass.
func (d *daemon) waitHealthy(ctx context.Context) error {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.done:
			d.done <- err
			return fmt.Errorf("smtsimd exited during start-up: %v", err)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if resp, err := hc.Get(d.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("smtsimd not healthy after 10s")
}

// stop sends SIGTERM and waits for the daemon to drain and exit, killing
// it after 30 seconds.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// cpu is the daemon's CPU time so far.
func (d *daemon) cpu() (time.Duration, error) { return procCPU(d.cmd.Process.Pid) }

// daemonMetrics is the part of /v1/metrics the bench reads.
type daemonMetrics struct {
	Cache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
	Goroutines      int    `json:"goroutines"`
	DiskHits        uint64 `json:"diskHits"`
	DiskMisses      uint64 `json:"diskMisses"`
	DiskWriteErrors uint64 `json:"diskWriteErrors"`
	Trace           struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Generated uint64 `json:"generated"`
	} `json:"trace"`
	BatchedCells uint64 `json:"batchedCells"`
}

// client is the closed-loop HTTP client of the serve workloads.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveClients,
		MaxIdleConnsPerHost: serveClients,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) metrics(ctx context.Context) (daemonMetrics, error) {
	var m daemonMetrics
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/metrics", nil)
	if err != nil {
		return m, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// reply is one scenario response.
type reply struct {
	status int
	body   []byte
	err    error // transport failure
}

// post sends a spec and reads the whole response, recording when each
// result row arrived: every NDJSON line, or the first body byte of a
// buffered format. Traced phases add spans for the wait before the first
// response byte and for the body.
func (c *client) post(ctx context.Context, sp *spans, req int, body []byte, format string) (reply, op) {
	o := op{start: time.Now()}
	root := sp.start("request", 0, req)
	defer sp.end(root)
	if sp != nil {
		var wait int
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wait = sp.start("http.wait", root, req) },
			GotFirstResponseByte: func() { sp.end(wait) },
		})
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/scenario?format="+format, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}, o
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		o.total = time.Since(o.start)
		return reply{err: err}, o
	}
	defer resp.Body.Close()
	bodySpan := sp.start("http.body", root, req)
	var buf bytes.Buffer
	chunk := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(chunk)
		if n > 0 {
			now := time.Since(o.start)
			if format != "ndjson" {
				if len(o.rows) == 0 {
					o.rows = append(o.rows, now)
				}
			} else {
				for range bytes.Count(chunk[:n], []byte{'\n'}) {
					o.rows = append(o.rows, now)
				}
			}
			buf.Write(chunk[:n])
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			o.total = time.Since(o.start)
			sp.end(bodySpan)
			return reply{status: resp.StatusCode, err: err}, o
		}
	}
	o.total = time.Since(o.start)
	sp.end(bodySpan)
	return reply{status: resp.StatusCode, body: buf.Bytes()}, o
}

// checkReply is the check each response gets on arrival: a transport
// error, a status other than 200, an {"error"} line or a row count other
// than specCells fails the operation. judge adds the byte comparison.
func checkReply(r reply, format string) error {
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, excerpt(r.body))
	}
	if format == "ndjson" {
		lines := bytes.Split(bytes.TrimSuffix(r.body, []byte{'\n'}), []byte{'\n'})
		for _, l := range lines {
			if bytes.HasPrefix(l, []byte(`{"error"`)) {
				return fmt.Errorf("error line: %s", excerpt(l))
			}
		}
		if len(lines) != specCells {
			return fmt.Errorf("%d rows, want %d", len(lines), specCells)
		}
	}
	return nil
}

func excerpt(b []byte) string {
	const max = 200
	if len(b) <= max {
		return string(b)
	}
	return string(b[:max]) + fmt.Sprintf("... (%d bytes)", len(b))
}

// specJSON encodes spec index of the run.
func specJSON(e *env, index int) ([]byte, error) {
	return json.Marshal(genSpec(e.seed, index, e.specLen))
}

// references renders the expected response bytes of each spec index in
// each format from an in-process session with the daemon's base options,
// after the timed phase and outside it. The grids of specs below
// primedSpecs become the phase's model metrics and microbenchmark inputs,
// a set that does not depend on how many requests the window held.
func references(ctx context.Context, e *env, p *phase, indexes []int, formats []string) (map[int]map[string][]byte, error) {
	opt := experiments.Default()
	opt.Workers = e.nproc
	s, err := experiments.NewSession(opt)
	if err != nil {
		return nil, err
	}
	out := map[int]map[string][]byte{}
	for _, i := range indexes {
		sp := genSpec(e.seed, i, e.specLen)
		rs, err := s.RunScenarioCtx(ctx, sp)
		if err != nil {
			return nil, fmt.Errorf("reference for spec %d: %w", i, err)
		}
		if i < primedSpecs {
			p.addSet(sp, rs)
		}
		out[i] = map[string][]byte{}
		for _, f := range formats {
			var buf bytes.Buffer
			if err := rs.Emit(&buf, f); err != nil {
				return nil, err
			}
			out[i][f] = buf.Bytes()
		}
	}
	return out, nil
}

// served is one timed request's outcome, kept for the reference check.
type served struct {
	spec   int
	format string
	basic  error    // checkReply without a reference
	sum    [32]byte // SHA-256 of the body
}

// serveRun is the shared timed phase of the serve workloads: closed-loop
// requests chosen by next until the window closes, each checked on
// arrival, then the daemon's CPU, memory and counter deltas.
func serveRun(ctx context.Context, e *env, p *phase, d *daemon, next func(client, n int) (spec int, format string)) ([]served, daemonMetrics, daemonMetrics, error) {
	c := newClient(d.base)
	defer c.close()
	before, err := c.metrics(ctx)
	if err != nil {
		return nil, before, before, err
	}
	cpu0, err := d.cpu()
	if err != nil {
		return nil, before, before, err
	}
	pid := strconv.Itoa(d.cmd.Process.Pid)
	var (
		mu      sync.Mutex
		results []served
		count   atomic.Int64
		cells   atomic.Int64
	)
	stop := sampleDaemonCPU(d, &cells, p)
	p.wall, p.steal = e.timed(serveClients, func(cl int, _ time.Time) bool {
		n := int(count.Add(1)) - 1
		spec, format := next(cl, n)
		var (
			r reply
			o = op{start: time.Now()}
		)
		if body, err := specJSON(e, spec); err != nil {
			r.err = err
		} else {
			r, o = c.post(ctx, e.spans, n+1, body, format)
		}
		s := served{spec: spec, format: format, basic: checkReply(r, format), sum: sha256.Sum256(r.body)}
		if s.basic == nil {
			cells.Add(specCells)
		}
		mu.Lock()
		defer mu.Unlock()
		p.ops = append(p.ops, o)
		results = append(results, s)
		if len(results) == primedSpecs {
			// Peak RSS is read after a fixed amount of work, so that it
			// does not grow with how many requests the window held.
			p.rssMB, _ = peakRSSMB(pid)
		}
		return ctx.Err() == nil
	})
	stop()
	p.delivered = int(cells.Load())
	cpu1, err := d.cpu()
	if err != nil {
		return nil, before, before, err
	}
	p.cpu = cpu1 - cpu0
	if len(results) < primedSpecs {
		if p.rssMB, err = peakRSSMB(pid); err != nil {
			return nil, before, before, err
		}
	}
	after, err := c.metrics(ctx)
	if err != nil {
		return nil, before, before, err
	}
	serveExtras(e, p, before, after)
	return results, before, after, nil
}

// cpuWindow is the interval at which the daemon's CPU is sampled.
const cpuWindow = time.Second

// sampleDaemonCPU records, every cpuWindow until the returned stop is
// called, the daemon's CPU time per cell delivered in that window, so
// that cpu_ms_per_cell is a median over windows rather than a total one
// disturbed second can skew.
func sampleDaemonCPU(d *daemon, cells *atomic.Int64, p *phase) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(cpuWindow)
		defer tick.Stop()
		lastCPU, err := d.cpu()
		lastCells := cells.Load()
		for err == nil {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			var now time.Duration
			if now, err = d.cpu(); err != nil {
				return
			}
			n := cells.Load()
			if n > lastCells {
				p.cpuSamples = append(p.cpuSamples, ms(now-lastCPU)/float64(n-lastCells))
			}
			lastCPU, lastCells = now, n
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// serveExtras records the daemon-side per-layer values of a timed phase.
func serveExtras(e *env, p *phase, a, b daemonMetrics) {
	hits, misses := b.Cache.Hits-a.Cache.Hits, b.Cache.Misses-a.Cache.Misses
	p.extra["simcache.hit_ratio"] = ratio(hits, hits+misses)
	th, tm := b.Trace.Hits-a.Trace.Hits, b.Trace.Misses-a.Trace.Misses
	p.extra["tracestore.hit_ratio"] = ratio(th, th+tm)
	p.extra["tracestore.generated_per_op"] = float64(b.Trace.Generated-a.Trace.Generated) / float64(len(p.ops))
	dh, dm := b.DiskHits-a.DiskHits, b.DiskMisses-a.DiskMisses
	p.extra["resultstore.disk_hit_ratio"] = ratio(dh, dh+dm)
	p.extra["resultstore.write_errors"] = float64(b.DiskWriteErrors - a.DiskWriteErrors)
	p.extra["experiments.batched_cell_frac"] = ratio(b.BatchedCells-a.BatchedCells, misses)
	p.extra["experiments.worker_util"] = p.cpu.Seconds() / (p.wall.Seconds() * float64(e.nproc))
	p.extra["host.goroutines_end"] = float64(b.Goroutines)
}

// judge checks every timed request against the references: its own basic
// check, then byte equality where a reference exists.
func judge(p *phase, results []served, refs map[int]map[string][]byte) {
	refSums := map[int]map[string][32]byte{}
	for i, byFormat := range refs {
		refSums[i] = map[string][32]byte{}
		for f, b := range byFormat {
			refSums[i][f] = sha256.Sum256(b)
		}
	}
	for _, s := range results {
		err := s.basic
		if want, ok := refSums[s.spec][s.format]; ok && err == nil && s.sum != want {
			err = fmt.Errorf("spec %d %s response differs from the in-process reference", s.spec, s.format)
		}
		p.check(err)
	}
}

// serveDirs returns fresh result-store and trace-store directories.
func serveDirs(e *env, tag string) ([]string, func(), error) {
	dir, err := os.MkdirTemp(e.out, e.name+"-"+tag+"-")
	if err != nil {
		return nil, nil, err
	}
	args := []string{"-store-dir", filepath.Join(dir, "results"), "-trace-dir", filepath.Join(dir, "traces")}
	return args, func() { os.RemoveAll(dir) }, nil
}

// freshDaemons measures setupRepeats daemon starts, each on fresh store
// directories, and returns the last daemon running.
func freshDaemons(ctx context.Context, e *env, p *phase, cleanup *[]func()) (*daemon, error) {
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.stop()
		}
		args, rm, err := serveDirs(e, strconv.Itoa(i))
		if err != nil {
			return nil, err
		}
		*cleanup = append(*cleanup, rm)
		var took setup
		if d, took, err = startDaemon(ctx, e, args...); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, took)
	}
	return d, nil
}

// prime requests specs 0..primedSpecs-1 once each, closed loop, outside
// any timed phase.
func prime(ctx context.Context, e *env, d *daemon) error {
	c := newClient(d.base)
	defer c.close()
	var next atomic.Int64
	errc := make(chan error, serveClients)
	for cl := 0; cl < serveClients; cl++ {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= primedSpecs {
					errc <- nil
					return
				}
				body, err := specJSON(e, i)
				if err == nil {
					r, _ := c.post(ctx, nil, 0, body, "ndjson")
					err = checkReply(r, "ndjson")
				}
				if err != nil {
					errc <- fmt.Errorf("priming spec %d: %w", i, err)
					return
				}
			}
		}()
	}
	var first error
	for cl := 0; cl < serveClients; cl++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func runCleanup(fs []func()) {
	for _, f := range fs {
		f()
	}
}

// runServeCold: every request a new spec, so every cell is simulated and
// written behind to both disk tiers. Every 4th spec is checked byte for
// byte; the first ten of those feed the model metrics.
func runServeCold(ctx context.Context, e *env) (*phase, error) {
	p := &phase{extra: map[string]float64{}}
	e.specLen = coldTraceLen
	var cleanup []func()
	defer func() { runCleanup(cleanup) }()
	d, err := freshDaemons(ctx, e, p, &cleanup)
	if err != nil {
		return nil, err
	}
	results, _, _, err := serveRun(ctx, e, p, d, func(_, n int) (int, string) { return n, "ndjson" })
	d.stop()
	if err != nil {
		return nil, err
	}
	var checked []int
	for _, s := range results {
		if s.spec%4 == 0 {
			checked = append(checked, s.spec)
		}
	}
	refs, err := references(ctx, e, p, checked, []string{"ndjson"})
	if err != nil {
		return nil, err
	}
	judge(p, results, refs)
	return p, nil
}

// warmSchedule is serve-warm's request sequence: primed specs in seeded
// order with seeded formats, a pure function of the seed.
func warmSchedule(seed uint64) [][2]int {
	r := rand.New(rand.NewSource(int64(seed)*7919 + 1))
	out := make([][2]int, 1<<16)
	for i := range out {
		out[i] = [2]int{r.Intn(primedSpecs), r.Intn(len(replyFormats))}
	}
	return out
}

// runServeWarm: a primed daemon answers every request from its memory
// cache, so no simulation runs in the timed phase.
func runServeWarm(ctx context.Context, e *env) (*phase, error) {
	p := &phase{extra: map[string]float64{}}
	e.specLen = primedTraceLen
	var cleanup []func()
	defer func() { runCleanup(cleanup) }()
	d, err := freshDaemons(ctx, e, p, &cleanup)
	if err != nil {
		return nil, err
	}
	if err := prime(ctx, e, d); err != nil {
		d.stop()
		return nil, err
	}
	sched := warmSchedule(e.seed)
	results, before, after, err := serveRun(ctx, e, p, d, func(_, n int) (int, string) {
		s := sched[n%len(sched)]
		return s[0], replyFormats[s[1]]
	})
	d.stop()
	if err != nil {
		return nil, err
	}
	p.check(zeroSimulations(before, after))
	refs, err := references(ctx, e, p, seq(primedSpecs), replyFormats)
	if err != nil {
		return nil, err
	}
	judge(p, results, refs)
	return p, nil
}

func zeroSimulations(a, b daemonMetrics) error {
	if n := b.Cache.Misses - a.Cache.Misses; n != 0 {
		return fmt.Errorf("%d cells missed the memory cache of a primed daemon", n)
	}
	return nil
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// runServeDisk: specs primed by one daemon are replayed by a restarted
// daemon with a 64-entry memory cache. Each client cycles through its own
// half of a seeded permutation of the 40 specs, so between two requests
// for a spec at least 114 other cells pass through the cache: every cell
// is a memory miss served from the result store.
func runServeDisk(ctx context.Context, e *env) (*phase, error) {
	p := &phase{extra: map[string]float64{}}
	e.specLen = primedTraceLen
	args, rm, err := serveDirs(e, "store")
	if err != nil {
		return nil, err
	}
	defer rm()
	d, _, err := startDaemon(ctx, e, args...)
	if err != nil {
		return nil, err
	}
	err = prime(ctx, e, d)
	d.stop()
	if err != nil {
		return nil, err
	}
	args = append(args, "-cache-entries", "64")
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			d.stop()
		}
		var took setup
		if d, took, err = startDaemon(ctx, e, args...); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, took)
	}
	perm := rand.New(rand.NewSource(int64(e.seed)*104729 + 3)).Perm(primedSpecs)
	var turns [serveClients]int
	results, before, after, err := serveRun(ctx, e, p, d, func(cl, _ int) (int, string) {
		// Each client's turn counter is touched only by that client.
		k := turns[cl]
		turns[cl]++
		return perm[(cl+serveClients*k)%primedSpecs], "ndjson"
	})
	d.stop()
	if err != nil {
		return nil, err
	}
	requested := uint64(0)
	for _, s := range results {
		if s.basic == nil {
			requested += specCells
		}
	}
	if dh, dm := after.DiskHits-before.DiskHits, after.DiskMisses-before.DiskMisses; dh != requested || dm != 0 {
		p.check(fmt.Errorf("disk tier served %d cells and missed %d, want all %d requested cells from disk", dh, dm, requested))
	} else {
		p.check(nil)
	}
	refs, err := references(ctx, e, p, seq(primedSpecs), []string{"ndjson"})
	if err != nil {
		return nil, err
	}
	judge(p, results, refs)
	return p, nil
}
