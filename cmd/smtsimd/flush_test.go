package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// flushMark is the daemon's state at one flush of a streamed response.
type flushMark struct {
	rows     int // NDJSON lines written so far
	inFlight int // session cells registered but not yet completed
}

// flushRecorder wraps a response to record every flush the handler
// requests, with the rows written before it and the cells still running.
type flushRecorder struct {
	http.ResponseWriter
	s       *server
	rows    int
	flushes []flushMark
}

func (f *flushRecorder) Write(p []byte) (int, error) {
	f.rows += bytes.Count(p, []byte("\n"))
	return f.ResponseWriter.Write(p)
}

func (f *flushRecorder) Flush() {
	f.flushes = append(f.flushes, flushMark{rows: f.rows, inFlight: f.s.session.CacheStats().InFlight})
	f.ResponseWriter.(http.Flusher).Flush()
}

// newFlushServer starts a one-worker daemon whose responses record their
// flushes; flushesOf returns the marks of the last completed response.
func newFlushServer(t *testing.T) (url string, flushesOf func() []flushMark) {
	t.Helper()
	opt := testOptions()
	opt.Workers = 1
	s, err := newServer(opt, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var last []flushMark
	h := s.handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &flushRecorder{ResponseWriter: w, s: s}
		h.ServeHTTP(rec, r)
		mu.Lock()
		last = rec.flushes
		mu.Unlock()
	}))
	t.Cleanup(ts.Close)
	return ts.URL + "/v1/scenario", func() []flushMark {
		mu.Lock()
		defer mu.Unlock()
		return last
	}
}

// robSpec is a one-workload sweep over the given ROB sizes.
func robSpec(metric string, robs ...int) string {
	points := make([]string, len(robs))
	for i, r := range robs {
		points[i] = fmt.Sprintf(`{"label":"%d","delta":{"robSize":%d}}`, r, r)
	}
	return `{
	  "name": "flush-test",
	  "workloads": {"adhoc": ["art+mcf"]},
	  "base": {"traceLen": 6000, "maxCycles": 8000000, "seed": 23},
	  "axes": [{"name": "rob", "points": [` + strings.Join(points, ",") + `]}],
	  "metrics": ["` + metric + `"]
	}`
}

// mustPost posts a spec and fails the test unless it is served.
func mustPost(t *testing.T, url, spec string) []byte {
	t.Helper()
	status, body := post(t, url, spec)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	return body
}

// TestCachedReplayFlushesAtMostOnce: replaying a fully cached 6-cell
// NDJSON sweep never waits, so the rows leave in the response's final
// write instead of one flush per row — and the bytes are unchanged.
func TestCachedReplayFlushesAtMostOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	url, flushesOf := newFlushServer(t)
	spec := `{
	  "name": "flush-replay",
	  "workloads": {"adhoc": ["art+mcf", "gzip+bzip2"]},
	  "base": {"traceLen": 1500, "maxCycles": 2000000, "seed": 7},
	  "axes": [{"name": "rob", "points": [
	    {"delta": {"robSize": 64}}, {"delta": {"robSize": 96}}, {"delta": {"robSize": 128}}
	  ]}],
	  "metrics": ["throughput", "l2mpki"]
	}`
	cold := mustPost(t, url, spec)
	warm := mustPost(t, url, spec)
	if !bytes.Equal(cold, warm) {
		t.Fatalf("replay differs from the first run:\n%s\nvs\n%s", warm, cold)
	}
	if n := bytes.Count(warm, []byte("\n")); n != 6 {
		t.Fatalf("replay rows = %d, want 6", n)
	}
	if got := flushesOf(); len(got) > 1 {
		t.Errorf("cached replay flushed %d times (%+v), want at most once", len(got), got)
	}
}

// TestFinishedRowFlushedBeforeRunningCell is the first-row-before-last-
// cell contract: with the first cell cached and the second still
// simulating, the first row is flushed while that cell is in flight.
func TestFinishedRowFlushedBeforeRunningCell(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	url, flushesOf := newFlushServer(t)
	mustPost(t, url, robSpec("throughput", 64))
	body := mustPost(t, url, robSpec("throughput", 64, 128))
	if n := bytes.Count(body, []byte("\n")); n != 2 {
		t.Fatalf("rows = %d, want 2", n)
	}
	got := flushesOf()
	if len(got) != 1 || got[0].rows != 1 || got[0].inFlight == 0 {
		t.Errorf("flushes = %+v, want one flush after row 1 while the second cell runs", got)
	}
}

// TestRowFlushedBeforeRunningReference: a fairness sweep whose second
// row waits only on its single-thread references (its SMT cell is
// cached) flushes the first row before that wait.
func TestRowFlushedBeforeRunningReference(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	url, flushesOf := newFlushServer(t)
	mustPost(t, url, robSpec("fairness", 64))    // row 1: cell and references
	mustPost(t, url, robSpec("throughput", 128)) // row 2: cell only
	body := mustPost(t, url, robSpec("fairness", 64, 128))
	if n := bytes.Count(body, []byte("\n")); n != 2 {
		t.Fatalf("rows = %d, want 2", n)
	}
	got := flushesOf()
	if len(got) != 1 || got[0].rows != 1 || got[0].inFlight == 0 {
		t.Errorf("flushes = %+v, want one flush after row 1 while row 2's references run", got)
	}
}
