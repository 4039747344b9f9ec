// Package tracestore is the shared trace tier: a concurrency-safe,
// singleflight-deduplicated store of generated trace.Trace values, keyed
// by the full identity a trace is a pure function of — (benchmark,
// length, seed, data base, code base). Traces are immutable after
// generation and the pipeline only ever reads them, so one stored trace
// can feed any number of concurrent simulations; a sweep that runs dozens
// of configurations over one workload pays trace generation once instead
// of once per cell, and a workload's fairness references reuse the trace
// objects its SMT run generated.
//
// Traces are kept in a small LRU (the recency tier), so consecutive
// cells of one workload find their traces without regenerating them. A
// session bounds it at MaxThreads × (workers+1) traces and 4 MiB
// (workload.MaxThreads, DefaultMemBytes): cells run workload-major, so each worker needs at
// most one workload's traces at a time, plus one workload of slack. A
// trace the LRU evicted while a cell still holds it is generated again
// by the next cell that asks; the copy is bit-identical, so only time is
// lost.
//
// The tier lives in memory only. A trace regenerates from its key in a
// few milliseconds, and a restarted process serves its earlier cells from
// the result store (internal/resultstore) without needing their traces.
package tracestore

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/simcache"
	"repro/internal/trace"
)

// Key is the full generation identity of a trace. Two Generate calls with
// equal keys produce bit-identical traces, so equal keys may share one
// trace object. Every field matters: workloads derive per-context seeds
// from one base seed, and two different base seeds can collide on a
// derived seed at different context indexes — where the address bases
// differ — so the bases are part of the identity, not an implementation
// detail.
type Key struct {
	Benchmark string
	Len       int
	Seed      uint64
	DataBase  uint64
	CodeBase  uint64
}

// Stats is a point-in-time snapshot of trace-tier effectiveness, shaped
// for direct JSON emission by the smtsimd /v1/metrics endpoint.
type Stats struct {
	// Hits counts Generate calls served by (or joined onto) a trace already
	// in the recency tier; Misses counts calls that had to generate one.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts recency-tier entries dropped to respect either
	// bound.
	Evictions uint64 `json:"evictions"`
	// Entries and Bytes describe the recency tier's population;
	// MaxEntries and MaxBytes echo its configured bounds (0 = unbounded).
	Entries    int   `json:"entries"`
	Bytes      int64 `json:"bytes"`
	MaxEntries int   `json:"maxEntries"`
	MaxBytes   int64 `json:"maxBytes"`
	// Generated counts actual trace.Generate runs — the work every other
	// counter exists to avoid. A warm tier serves a whole sweep with zero.
	Generated uint64 `json:"generated"`
}

// DefaultMemBytes bounds the recency tier of the process-wide default
// store and of every experiments session. It has to bridge the gap
// between consecutive cells of one workload: 4 MiB holds a 4-thread
// workload's traces at 20 000 instructions (1.9 MB) twice over. A
// session also bounds the tier's entries, so it holds at most
// MaxThreads × (workers+1) traces and 4 MiB; the byte bound alone lets
// cold traffic of short traces fill 4 MiB with traces no later cell
// reads.
const DefaultMemBytes = 4 << 20

// Store is the trace tier. All methods are safe for concurrent use.
type Store struct {
	mem       *simcache.Cache[Key, *trace.Trace]
	generated atomic.Uint64
}

// NewBounded builds a store whose recency tier holds at most maxEntries
// traces and memBytes of trace data (0 = that bound off).
func NewBounded(maxEntries int, memBytes int64) *Store {
	return &Store{mem: simcache.New[Key](maxEntries, memBytes, (*trace.Trace).SizeBytes)}
}

// New builds a store bounded by memBytes of trace data only (0 =
// unbounded). It remains because the benchmark module calls it.
func New(memBytes int64) *Store { return NewBounded(0, memBytes) }

var defaultStore = sync.OnceValue(func() *Store { return NewBounded(0, DefaultMemBytes) })

// Default returns the process-wide shared store, its recency tier
// bounded to DefaultMemBytes. workload.Traces routes through it so that
// every caller in the process — figures, scenarios, references, tests —
// shares one trace per identity by default.
func Default() *Store { return defaultStore() }

// Generate returns the trace for benchmark name under opt, generating it
// only if no equivalent trace is in memory. Concurrent calls for one
// identity share a single generation. The returned trace is shared and
// must be treated as read-only — which is the only way the simulator uses
// traces.
func (s *Store) Generate(name string, opt trace.Options) (*trace.Trace, error) {
	p, err := trace.Find(name)
	if err != nil {
		return nil, err
	}
	opt = opt.Normalized()
	key := Key{Benchmark: p.Name, Len: opt.Len, Seed: opt.Seed, DataBase: opt.DataBase, CodeBase: opt.CodeBase}
	// Generation is bounded CPU work that completes into the shared cache
	// whoever asked for it, as running cells do, so neither owning nor
	// joining one is bound to a caller's context.
	ctx := context.Background()
	call, created := s.mem.BeginCtx(ctx, key)
	if !created {
		return call.WaitCtx(ctx)
	}
	t, err := trace.Generate(p, opt)
	if err == nil {
		s.generated.Add(1)
	}
	call.Fulfill(t, err)
	return t, err
}

// Stats returns a consistent snapshot of the counters.
func (s *Store) Stats() Stats {
	m := s.mem.Stats()
	return Stats{
		Hits:       m.Hits,
		Misses:     m.Misses,
		Evictions:  m.Evictions,
		Entries:    m.Entries,
		Bytes:      m.Bytes,
		MaxEntries: m.MaxEntries,
		MaxBytes:   m.MaxBytes,
		Generated:  s.generated.Load(),
	}
}
