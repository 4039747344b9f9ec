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
// Traces are kept in a small byte-bounded LRU (the recency tier,
// DefaultMemBytes in a session), so consecutive cells of one workload
// find their traces without regenerating them. A trace the LRU evicted
// while a cell still holds it is materialized again (generated, or read
// from the disk tier) by the next cell that asks; the copy is
// bit-identical, so only time is lost.
//
// An optional on-disk tier (Open with a directory) persists encoded
// traces across process restarts; it is an internal/blobstore store,
// which owns the entry format, eviction and the durability contract. A
// damaged or stale store only ever costs regeneration, never a wrong
// trace.
package tracestore

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/blobstore"
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
	// in the recency tier; Misses counts calls that had to materialize one.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts recency-tier entries dropped to respect the byte
	// bound.
	Evictions uint64 `json:"evictions"`
	// Entries and Bytes describe the recency tier's population; MaxBytes
	// echoes its configured bound (0 = unbounded).
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"maxBytes"`
	// Generated counts actual trace.Generate runs — the work every other
	// counter exists to avoid. A warm tier serves a whole sweep with zero.
	Generated uint64 `json:"generated"`
	// Disk* describe the optional persistent tier; all zero when absent.
	DiskHits        uint64 `json:"diskHits"`
	DiskMisses      uint64 `json:"diskMisses"`
	DiskFiles       int    `json:"diskFiles"`
	DiskBytes       int64  `json:"diskBytes"`
	DiskEvictions   uint64 `json:"diskEvictions"`
	DiskWriteErrors uint64 `json:"diskWriteErrors"`
}

// DefaultMemBytes bounds the recency tier of the process-wide default
// store and of every experiments session. It has to bridge the gap
// between consecutive cells of one workload: 4 MiB holds a 4-thread
// workload's traces at 20 000 instructions (1.9 MB) twice over.
const DefaultMemBytes = 4 << 20

// Store is the trace tier. All methods are safe for concurrent use.
type Store struct {
	mem       *simcache.Cache[Key, *trace.Trace]
	disk      *blobstore.Store // nil without a persistent tier
	generated atomic.Uint64
}

// New builds an in-memory-only store whose recency tier is bounded to
// memBytes of trace data (0 = unbounded).
func New(memBytes int64) *Store {
	return &Store{mem: simcache.New[Key](0, memBytes, (*trace.Trace).SizeBytes)}
}

// Open builds a store with a persistent tier rooted at dir, bounded to
// diskBytes of entry files (0 = unbounded).
func Open(memBytes int64, dir string, diskBytes int64) (*Store, error) {
	d, err := blobstore.Open(dir, diskBytes, diskFormat)
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	s := New(memBytes)
	s.disk = d
	return s, nil
}

var defaultStore = sync.OnceValue(func() *Store { return New(DefaultMemBytes) })

// Default returns the process-wide shared store (in-memory only, its
// recency tier bounded to DefaultMemBytes). workload.Traces routes
// through it so that every caller in the process — figures, scenarios,
// references, tests — shares one trace per identity by default.
func Default() *Store { return defaultStore() }

// Generate returns the trace for benchmark name under opt, generating it
// only if no equivalent trace is in memory (or, with a persistent tier,
// on disk). Concurrent calls for one identity share a single generation.
// The returned trace is shared and must be treated as read-only — which
// is the only way the simulator uses traces.
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
	t, ok := s.diskGet(key)
	if !ok {
		if t, err = trace.Generate(p, opt); err == nil {
			s.generated.Add(1)
			if s.disk != nil {
				// Write-behind is best-effort; failures count in DiskWriteErrors.
				_ = s.disk.Put(key.identity(), t.AppendBinary(make([]byte, 0, t.EncodedSize())))
			}
		}
	}
	call.Fulfill(t, err)
	return t, err
}

// Generated returns the number of actual trace generations this store has
// performed.
func (s *Store) Generated() uint64 { return s.generated.Load() }

// Stats returns a consistent snapshot of the counters.
func (s *Store) Stats() Stats {
	m := s.mem.Stats()
	st := Stats{
		Hits:      m.Hits,
		Misses:    m.Misses,
		Evictions: m.Evictions,
		Entries:   m.Entries,
		Bytes:     m.Bytes,
		MaxBytes:  m.MaxBytes,
		Generated: s.generated.Load(),
	}
	if s.disk != nil {
		d := s.disk.Stats()
		st.DiskHits = d.Hits
		st.DiskMisses = d.Misses
		st.DiskFiles = d.Files
		st.DiskBytes = d.Bytes
		st.DiskEvictions = d.Evictions
		st.DiskWriteErrors = d.WriteErrors
	}
	return st
}

// ---- persistent tier ----

// diskFormat is the trace tier's blob format. The low byte of its version
// is trace.CodecVersion, so a codec bump turns every older file into a
// clean miss; the high byte counts changes to the identity layout.
var diskFormat = blobstore.Format{Magic: "SMTT", Version: 2<<8 | trace.CodecVersion, Suffix: ".smttr"}

// identity encodes the key as the bytes its entry file is named by:
// the benchmark name, then Len, Seed, DataBase and CodeBase as
// little-endian uint64s.
func (k Key) identity() []byte {
	b := make([]byte, 0, len(k.Benchmark)+8*4)
	b = append(b, k.Benchmark...)
	b = binary.LittleEndian.AppendUint64(b, uint64(k.Len))
	b = binary.LittleEndian.AppendUint64(b, k.Seed)
	b = binary.LittleEndian.AppendUint64(b, k.DataBase)
	return binary.LittleEndian.AppendUint64(b, k.CodeBase)
}

// diskGet probes the persistent tier, if any, for k's trace.
func (s *Store) diskGet(k Key) (*trace.Trace, bool) {
	if s.disk == nil {
		return nil, false
	}
	var t *trace.Trace
	ok := s.disk.Get(k.identity(), func(payload []byte) (err error) {
		if t, err = trace.DecodeBinary(payload); err == nil && (t.Name != k.Benchmark || t.Len() != k.Len) {
			err = fmt.Errorf("tracestore: payload identity mismatch")
		}
		return err
	})
	return t, ok
}
