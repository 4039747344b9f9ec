// Package resultstore is the persistent on-disk tier beneath the
// experiment session's in-memory simulation cache: a content-addressed
// directory of encoded core.Result values, keyed by (workload,
// core.Config.Canonical()), that lets a restarted process — or a second
// process pointed at the same directory — serve previously simulated
// cells without re-simulating them. Every simulation here is a
// deterministic pure function of its key, so a stored result is exactly
// the result a recomputation would produce, and the store can never
// serve anything a fresh run would not.
//
// The disk mechanics — file naming, the checksummed envelope, atomic
// writes, byte-bounded LRU eviction and the durability contract — are
// internal/blobstore's. This package is the codec: the identity
// workload + "\x00" + canonical config, and the core.Result payload.
package resultstore

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/blobstore"
	"repro/internal/core"
)

// schemaVersion names the encoding this package writes. Any change to the
// identity or payload layout (new core.Result fields, different field
// order) must bump it; readers treat every other version as a miss.
const schemaVersion uint16 = 2

// format is the result tier's blob format.
var format = blobstore.Format{Magic: "SMRS", Version: schemaVersion, Suffix: ".smtres"}

// Stats is the store's counter snapshot, shaped for the smtsimd
// /v1/metrics endpoint.
type Stats = blobstore.Stats

// Store is the on-disk result tier. All methods are safe for concurrent
// use.
type Store struct {
	blobs *blobstore.Store
}

// Open opens (creating if needed) a store rooted at dir, bounded to
// maxBytes of entry files (0 = unbounded).
func Open(dir string, maxBytes int64) (*Store, error) {
	b, err := blobstore.Open(dir, maxBytes, format)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	return &Store{blobs: b}, nil
}

// identity is the full, collision-free key of a cell.
func identity(workload string, cfg core.Config) []byte {
	return []byte(workload + "\x00" + cfg.Canonical())
}

// Get probes the store for a previously stored result. Every failure
// mode is a miss (ok=false); a hit returns a Result bit-identical to the
// one stored.
func (s *Store) Get(workload string, cfg core.Config) (*core.Result, bool) {
	var r *core.Result
	ok := s.blobs.Get(identity(workload, cfg), func(payload []byte) (err error) {
		r, err = decodePayload(payload)
		return err
	})
	return r, ok
}

// Put stores a result, atomically replacing any previous entry for the
// key. Failures are counted and returned; callers for whom persistence is
// best-effort (the experiment session) may ignore the error.
func (s *Store) Put(workload string, cfg core.Config, r *core.Result) error {
	if err := s.blobs.Put(identity(workload, cfg), encodePayload(r)); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	return nil
}

// Stats returns a consistent snapshot of the counters.
func (s *Store) Stats() Stats { return s.blobs.Stats() }

// encodePayload renders every core.Result field, floats as IEEE-754 bit
// patterns so decode round-trips exactly.
func encodePayload(r *core.Result) []byte {
	var b []byte
	b = appendString(b, r.Workload)
	b = appendString(b, string(r.Policy))
	b = binary.LittleEndian.AppendUint64(b, r.Cycles)
	b = binary.LittleEndian.AppendUint64(b, r.ExecutedTotal)
	b = binary.LittleEndian.AppendUint64(b, r.CommittedTotal)
	b = appendBool(b, r.Truncated)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Threads)))
	for i := range r.Threads {
		t := &r.Threads[i]
		b = appendString(b, t.Benchmark)
		b = binary.LittleEndian.AppendUint64(b, t.Committed)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.IPC))
		b = binary.LittleEndian.AppendUint64(b, t.Executed)
		b = binary.LittleEndian.AppendUint64(b, t.L2MissLoads)
		b = binary.LittleEndian.AppendUint64(b, t.RunaheadEpisodes)
		b = binary.LittleEndian.AppendUint64(b, t.PseudoRetired)
		b = binary.LittleEndian.AppendUint64(b, t.Folded)
		b = binary.LittleEndian.AppendUint64(b, t.PrefetchesIssued)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.RegsNormal))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.RegsRunahead))
		b = binary.LittleEndian.AppendUint64(b, t.CyclesInRunahead)
	}
	return b
}

// decodePayload parses one encodePayload rendering; every defect is an
// error, which the store maps to a miss.
func decodePayload(data []byte) (*core.Result, error) {
	d := &decoder{data: data}
	r := &core.Result{
		Workload:       d.string(),
		Policy:         core.PolicyKind(d.string()),
		Cycles:         d.uint64(),
		ExecutedTotal:  d.uint64(),
		CommittedTotal: d.uint64(),
		Truncated:      d.bool(),
	}
	n := d.uint32()
	if d.err == nil && uint64(n)*89 > uint64(len(data)) { // 89 = minimum encoded thread size
		return nil, fmt.Errorf("resultstore: implausible thread count %d", n)
	}
	for i := uint32(0); i < n && d.err == nil; i++ {
		r.Threads = append(r.Threads, core.ThreadResult{
			Benchmark:        d.string(),
			Committed:        d.uint64(),
			IPC:              math.Float64frombits(d.uint64()),
			Executed:         d.uint64(),
			L2MissLoads:      d.uint64(),
			RunaheadEpisodes: d.uint64(),
			PseudoRetired:    d.uint64(),
			Folded:           d.uint64(),
			PrefetchesIssued: d.uint64(),
			RegsNormal:       math.Float64frombits(d.uint64()),
			RegsRunahead:     math.Float64frombits(d.uint64()),
			CyclesInRunahead: d.uint64(),
		})
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("resultstore: %d trailing bytes", len(data)-d.off)
	}
	return r, nil
}

// appendString appends a length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// appendBool appends a bool as one byte.
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// decoder is a bounds-checked cursor over a payload: the first overrun
// latches err and every later read returns zero values, so decodePayload
// can parse straight-line and check once.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil || n < 0 || len(d.data)-d.off < n {
		if d.err == nil {
			d.err = fmt.Errorf("resultstore: truncated entry")
		}
		return nil
	}
	out := d.data[d.off : d.off+n]
	d.off += n
	return out
}

func (d *decoder) uint32() uint32 {
	b := d.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) uint64() uint64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) bool() bool {
	b := d.bytes(1)
	return b != nil && b[0] != 0
}

func (d *decoder) string() string {
	n := d.uint32()
	if d.err == nil && uint64(n) > uint64(len(d.data)-d.off) {
		d.err = fmt.Errorf("resultstore: truncated entry")
		return ""
	}
	return string(d.bytes(int(n)))
}
