// Package resultstore is the persistent on-disk tier beneath the
// experiment session's in-memory simulation cache: a byte-bounded,
// content-addressed directory of checksummed, encoded core.Result
// values, keyed by (workload, core.Config.Canonical()), that lets a
// restarted process — or a second process pointed at the same directory
// — serve previously simulated cells without re-simulating them. Every
// simulation here is a deterministic pure function of its key, so a
// stored result is exactly the result a recomputation would produce, and
// the store can never serve anything a fresh run would not.
//
// # Format
//
// A cell's identity is workload + "\x00" + canonical config. Its entry
// is one file named by the SHA-256 of the identity plus ".smtres", so
// distinct identities never share a file. It holds
//
//	"SMRS" | version u16 | identity length u32 | identity | payload | CRC-32
//
// where the payload encodes every core.Result field and the trailer
// checksums everything before it. A reader accepts an entry only if the
// magic, version, checksum and the echoed identity all match and the
// payload decodes. Anything else — an absent or unreadable file, a torn
// or corrupted one, a stale version, an entry for another identity under
// this name, an undecodable payload — is one counted miss. A miss whose
// file opened (or whose path is a directory) deletes whatever sits at
// the entry's path, so a damaged entry never blocks the rewrite: the
// caller recomputes and rewrites, and a damaged store degrades to
// recomputation, never to a wrong answer. A file that could not be
// opened is left alone: running out of descriptors says nothing about
// the entry.
//
// Get reads an entry with bare system calls (open, read to EOF, close)
// into a 1 KiB buffer that grows as needed: a read of a few hundred
// bytes needs no *os.File, no poller registration and no fstat.
// Get runs on the requester's goroutine (the experiment session probes
// the store before it queues a cell), so it is the whole cost of a disk
// hit.
//
// # Durability
//
// The store never calls fsync. Crash safety means "detect, then
// recompute", which is enough because every payload is a deterministic
// function of its identity and costs only time to rebuild:
//
//   - A crash (of the process or the machine) may lose recently written
//     entries or leave a torn one behind.
//   - A torn entry fails the length or CRC check on read, reads as a
//     miss, and the cell is recomputed and rewritten.
//   - Each write goes to a temp file and is renamed into place, so a
//     rename is atomic per entry: a reader sees the old entry, the new
//     one, or none, never a mix.
//   - Open deletes every ".tmp-*" file in the directory, because a writer
//     killed between create and rename leaves one behind. Processes may
//     share a directory, so Open may also delete another writer's
//     in-flight temp file. That write then fails its rename and counts as
//     a WriteError; it never produces a wrong answer.
//
// # Eviction
//
// The store is byte-bounded (0 = unbounded): when the tracked footprint
// passes the bound, least-recently-accessed entries are deleted until it
// fits. Recency persists across restarts through file modification
// times: Open adopts existing entries oldest-mtime-first, and every hit
// bumps its file's mtime. Eviction, like corruption, only costs
// recomputation.
package resultstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
)

const (
	// magic opens every entry file.
	magic = "SMRS"
	// schemaVersion names the encoding this package writes. Any change to
	// the identity or payload layout (new core.Result fields, different
	// field order) must bump it; readers treat every other version as a
	// miss.
	schemaVersion uint16 = 2
	// suffix names entry files; anything else in the directory is ignored.
	suffix = ".smtres"
	// tmpPrefix names in-progress writes; Open sweeps stale ones.
	tmpPrefix = ".tmp-"
	// headLen is the envelope before the identity: magic, version and
	// identity length.
	headLen = len(magic) + 2 + 4
)

// Stats is a point-in-time snapshot of store effectiveness, shaped for
// the smtsimd /v1/metrics endpoint.
type Stats struct {
	// Hits counts Get calls served from disk; Misses counts Get calls
	// that found nothing usable (absent, stale-version, corrupt, or
	// mismatched entries all read as misses).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts entries deleted to respect MaxBytes.
	Evictions uint64 `json:"evictions"`
	// WriteErrors counts Put calls that failed to land an entry.
	WriteErrors uint64 `json:"writeErrors"`
	// Files and Bytes describe the tracked population.
	Files int   `json:"files"`
	Bytes int64 `json:"bytes"`
	// MaxBytes echoes the configured bound (0 = unbounded).
	MaxBytes int64 `json:"maxBytes"`
}

// fileEntry is the in-memory accounting for one entry file.
type fileEntry struct {
	size int64
	seq  uint64 // logical access clock; highest = most recently used
}

// Store is the on-disk result tier. All methods are safe for concurrent
// use.
type Store struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	entries map[string]*fileEntry // file name -> accounting
	bytes   int64
	seq     uint64
	hits    uint64
	misses  uint64
	evicted uint64
	werrs   uint64
}

// Open opens (creating if needed) a store rooted at dir, bounded to
// maxBytes of entry files (0 = unbounded). It sweeps stale temp files,
// adopts existing entries with their modification times as access
// recency, and enforces the bound immediately, so a shrunken bound takes
// effect at open.
func Open(dir string, maxBytes int64) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	type adopted struct {
		name  string
		size  int64
		mtime time.Time
	}
	var found []adopted
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		if strings.HasPrefix(de.Name(), tmpPrefix) {
			// Temp files are invisible to lookups and exempt from the
			// byte bound, so left alone they would leak disk across
			// kill/restart cycles.
			os.Remove(filepath.Join(dir, de.Name()))
			continue
		}
		if !strings.HasSuffix(de.Name(), suffix) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // raced with a sharing process's eviction
		}
		found = append(found, adopted{de.Name(), info.Size(), info.ModTime()})
	}
	// Oldest first, so adopted entries get ascending sequence numbers and
	// eviction order matches on-disk recency.
	sort.Slice(found, func(i, j int) bool {
		if !found[i].mtime.Equal(found[j].mtime) {
			return found[i].mtime.Before(found[j].mtime)
		}
		return found[i].name < found[j].name
	})
	s := &Store{dir: dir, maxBytes: maxBytes, entries: map[string]*fileEntry{}}
	s.mu.Lock()
	for _, a := range found {
		s.touch(a.name, a.size)
	}
	s.evict()
	s.mu.Unlock()
	return s, nil
}

// identity is the full, collision-free key of a cell.
func identity(workload string, cfg core.Config) []byte {
	return []byte(workload + "\x00" + cfg.Canonical())
}

// entryName derives the entry file for an identity.
func entryName(identity []byte) string {
	sum := sha256.Sum256(identity)
	return hex.EncodeToString(sum[:]) + suffix
}

// Get probes the store for a previously stored result. It reads the
// entry file whole, to EOF, with bare system calls (readEntry). Every
// defect — an absent or unreadable file, bad magic, version or checksum,
// an identity echo mismatch, or a payload that does not decode — is one
// counted miss (ok=false). A miss deletes what sits at the entry's path
// when the file opened but its read failed or it was refused, and when
// the path is a directory (damaged); a file that could not be opened is
// left alone, since an open can fail for reasons that say nothing about
// the file. A hit returns a Result bit-identical to the one stored, bumps
// the file's mtime and marks the entry most recently accessed.
func (s *Store) Get(workload string, cfg core.Config) (*core.Result, bool) {
	id := identity(workload, cfg)
	name := entryName(id)
	path := filepath.Join(s.dir, name)

	// File I/O runs outside the lock: per-key dedup lives upstream (the
	// session's singleflight cache), so the mutex only covers accounting.
	data, err := readEntry(path)
	if err == nil {
		if payload, ok := verify(data, id); ok {
			if r, err := decodePayload(payload); err == nil {
				now := time.Now()
				os.Chtimes(path, now, now) // persist recency; best-effort
				s.mu.Lock()
				s.hits++
				// touch also adopts an entry written by a sharing process;
				// evict then re-enforces the bound the adoption may break.
				s.touch(name, int64(len(data)))
				s.evict()
				s.mu.Unlock()
				return r, true
			}
		}
	}
	if damaged(err) {
		os.Remove(path)
	}
	s.mu.Lock()
	s.misses++
	// Dropping the accounting of a gone or damaged file keeps Bytes
	// honest and stops evict chasing ghosts.
	s.forget(name)
	s.mu.Unlock()
	return nil, false
}

// damaged reports whether a probe that failed with err (nil when the file
// was read but refused) found a bad entry at the path. A failed open says
// nothing about the file — it is absent, or the process is out of
// descriptors, or lacks permission — except EISDIR, which some systems
// report at open for a directory; a failed read or a refused file does.
func damaged(err error) bool {
	var pe *fs.PathError
	return err == nil || errors.Is(err, syscall.EISDIR) || errors.As(err, &pe) && pe.Op != "open"
}

// sizeHint is the read buffer's starting size; an entry is a few hundred
// bytes.
const sizeHint = 1 << 10

// readEntry returns the whole file at path, read to EOF with bare system
// calls into a buffer that starts at sizeHint bytes and grows as needed.
// A failure is an *fs.PathError whose Op is "open" or "read", as package
// os reports it; an interrupted call is retried.
func readEntry(path string) ([]byte, error) {
	const flags = syscall.O_RDONLY | syscall.O_CLOEXEC
	fd, err := syscall.Open(path, flags, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, flags, 0)
	}
	if err != nil {
		return nil, &fs.PathError{Op: "open", Path: path, Err: err}
	}
	defer syscall.Close(fd)
	buf := make([]byte, 0, sizeHint)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := syscall.Read(fd, buf[len(buf):cap(buf)])
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return nil, &fs.PathError{Op: "read", Path: path, Err: err}
		case n == 0:
			return buf, nil
		}
		buf = buf[:len(buf)+n]
	}
}

// verify checks an entry's envelope against identity and returns its
// payload.
func verify(data, identity []byte) ([]byte, bool) {
	if len(data) < headLen+len(identity)+4 {
		return nil, false
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if string(body[:len(magic)]) != magic ||
		binary.LittleEndian.Uint16(body[len(magic):]) != schemaVersion ||
		crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) ||
		binary.LittleEndian.Uint32(body[headLen-4:]) != uint32(len(identity)) ||
		string(body[headLen:headLen+len(identity)]) != string(identity) {
		return nil, false
	}
	return body[headLen+len(identity):], true
}

// Put stores a result, atomically replacing any previous entry for the
// key, then enforces the byte bound. Failures are counted in WriteErrors
// and returned but leave the store consistent; callers for whom
// persistence is best-effort (the experiment session) may ignore the
// error.
func (s *Store) Put(workload string, cfg core.Config, r *core.Result) error {
	id := identity(workload, cfg)
	payload := encodePayload(r)
	data := make([]byte, 0, headLen+len(id)+len(payload)+4)
	data = append(data, magic...)
	data = binary.LittleEndian.AppendUint16(data, schemaVersion)
	data = binary.LittleEndian.AppendUint32(data, uint32(len(id)))
	data = append(data, id...)
	data = append(data, payload...)
	data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(data))

	name := entryName(id)
	if err := s.write(name, data); err != nil {
		s.mu.Lock()
		s.werrs++
		s.mu.Unlock()
		return fmt.Errorf("resultstore: %w", err)
	}
	s.mu.Lock()
	s.forget(name) // replacing an entry drops its old accounting
	s.touch(name, int64(len(data)))
	s.evict()
	s.mu.Unlock()
	return nil
}

// writeTemp fills a freshly created temp file. It is a variable so tests
// can inject the write faults of a full or failing disk (ENOSPC, EIO).
var writeTemp = func(f *os.File, data []byte) error {
	_, err := f.Write(data)
	return err
}

// write lands data under name via a temp file and an atomic rename. Like
// Get's read, it runs outside the lock.
func (s *Store) write(name string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return err
	}
	err = writeTemp(tmp, data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(s.dir, name))
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// touch marks name most recently accessed, adopting it with size if it
// is not yet tracked. Caller holds mu.
func (s *Store) touch(name string, size int64) {
	s.seq++
	if e, ok := s.entries[name]; ok {
		e.seq = s.seq
		return
	}
	s.entries[name] = &fileEntry{size: size, seq: s.seq}
	s.bytes += size
}

// forget drops an entry's accounting without touching the file or the
// eviction counter. Caller holds mu.
func (s *Store) forget(name string) {
	if e, ok := s.entries[name]; ok {
		s.bytes -= e.size
		delete(s.entries, name)
	}
}

// evict deletes least-recently-accessed entries until the byte bound
// holds. Caller holds mu.
func (s *Store) evict() {
	for s.maxBytes > 0 && s.bytes > s.maxBytes && len(s.entries) > 0 {
		victim, min := "", uint64(math.MaxUint64)
		// seq is unique per entry, so map order cannot change the victim.
		for name, e := range s.entries {
			if e.seq < min {
				victim, min = name, e.seq
			}
		}
		s.forget(victim)
		s.evicted++
		os.Remove(filepath.Join(s.dir, victim))
	}
}

// Stats returns a consistent snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:        s.hits,
		Misses:      s.misses,
		Evictions:   s.evicted,
		WriteErrors: s.werrs,
		Files:       len(s.entries),
		Bytes:       s.bytes,
		MaxBytes:    s.maxBytes,
	}
}

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

// minThreadLen is the smallest encoded core.ThreadResult: an empty
// length-prefixed Benchmark and eleven 8-byte fields. decodePayload
// refuses a thread count the payload is too short to hold before it
// allocates for it.
const minThreadLen = 4 + 11*8

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
	if d.err == nil && uint64(n)*minThreadLen > uint64(len(data)) {
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
