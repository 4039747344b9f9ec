// Package blobstore implements the repository's persistent disk tier: a
// byte-bounded, content-addressed directory of checksummed entries. Its
// one user is internal/resultstore (simulated cells), a small codec over
// it that supplies an identity — the full key its payload is a pure
// function of — and a payload encoding; blobstore does everything else.
//
// # Format
//
// An entry is one file named by the SHA-256 of its identity plus the
// tier's suffix, so distinct identities never share a file. It holds
//
//	magic | version u16 | identity length u32 | identity | payload | CRC-32
//
// where magic, version and suffix are the tier's Format and the trailer
// checksums everything before it. A reader accepts an entry only if the
// magic, version, checksum and the echoed identity all match and the
// tier's decoder accepts the payload. Anything else — an absent or
// unreadable file, a torn or corrupted one, a stale version, an entry for
// another identity under this name, an undecodable payload — is one
// counted miss that deletes the file: the caller recomputes and rewrites,
// and a damaged store degrades to recomputation, never to a wrong answer.
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
package blobstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// tmpPrefix names in-progress writes; Open sweeps stale ones.
const tmpPrefix = ".tmp-"

// Format is a tier's on-disk identity. Readers treat an entry with any
// other magic or version as a miss, so a tier bumps Version whenever its
// identity or payload encoding changes.
type Format struct {
	Magic   string
	Version uint16
	// Suffix names entry files; anything else in the directory is ignored.
	Suffix string
}

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

// Store is one disk tier. All methods are safe for concurrent use.
type Store struct {
	dir      string
	maxBytes int64
	format   Format

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
func Open(dir string, maxBytes int64, f Format) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("blobstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blobstore: %w", err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("blobstore: %w", err)
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
		if !strings.HasSuffix(de.Name(), f.Suffix) {
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
	s := &Store{dir: dir, maxBytes: maxBytes, format: f, entries: map[string]*fileEntry{}}
	s.mu.Lock()
	for _, a := range found {
		s.touch(a.name, a.size)
	}
	s.evict()
	s.mu.Unlock()
	return s, nil
}

// name derives the entry file for an identity.
func (s *Store) name(identity []byte) string {
	sum := sha256.Sum256(identity)
	return hex.EncodeToString(sum[:]) + s.format.Suffix
}

// Get probes the store for identity's entry and hands its payload to
// decode. Every defect — absent or unreadable file, bad magic, version or
// checksum, an identity echo mismatch, or an error from decode — is one
// counted miss (false) that deletes the file. decode sees only payloads
// that passed every envelope check; it must copy what it keeps. A hit
// marks the entry most recently accessed.
func (s *Store) Get(identity []byte, decode func(payload []byte) error) bool {
	name := s.name(identity)
	path := filepath.Join(s.dir, name)

	// File I/O runs outside the lock: per-key dedup lives upstream (the
	// callers' singleflight caches), so the mutex only covers accounting.
	data, err := os.ReadFile(path)
	if err == nil {
		if payload, ok := s.verify(data, identity); ok && decode(payload) == nil {
			now := time.Now()
			os.Chtimes(path, now, now) // persist recency; best-effort
			s.mu.Lock()
			s.hits++
			// touch also adopts an entry written by a sharing process;
			// evict then re-enforces the bound the adoption may break.
			s.touch(name, int64(len(data)))
			s.evict()
			s.mu.Unlock()
			return true
		}
		os.Remove(path)
	}
	s.mu.Lock()
	s.misses++
	// Dropping the accounting of a gone or damaged file keeps Bytes
	// honest and stops evict chasing ghosts.
	s.forget(name)
	s.mu.Unlock()
	return false
}

// verify checks an entry's envelope against identity and returns its
// payload.
func (s *Store) verify(data, identity []byte) ([]byte, bool) {
	f := s.format
	head := len(f.Magic) + 2 + 4
	if len(data) < head+len(identity)+4 {
		return nil, false
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if string(body[:len(f.Magic)]) != f.Magic ||
		binary.LittleEndian.Uint16(body[len(f.Magic):]) != f.Version ||
		crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) ||
		binary.LittleEndian.Uint32(body[head-4:]) != uint32(len(identity)) ||
		string(body[head:head+len(identity)]) != string(identity) {
		return nil, false
	}
	return body[head+len(identity):], true
}

// Put stores payload under identity, atomically replacing any previous
// entry, then enforces the byte bound. Failures are counted in
// WriteErrors and returned but leave the store consistent, so callers
// for whom persistence is best-effort may ignore the error.
func (s *Store) Put(identity, payload []byte) error {
	f := s.format
	data := make([]byte, 0, len(f.Magic)+2+4+len(identity)+len(payload)+4)
	data = append(data, f.Magic...)
	data = binary.LittleEndian.AppendUint16(data, f.Version)
	data = binary.LittleEndian.AppendUint32(data, uint32(len(identity)))
	data = append(data, identity...)
	data = append(data, payload...)
	data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(data))

	name := s.name(identity)
	if err := s.write(name, data); err != nil {
		s.mu.Lock()
		s.werrs++
		s.mu.Unlock()
		return fmt.Errorf("blobstore: %w", err)
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
