// Package artifactstore is the framework's persistent, content-addressed
// compilation cache — the durable half of the paper's "database of mapping
// results" (Fig. 7). Artifacts are addressed by a canonical structural hash
// of everything that determines the compilation product (see
// core.CompileKey), stored as versioned, checksummed blobs on disk, with an
// in-process LRU of decoded artifacts in front and a per-key singleflight
// guard so N concurrent requests for one design compute it exactly once.
//
// The store is value-agnostic: callers provide a Codec for their artifact
// type, and the store only ever sees opaque payload bytes. Corruption is
// never fatal — a blob rejected by checksum or decode is dropped, counted,
// recomputed and rewritten — so the cache can only ever make deploys
// faster, not wronger.
package artifactstore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"mlvfpga/internal/metrics"
)

// Key addresses one artifact: the fixed-width hex rendering of a canonical
// structural hash, optionally prefixed with a short kind tag
// (e.g. "compiled-9f8e7d6c5b4a3210"). Keys must be non-empty, at most 128
// bytes, and use only [a-z0-9._-] so they are safe as file names.
type Key string

func (k Key) valid() bool {
	if k == "" || len(k) > 128 {
		return false
	}
	for i := 0; i < len(k); i++ {
		c := k[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '.', c == '_':
		default:
			return false
		}
	}
	return true
}

// Codec (de)serializes one artifact type for blob storage. Decode must
// reject payloads it cannot faithfully reconstruct — a decode error is
// treated exactly like a checksum failure (drop, recompute, rewrite).
type Codec interface {
	Encode(v any) ([]byte, error)
	Decode(data []byte) (any, error)
}

// maxMemEntries bounds the decoded-artifact LRU. An entry is one fully
// compiled instance (~100s of KB); a serving process sees one key per
// instance size, at most 21 (hsvital.MaxTiles on the largest device), so
// the bound is a backstop against a caller that keeps inventing designs,
// not a limit a deployment meets.
const maxMemEntries = 128

// Options configures a store and has no field: the memory bound is the
// constant above and the disk is unbounded (one blob of ~100s of KB per
// distinct design). The type stays because the benchmark and the facade's
// ArtifactStoreOptions name it in their calls to Open and NewMemory.
type Options struct{}

// Stats snapshots the store's counters. Hits = MemHits + DiskHits;
// Computes counts invocations of the caller's compute function, which is
// exactly the number of cold compiles the cache failed to absorb.
type Stats struct {
	Hits     int64
	MemHits  int64
	DiskHits int64
	Misses   int64
	Computes int64
	// SingleflightWaits counts calls that joined another caller's
	// in-flight computation instead of starting their own.
	SingleflightWaits int64
	MemEvictions      int64
	// CorruptDropped counts blobs rejected by framing, checksum, or codec
	// decode and removed from disk.
	CorruptDropped int64
	// WriteErrors counts failed blob writes (the artifact stays served
	// from memory; persistence is best-effort).
	WriteErrors int64
	BlobsOnDisk int64
	BytesOnDisk int64
}

// Store is a content-addressed artifact cache. Safe for concurrent use.
type Store struct {
	dir string

	mu      sync.Mutex
	mem     map[Key]*memEntry
	lruHead *memEntry // most recently used
	lruTail *memEntry
	flights map[Key]*flight
	disk    map[Key]int64 // on-disk blob size per key
	stats   Stats
}

// memEntry is one decoded artifact on the intrusive LRU list.
type memEntry struct {
	key        Key
	val        any
	prev, next *memEntry
}

// flight is one in-progress fill; followers block on done.
type flight struct {
	done chan struct{}
	val  any
	hit  bool
	err  error
}

// Open builds a store over dir, creating it if needed and indexing any
// existing blobs (sizes only; payloads are validated lazily on first use).
// An empty dir yields a memory-only store: no persistence, same LRU and
// singleflight semantics.
func Open(dir string, _ Options) (*Store, error) {
	s := &Store{
		dir:     dir,
		mem:     map[Key]*memEntry{},
		flights: map[Key]*flight{},
		disk:    map[Key]int64{},
	}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifactstore: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("artifactstore: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, blobExt) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		key := Key(strings.TrimSuffix(name, blobExt))
		s.disk[key] = info.Size()
		s.stats.BlobsOnDisk++
		s.stats.BytesOnDisk += info.Size()
	}
	return s, nil
}

// NewMemory builds a memory-only store (no persistence), used by tests and
// the deterministic simulation harness.
func NewMemory(opts Options) *Store {
	s, err := Open("", opts)
	if err != nil {
		panic(err) // unreachable: the memory path cannot fail
	}
	return s
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Store) blobPath(key Key) string {
	return filepath.Join(s.dir, string(key)+blobExt)
}

// GetOrCompute returns the artifact for key, loading it from the memory
// LRU, then from disk, and finally by invoking compute. The hit result is
// true when the artifact came from cache and false when this call (or an
// in-flight call it joined) had to compute it. Concurrent calls for the
// same key are coalesced: exactly one runs the disk probe / compute, the
// rest block and share its result.
func (s *Store) GetOrCompute(key Key, codec Codec, compute func() (any, error)) (any, bool, error) {
	if !key.valid() {
		return nil, false, fmt.Errorf("artifactstore: invalid key %q", key)
	}
	if codec == nil || compute == nil {
		return nil, false, errors.New("artifactstore: nil codec or compute")
	}

	s.mu.Lock()
	if e, ok := s.mem[key]; ok {
		s.lruMoveFront(e)
		s.stats.Hits++
		s.stats.MemHits++
		v := e.val
		s.mu.Unlock()
		metrics.ArtifactHits.Add(1)
		return v, true, nil
	}
	if fl, ok := s.flights[key]; ok {
		s.stats.SingleflightWaits++
		s.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, false, fl.err
		}
		return fl.val, fl.hit, nil
	}
	fl := &flight{done: make(chan struct{})}
	s.flights[key] = fl
	s.mu.Unlock()

	// The flight ends however fill does. A panic reaches joined waiters as
	// the flight's error and keeps unwinding this caller's stack.
	panicked := true
	defer func() {
		if panicked {
			fl.err = fmt.Errorf("artifactstore: filling %s panicked", key)
		}
		s.mu.Lock()
		delete(s.flights, key)
		if fl.err == nil {
			s.memInsertLocked(key, fl.val)
		}
		s.mu.Unlock()
		close(fl.done)
	}()
	fl.val, fl.hit, fl.err = s.fill(key, codec, compute)
	panicked = false
	return fl.val, fl.hit, fl.err
}

// fill resolves one key without holding the store lock for the slow parts;
// the caller's flight entry guarantees exclusivity per key.
func (s *Store) fill(key Key, codec Codec, compute func() (any, error)) (any, bool, error) {
	if s.dir != "" {
		payload, err := readBlob(s.blobPath(key))
		switch {
		case err == nil:
			v, derr := codec.Decode(payload)
			if derr == nil {
				s.mu.Lock()
				s.stats.Hits++
				s.stats.DiskHits++
				s.mu.Unlock()
				metrics.ArtifactHits.Add(1)
				return v, true, nil
			}
			s.dropCorrupt(key)
		case errors.Is(err, ErrCorrupt):
			s.dropCorrupt(key)
		case errors.Is(err, fs.ErrNotExist):
			// plain miss
		default:
			// Unreadable for environmental reasons (permissions, IO):
			// fall through to recompute rather than failing the deploy.
		}
	}

	s.mu.Lock()
	s.stats.Misses++
	s.stats.Computes++
	s.mu.Unlock()
	metrics.ArtifactMisses.Add(1)
	metrics.ArtifactCompiles.Add(1)

	v, err := compute()
	if err != nil {
		return nil, false, err
	}
	if s.dir != "" {
		payload, eerr := codec.Encode(v)
		if eerr != nil {
			return nil, false, fmt.Errorf("artifactstore: encode %s: %w", key, eerr)
		}
		if werr := writeBlob(s.blobPath(key), payload); werr != nil {
			s.mu.Lock()
			s.stats.WriteErrors++
			s.mu.Unlock()
		} else {
			s.noteWrite(key, blobSize(len(payload)))
		}
	}
	return v, false, nil
}

// dropCorrupt removes a damaged blob and accounts for it.
func (s *Store) dropCorrupt(key Key) {
	_ = os.Remove(s.blobPath(key))
	s.mu.Lock()
	s.stats.CorruptDropped++
	if sz, ok := s.disk[key]; ok {
		delete(s.disk, key)
		s.stats.BlobsOnDisk--
		s.stats.BytesOnDisk -= sz
		metrics.ArtifactDiskBytes.Add(-sz)
	}
	s.mu.Unlock()
	metrics.ArtifactCorrupt.Add(1)
}

// noteWrite accounts a (re)written blob.
func (s *Store) noteWrite(key Key, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.disk[key]; ok {
		s.stats.BytesOnDisk -= old
		metrics.ArtifactDiskBytes.Add(-old)
	} else {
		s.stats.BlobsOnDisk++
	}
	s.disk[key] = size
	s.stats.BytesOnDisk += size
	metrics.ArtifactDiskBytes.Add(size)
}

// memInsertLocked adds a decoded artifact to the LRU front, evicting the
// tail past capacity. Caller holds s.mu.
func (s *Store) memInsertLocked(key Key, val any) {
	if e, ok := s.mem[key]; ok {
		e.val = val
		s.lruMoveFront(e)
		return
	}
	e := &memEntry{key: key, val: val}
	s.mem[key] = e
	s.lruPushFront(e)
	for len(s.mem) > maxMemEntries {
		tail := s.lruTail
		s.lruUnlink(tail)
		delete(s.mem, tail.key)
		s.stats.MemEvictions++
		metrics.ArtifactEvictions.Add(1)
	}
}

func (s *Store) lruPushFront(e *memEntry) {
	e.prev = nil
	e.next = s.lruHead
	if s.lruHead != nil {
		s.lruHead.prev = e
	}
	s.lruHead = e
	if s.lruTail == nil {
		s.lruTail = e
	}
}

func (s *Store) lruUnlink(e *memEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *Store) lruMoveFront(e *memEntry) {
	if s.lruHead == e {
		return
	}
	s.lruUnlink(e)
	s.lruPushFront(e)
}
