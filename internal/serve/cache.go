package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"orion/internal/snap"
)

// The result cache: a content-addressed on-disk store of finished
// simulation outcomes, keyed by the request digest. Each entry is one
// file written atomically (snap.WriteAtomic: temp + fsync + rename),
// wrapped in a CRC-checked envelope. The cache is designed to survive
// SIGKILL at any instant: a torn temp file is invisible (the rename never
// happened), a corrupt or truncated entry fails the CRC and reads as a
// miss — silently recomputed and overwritten, never served, never fatal.

// cacheMagic identifies a result-cache entry file.
const cacheMagic = "ORRC"

// cacheVersion is the entry format version; entries from other versions
// read as misses and are overwritten on the next Put.
const cacheVersion = 1

// cacheHeaderLen is magic + version + payload length + CRC-32.
const cacheHeaderLen = 4 + 4 + 4 + 4

// maxCacheEntryBytes bounds one entry's payload — a corrupted length
// field must not drive a huge allocation.
const maxCacheEntryBytes = 64 << 20

// testHoldBeforeRename, when set, is called by Put after the temp file
// is written and fsynced but before the rename — the window where a
// SIGKILL leaves a torn temp file and no entry. The chaos test parks a
// child process here and kills it.
var testHoldBeforeRename func(tmpPath string)

// CacheStats counts cache traffic since the server started.
type CacheStats struct {
	// Hits served a stored result; Misses found no entry.
	Hits, Misses uint64
	// Rejected counts entries that existed but failed validation
	// (truncated, bit-flipped, torn, wrong version) and were treated as
	// misses for recompute.
	Rejected uint64
	// Puts counts entries durably written.
	Puts uint64
}

// Cache is the persistent digest-keyed result store. All methods are
// safe for concurrent use. A nil *Cache is a valid disabled cache: Get
// always misses and Put is a no-op.
type Cache struct {
	dir string

	mu    sync.Mutex
	stats CacheStats
}

// OpenCache opens (creating if needed) the cache directory. Leftover
// temp files from a previous crash mid-write are swept away; entries are
// validated lazily on Get, so a directory full of damage opens fine.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: opening cache: %w", err)
	}
	c := &Cache{dir: dir}
	c.sweepTemps()
	return c, nil
}

// sweepTemps removes torn temp files left by a crash between temp-write
// and rename. Best effort: a sweep failure never fails the cache.
func (c *Cache) sweepTemps() {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			_ = os.Remove(filepath.Join(c.dir, e.Name()))
		}
	}
}

// validDigest guards the digest-to-filename mapping: cache keys are hex
// digests, so anything else (path separators, "..", empty) is rejected.
func validDigest(digest string) bool {
	if len(digest) == 0 || len(digest) > 128 {
		return false
	}
	for _, r := range digest {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

func (c *Cache) entryPath(digest string) string {
	return filepath.Join(c.dir, digest+".orc")
}

// Get returns the stored payload for a digest. Any damage — a missing
// file, truncation, a flipped bit, a torn write, a foreign format —
// reads as a miss: the caller recomputes and overwrites. Get never
// returns an error by design; a cache can only make the server faster,
// never wrong or down.
func (c *Cache) Get(digest string) ([]byte, bool) {
	if c == nil || !validDigest(digest) {
		return nil, false
	}
	data, err := os.ReadFile(c.entryPath(digest))
	if err != nil {
		c.count(func(s *CacheStats) { s.Misses++ })
		return nil, false
	}
	payload, err := decodeCacheEntry(data)
	if err != nil {
		c.count(func(s *CacheStats) { s.Rejected++ })
		return nil, false
	}
	c.count(func(s *CacheStats) { s.Hits++ })
	return payload, true
}

// Put durably stores a payload under a digest: the envelope lands in a
// temp file in the cache directory, is fsynced, and is renamed over the
// entry path, so a crash at any instant leaves either the old entry or
// the new one — never a torn file a later Get could half-read.
func (c *Cache) Put(digest string, payload []byte) error {
	if c == nil {
		return nil
	}
	if !validDigest(digest) {
		return fmt.Errorf("serve: cache: invalid digest %q", digest)
	}
	if len(payload) > maxCacheEntryBytes {
		return fmt.Errorf("serve: cache: %d-byte payload exceeds the %d-byte entry limit", len(payload), maxCacheEntryBytes)
	}
	if err := snap.WriteAtomic(c.entryPath(digest), encodeCacheEntry(payload), testHoldBeforeRename); err != nil {
		return fmt.Errorf("serve: cache: %w", err)
	}
	c.count(func(s *CacheStats) { s.Puts++ })
	return nil
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *Cache) count(f func(*CacheStats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// cacheIndex is the operator-facing index flushed on drain: which
// digests are stored plus the session's traffic counters. It is
// advisory only — the entries themselves are the source of truth, and a
// missing or stale index costs nothing on restart.
type cacheIndex struct {
	Version int        `json:"version"`
	Entries []string   `json:"entries"`
	Stats   CacheStats `json:"stats"`
}

// FlushIndex atomically writes the cache index (index.json) and sweeps
// any torn temp files, the cache's part of a graceful drain.
func (c *Cache) FlushIndex() error {
	if c == nil {
		return nil
	}
	c.sweepTemps()
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("serve: cache: flushing index: %w", err)
	}
	idx := cacheIndex{Version: cacheVersion, Stats: c.Stats()}
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), ".orc"); ok && validDigest(name) {
			idx.Entries = append(idx.Entries, name)
		}
	}
	data, err := json.MarshalIndent(idx, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: cache: encoding index: %w", err)
	}
	if err := snap.WriteAtomic(filepath.Join(c.dir, "index.json"), append(data, '\n'), nil); err != nil {
		return fmt.Errorf("serve: cache: flushing index: %w", err)
	}
	return nil
}

// encodeCacheEntry wraps a payload in the entry envelope:
// magic, version, payload length, CRC-32 of the payload, payload.
func encodeCacheEntry(payload []byte) []byte {
	buf := make([]byte, 0, cacheHeaderLen+len(payload))
	buf = append(buf, cacheMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, cacheVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// decodeCacheEntry validates an entry envelope and returns its payload.
// Every failure mode of a damaged file — short read, bad magic, version
// skew, length mismatch, checksum mismatch — is an error the caller
// treats as a miss.
func decodeCacheEntry(data []byte) ([]byte, error) {
	if len(data) < cacheHeaderLen {
		return nil, fmt.Errorf("serve: cache entry of %d bytes shorter than the envelope", len(data))
	}
	if string(data[:4]) != cacheMagic {
		return nil, fmt.Errorf("serve: cache entry has bad magic %q", data[:4])
	}
	version := binary.LittleEndian.Uint32(data[4:8])
	if version != cacheVersion {
		return nil, fmt.Errorf("serve: cache entry version %d, this build reads %d", version, cacheVersion)
	}
	plen := binary.LittleEndian.Uint32(data[8:12])
	sum := binary.LittleEndian.Uint32(data[12:16])
	payload := data[cacheHeaderLen:]
	if uint64(plen) > maxCacheEntryBytes {
		return nil, fmt.Errorf("serve: cache entry claims an impossible %d-byte payload", plen)
	}
	if uint32(len(payload)) != plen || len(payload) != int(plen) {
		return nil, fmt.Errorf("serve: cache entry payload is %d bytes, header says %d (truncated or padded)", len(payload), plen)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("serve: cache entry checksum %08x does not match header %08x", got, sum)
	}
	return payload, nil
}
