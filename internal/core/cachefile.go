package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// This file implements the persistent form of the evaluation cache: an
// append-only, checksummed, flock-guarded journal of (composition key,
// objective, per-rail TimeSI) records that a restarted process loads to
// skip re-evaluating every architecture a previous run already costed.
// The cache is a pure performance layer — every entry is re-verified by
// the same per-rail sub-hash match as an in-memory hit — so the file
// format defends correctness aggressively and availability lazily: any
// suspect byte sequence (torn tail, bad checksum, foreign version)
// degrades to a cold start, never to a wrong cost.
//
// Layout (all fixed-width fields little-endian):
//
//	header  "SITCACHE" | version u32 | reserved u32
//	entry   nRails u32 | key u64 | obj i64 | nRails×(hash u64, timeSI i64) | sum u64
//
// sum is FNV-1a over the entry's preceding bytes. Appends are plain
// writes without fsync — a crash tears at most the final entry, and
// OpenCacheFile truncates the torn tail exactly like the serve journal
// does. Duplicate keys (re-misses after an epoch eviction, or repeated
// runs) are legal; the last record for a key wins, and the file is
// compacted in place when a quarter or more of its records are
// duplicates. An exclusive flock serializes whole files between
// processes: a second opener gets ErrCacheLocked and is expected to run
// memory-only rather than block.

// ErrCacheLocked reports that another process holds the cache file;
// callers degrade to an in-memory cache rather than wait.
var ErrCacheLocked = errors.New("core: cache file locked by another process")

const (
	cacheFileMagic   = "SITCACHE"
	cacheFileVersion = 2 // 2 mixes the problem fingerprint into keys; version-1 files cold-start
	cacheHeaderSize  = 16

	// maxCacheFileRails bounds a single record's rail count during the
	// open scan; real architectures carry a few dozen rails, so a
	// larger claim is corruption, not data.
	maxCacheFileRails = 1 << 12

	// cacheCompactNum/Den: compact the file on open when at least
	// Num/Den of its records are duplicate keys.
	cacheCompactNum = 1
	cacheCompactDen = 4
)

// CacheFile is the persistent backing store of a CachedEvaluator. It
// holds the deduplicated on-disk entries in memory (seeded into the
// evaluator by AttachPersistent) and appends every new miss. Safe for
// concurrent use.
type CacheFile struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	entries map[uint64]cacheEntry
	order   []uint64 // distinct keys in first-seen order, for deterministic compaction
	loaded  int      // distinct entries found at open, before any Append
	closed  bool
}

// OpenCacheFile opens (creating if needed) the persistent cache at
// path, repairs any crash damage, and takes an exclusive advisory lock
// for the file's lifetime. A concurrently held lock returns
// ErrCacheLocked after a short retry window. A file of the wrong
// version is reinitialized empty (cold start); a file that is not a
// sitam cache at all is left untouched and reported as an error.
func OpenCacheFile(path string) (*CacheFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := lockCacheFile(f); err != nil {
		f.Close()
		return nil, err
	}
	cf := &CacheFile{f: f, path: path, entries: make(map[uint64]cacheEntry)}
	if err := cf.load(); err != nil {
		unlockCacheFile(f)
		f.Close()
		return nil, err
	}
	return cf, nil
}

// load scans the file, truncating a torn or corrupt tail, reinitializing
// on a version mismatch, and compacting when the duplicate ratio
// crosses the threshold. On return the file offset sits at the end,
// ready for appends.
func (cf *CacheFile) load() error {
	st, err := cf.f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	if size == 0 {
		return cf.reinit()
	}
	data, unmap, err := mapCacheFile(cf.f, size)
	if err != nil {
		// Mapping can fail on exotic filesystems; fall back to a read.
		data = make([]byte, size)
		if _, rerr := io.ReadFull(io.NewSectionReader(cf.f, 0, size), data); rerr != nil {
			return rerr
		}
		unmap = func() {}
	}

	if size < cacheHeaderSize {
		// A crash during initialization can tear the header itself. A
		// prefix of our magic is our own torn file; anything else is a
		// foreign file we must not clobber.
		n := len(data)
		if n > len(cacheFileMagic) {
			n = len(cacheFileMagic)
		}
		ours := bytes.Equal(data[:n], []byte(cacheFileMagic)[:n])
		unmap()
		if !ours {
			return fmt.Errorf("cache file %s: not a sitam cache", cf.path)
		}
		return cf.reinit()
	}
	if string(data[:len(cacheFileMagic)]) != cacheFileMagic {
		unmap()
		return fmt.Errorf("cache file %s: not a sitam cache", cf.path)
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != cacheFileVersion {
		unmap()
		return cf.reinit()
	}

	records := 0
	off := int64(cacheHeaderSize)
	for {
		key, ent, next, ok := decodeCacheRecord(data, off)
		if !ok {
			break
		}
		if _, dup := cf.entries[key]; !dup {
			cf.order = append(cf.order, key)
		}
		cf.entries[key] = ent
		records++
		off = next
	}
	unmap()

	cf.loaded = len(cf.entries)
	dupes := records - cf.loaded
	switch {
	case dupes*cacheCompactDen >= records*cacheCompactNum && dupes > 0:
		return cf.rewrite()
	case off < size:
		if err := cf.f.Truncate(off); err != nil {
			return fmt.Errorf("repairing cache file %s: %w", cf.path, err)
		}
	}
	_, err = cf.f.Seek(off, io.SeekStart)
	return err
}

// reinit truncates the file to a fresh empty cache (cold start).
func (cf *CacheFile) reinit() error {
	cf.entries = make(map[uint64]cacheEntry)
	cf.order = nil
	cf.loaded = 0
	return cf.rewrite()
}

// rewrite replaces the file's contents with the header plus the
// in-memory entries in first-seen key order. A crash mid-rewrite
// leaves a torn tail the next open repairs — entries can be lost,
// never corrupted into wrong costs.
func (cf *CacheFile) rewrite() error {
	if err := cf.f.Truncate(0); err != nil {
		return err
	}
	if _, err := cf.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	buf := make([]byte, 0, cacheHeaderSize)
	buf = append(buf, cacheFileMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, cacheFileVersion)
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	for _, key := range cf.order {
		buf = appendCacheRecord(buf, key, cf.entries[key])
	}
	if _, err := cf.f.Write(buf); err != nil {
		return err
	}
	return cf.f.Sync()
}

// Append persists one freshly evaluated entry. Identical re-stores of
// a key already on disk are skipped; a changed entry for an existing
// key is appended and supersedes the old record on the next open. The
// write is not fsynced — see the package comment on crash semantics.
func (cf *CacheFile) Append(key uint64, ent cacheEntry) error {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	if cf.closed {
		return os.ErrClosed
	}
	if old, ok := cf.entries[key]; ok {
		if old.obj == ent.obj && len(old.rails) == len(ent.rails) {
			same := true
			for i := range old.rails {
				if old.rails[i] != ent.rails[i] {
					same = false
					break
				}
			}
			if same {
				return nil
			}
		}
	} else {
		cf.order = append(cf.order, key)
	}
	cf.entries[key] = ent
	_, err := cf.f.Write(appendCacheRecord(nil, key, ent))
	return err
}

// Len returns the number of distinct entries held (disk plus appends).
func (cf *CacheFile) Len() int {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	return len(cf.entries)
}

// Loaded returns the number of distinct entries found on disk at open
// time, before any Append of the current process.
func (cf *CacheFile) Loaded() int { return cf.loaded }

// Path returns the file path the cache persists to.
func (cf *CacheFile) Path() string { return cf.path }

// Sync flushes pending appends to stable storage.
func (cf *CacheFile) Sync() error {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	if cf.closed {
		return os.ErrClosed
	}
	return cf.f.Sync()
}

// Close syncs, releases the lock and closes the file. Further Appends
// fail with os.ErrClosed.
func (cf *CacheFile) Close() error {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	if cf.closed {
		return nil
	}
	cf.closed = true
	serr := cf.f.Sync()
	unlockCacheFile(cf.f)
	cerr := cf.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// appendCacheRecord encodes one record onto buf: the fixed prefix, the
// rails, and the FNV-1a checksum of everything preceding it.
func appendCacheRecord(buf []byte, key uint64, ent cacheEntry) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ent.rails)))
	buf = binary.LittleEndian.AppendUint64(buf, key)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ent.obj))
	for _, r := range ent.rails {
		buf = binary.LittleEndian.AppendUint64(buf, r.hash)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.timeSI))
	}
	return binary.LittleEndian.AppendUint64(buf, fnv1aSum(buf[start:]))
}

// decodeCacheRecord parses the record at off. ok is false when the
// record is incomplete, claims an absurd rail count, or fails its
// checksum — the caller treats the position as the torn tail.
func decodeCacheRecord(data []byte, off int64) (key uint64, ent cacheEntry, next int64, ok bool) {
	if off+4 > int64(len(data)) {
		return 0, cacheEntry{}, 0, false
	}
	nRails := int64(binary.LittleEndian.Uint32(data[off:]))
	if nRails > maxCacheFileRails {
		return 0, cacheEntry{}, 0, false
	}
	body := 4 + 8 + 8 + nRails*16
	if off+body+8 > int64(len(data)) {
		return 0, cacheEntry{}, 0, false
	}
	if binary.LittleEndian.Uint64(data[off+body:]) != fnv1aSum(data[off:off+body]) {
		return 0, cacheEntry{}, 0, false
	}
	key = binary.LittleEndian.Uint64(data[off+4:])
	ent.obj = int64(binary.LittleEndian.Uint64(data[off+12:]))
	if nRails > 0 {
		ent.rails = make([]cachedRail, nRails)
		p := off + 20
		for i := range ent.rails {
			ent.rails[i].hash = binary.LittleEndian.Uint64(data[p:])
			ent.rails[i].timeSI = int64(binary.LittleEndian.Uint64(data[p+8:]))
			p += 16
		}
	}
	return key, ent, off + body + 8, true
}

// fnv1aSum is the 64-bit FNV-1a of b — the same family as the
// composition keys, inlined to keep record encoding allocation-free.
func fnv1aSum(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
