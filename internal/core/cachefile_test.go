package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"sitam/internal/tam"
)

// Corruption-handling coverage for the persistent cache file. The
// contract under test: any damaged, foreign or stale file degrades to
// a cold start (or refuses to touch a non-cache file) — never to a
// wrong entry — and every complete record before a torn tail survives.

func testEntry(obj int64, railHashes ...uint64) cacheEntry {
	ent := cacheEntry{obj: obj}
	for i, h := range railHashes {
		ent.rails = append(ent.rails, cachedRail{hash: h, timeSI: obj*100 + int64(i)})
	}
	return ent
}

// buildCacheBytes renders a well-formed cache file image.
func buildCacheBytes(recs []struct {
	key uint64
	ent cacheEntry
}) []byte {
	buf := make([]byte, 0, cacheHeaderSize)
	buf = append(buf, cacheFileMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, cacheFileVersion)
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	for _, r := range recs {
		buf = appendCacheRecord(buf, r.key, r.ent)
	}
	return buf
}

func threeRecords() []struct {
	key uint64
	ent cacheEntry
} {
	return []struct {
		key uint64
		ent cacheEntry
	}{
		{key: 101, ent: testEntry(11, 0xaa, 0xbb)},
		{key: 202, ent: testEntry(22, 0xcc)},
		{key: 303, ent: testEntry(33, 0xdd, 0xee, 0xff)},
	}
}

func writeFile(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cache.sit")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCacheFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.sit")
	cf, err := OpenCacheFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := threeRecords()
	for _, r := range want {
		if err := cf.Append(r.key, r.ent); err != nil {
			t.Fatal(err)
		}
	}
	if cf.Loaded() != 0 || cf.Len() != 3 {
		t.Fatalf("fresh file: loaded %d, len %d; want 0 and 3", cf.Loaded(), cf.Len())
	}
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}
	cf2, err := OpenCacheFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf2.Close()
	if cf2.Loaded() != 3 {
		t.Fatalf("reopen loaded %d entries, want 3", cf2.Loaded())
	}
	for _, r := range want {
		got, ok := cf2.entries[r.key]
		if !ok {
			t.Fatalf("key %d missing after reopen", r.key)
		}
		if got.obj != r.ent.obj || len(got.rails) != len(r.ent.rails) {
			t.Fatalf("key %d: entry %+v, want %+v", r.key, got, r.ent)
		}
		for i := range got.rails {
			if got.rails[i] != r.ent.rails[i] {
				t.Fatalf("key %d rail %d: %+v, want %+v", r.key, i, got.rails[i], r.ent.rails[i])
			}
		}
	}
}

// TestCacheFileTornTailEveryPrefix simulates a crash at every possible
// byte: each prefix of a valid file must open cleanly and yield
// exactly the complete records the prefix contains.
func TestCacheFileTornTailEveryPrefix(t *testing.T) {
	recs := threeRecords()
	full := buildCacheBytes(recs)
	// Byte offsets at which 0, 1, 2, 3 records are complete.
	bounds := []int{cacheHeaderSize}
	for _, r := range recs {
		bounds = append(bounds, bounds[len(bounds)-1]+len(appendCacheRecord(nil, r.key, r.ent)))
	}
	for cut := 0; cut <= len(full); cut++ {
		path := writeFile(t, full[:cut])
		cf, err := OpenCacheFile(path)
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		wantN := 0
		for _, b := range bounds[1:] {
			if cut >= b {
				wantN++
			}
		}
		if cf.Loaded() != wantN {
			t.Fatalf("cut=%d: loaded %d records, want %d", cut, cf.Loaded(), wantN)
		}
		for i := 0; i < wantN; i++ {
			if got, ok := cf.entries[recs[i].key]; !ok || got.obj != recs[i].ent.obj {
				t.Fatalf("cut=%d: record %d lost or wrong (%+v)", cut, i, got)
			}
		}
		// The repaired file must be appendable and stable.
		if err := cf.Append(999, testEntry(99, 0x9)); err != nil {
			t.Fatalf("cut=%d: append after repair: %v", cut, err)
		}
		cf.Close()
		cf2, err := OpenCacheFile(path)
		if err != nil {
			t.Fatalf("cut=%d: reopen after repair: %v", cut, err)
		}
		if cf2.Loaded() != wantN+1 {
			t.Fatalf("cut=%d: reopen loaded %d, want %d", cut, cf2.Loaded(), wantN+1)
		}
		cf2.Close()
	}
}

// TestCacheFileBadChecksum flips one byte inside the middle record: the
// scan must keep everything before it and truncate the rest — a
// damaged record never surfaces as an entry.
func TestCacheFileBadChecksum(t *testing.T) {
	recs := threeRecords()
	data := buildCacheBytes(recs)
	rec1End := cacheHeaderSize + len(appendCacheRecord(nil, recs[0].key, recs[0].ent))
	data[rec1End+14] ^= 0x40 // inside record 2's obj field
	path := writeFile(t, data)
	cf, err := OpenCacheFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	if cf.Loaded() != 1 {
		t.Fatalf("loaded %d records after mid-file corruption, want 1", cf.Loaded())
	}
	if got := cf.entries[recs[0].key]; got.obj != recs[0].ent.obj {
		t.Fatalf("surviving record wrong: %+v", got)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != int64(rec1End) {
		t.Fatalf("file not truncated to last good record: %d bytes, want %d", st.Size(), rec1End)
	}
}

// TestCacheFileWrongVersion: a future (or ancient) version cold-starts
// — the file is reinitialized empty rather than misread.
func TestCacheFileWrongVersion(t *testing.T) {
	data := buildCacheBytes(threeRecords())
	binary.LittleEndian.PutUint32(data[8:12], cacheFileVersion+7)
	path := writeFile(t, data)
	cf, err := OpenCacheFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cf.Loaded() != 0 {
		t.Fatalf("wrong-version file yielded %d records, want cold start", cf.Loaded())
	}
	if err := cf.Append(7, testEntry(70, 0x7)); err != nil {
		t.Fatal(err)
	}
	cf.Close()
	cf2, err := OpenCacheFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf2.Close()
	if cf2.Loaded() != 1 {
		t.Fatalf("reinitialized file reopened with %d records, want 1", cf2.Loaded())
	}
}

// TestCacheFileForeign: a file that is not a sitam cache errors out and
// is left byte-identical — Open must never clobber foreign data.
func TestCacheFileForeign(t *testing.T) {
	for _, data := range [][]byte{
		[]byte("definitely not a cache file, but longer than a header"),
		[]byte("XYZ"), // shorter than the magic
	} {
		path := writeFile(t, data)
		if _, err := OpenCacheFile(path); err == nil {
			t.Fatalf("foreign file %q opened without error", data[:3])
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, data) {
			t.Fatalf("foreign file modified: %q -> %q", data, after)
		}
	}
}

// TestCacheFileTornHeader: a crash during initialization leaves a bare
// magic prefix; that is our own file and must cold-start, not error.
func TestCacheFileTornHeader(t *testing.T) {
	for _, n := range []int{1, 4, 8, 12} {
		full := buildCacheBytes(nil)
		path := writeFile(t, full[:n])
		cf, err := OpenCacheFile(path)
		if err != nil {
			t.Fatalf("torn header of %d bytes: %v", n, err)
		}
		if cf.Loaded() != 0 {
			t.Fatalf("torn header yielded %d records", cf.Loaded())
		}
		cf.Close()
	}
}

// TestCacheFileCompaction: duplicate records (a key re-stored with new
// contents) are folded on open once they reach a quarter of the file,
// and the newest record wins.
func TestCacheFileCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.sit")
	cf, err := OpenCacheFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(1); v <= 4; v++ {
		if err := cf.Append(50, testEntry(v, uint64(v))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cf.Append(60, testEntry(600, 0x60)); err != nil {
		t.Fatal(err)
	}
	cf.Close()
	grown, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	cf2, err := OpenCacheFile(path) // 5 records, 3 dupes -> compacts
	if err != nil {
		t.Fatal(err)
	}
	defer cf2.Close()
	if cf2.Loaded() != 2 {
		t.Fatalf("loaded %d distinct entries, want 2", cf2.Loaded())
	}
	if got := cf2.entries[50]; got.obj != 4 {
		t.Fatalf("key 50 resolved to obj %d, want the newest record 4", got.obj)
	}
	shrunk, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.Size() >= grown.Size() {
		t.Fatalf("compaction did not shrink the file: %d -> %d bytes", grown.Size(), shrunk.Size())
	}
}

// TestCacheFileAppendDedup: re-storing a byte-identical entry (the
// common re-miss after an epoch eviction) must not grow the file.
func TestCacheFileAppendDedup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.sit")
	cf, err := OpenCacheFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	ent := testEntry(5, 0x5, 0x55)
	if err := cf.Append(1, ent); err != nil {
		t.Fatal(err)
	}
	st1, _ := os.Stat(path)
	for i := 0; i < 10; i++ {
		if err := cf.Append(1, ent); err != nil {
			t.Fatal(err)
		}
	}
	st2, _ := os.Stat(path)
	if st1.Size() != st2.Size() {
		t.Fatalf("identical re-stores grew the file %d -> %d bytes", st1.Size(), st2.Size())
	}
}

// TestCachePersistentWarmRestart is the end-to-end attribution test: a
// second process seeded from the cache file answers a repeated sweep
// entirely from loads — counted as hits at lookup time, with Loads
// kept separate so the warm start is visible — and never calls the
// inner evaluator.
func TestCachePersistentWarmRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.sit")
	fresh := InTestEvaluator{}

	// "Process 1": cold run over five compositions.
	cf1, err := OpenCacheFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewCachedEvaluator(InTestEvaluator{}, 0)
	c1.AttachPersistent(cf1)
	for w := 1; w <= 5; w++ {
		checkCachedEqualsFresh(t, c1, fresh, freshRails(w))
	}
	st := c1.Stats()
	if st.Loads != 0 || st.Misses != 5 || st.Hits != 0 {
		t.Fatalf("cold run stats %+v, want 5 misses only", st)
	}
	if err := cf1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Process 2": restart, reattach, repeat the sweep.
	cf2, err := OpenCacheFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf2.Close()
	if cf2.Loaded() != 5 {
		t.Fatalf("restart loaded %d entries, want 5", cf2.Loaded())
	}
	c2 := NewCachedEvaluator(InTestEvaluator{}, 0)
	c2.AttachPersistent(cf2)
	st = c2.Stats()
	if st.Loads != 5 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("post-attach stats %+v: loads must be 5 and NOT count as hits", st)
	}
	for w := 1; w <= 5; w++ {
		checkCachedEqualsFresh(t, c2, fresh, freshRails(w))
	}
	st = c2.Stats()
	if st.Hits != 5 || st.Misses != 0 {
		t.Fatalf("warm sweep stats %+v, want 5 hits 0 misses (hit rate %.0f%% < 90%%)",
			st, st.HitRate()*100)
	}
	if st.Loads != 5 {
		t.Fatalf("warm sweep changed Loads to %d", st.Loads)
	}

	// A cache smaller than the file seeds no more than its capacity.
	small := NewCachedEvaluator(InTestEvaluator{}, 3)
	small.AttachPersistent(cf2)
	if st := small.Stats(); st.Entries == 0 || st.Entries > 3 || st.Loads != int64(st.Entries) {
		t.Fatalf("capacity-3 cache seeded from 5 entries: %+v", st)
	}
}

// TestCacheSeedsInFileOrder: a cache smaller than its file seeds the
// file's first entries, so two such caches answer one evaluation
// sequence with the same hits.
func TestCacheSeedsInFileOrder(t *testing.T) {
	cf, err := OpenCacheFile(filepath.Join(t.TempDir(), "cache.sit"))
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	warm := NewCachedEvaluator(InTestEvaluator{}, 0)
	warm.AttachPersistent(cf)
	rng := rand.New(rand.NewSource(3))
	a := freshRails(2)
	var walk []*tam.Architecture
	for cf.Len() < 100 {
		if len(walk) == 10000 {
			t.Fatalf("%d steps stored only %d entries", len(walk), cf.Len())
		}
		mutateArch(a, rng)
		walk = append(walk, a.Clone())
		if _, err := warm.Evaluate(a); err != nil {
			t.Fatal(err)
		}
	}
	hits := func() int64 {
		c := NewCachedEvaluator(InTestEvaluator{}, 10)
		c.AttachPersistent(cf)
		for _, w := range walk {
			checkCachedEqualsFresh(t, c, InTestEvaluator{}, w.Clone())
		}
		return c.Stats().Hits
	}
	want := hits()
	for i := 0; i < 5; i++ {
		if got := hits(); got != want {
			t.Fatalf("two capacity-10 caches seeded from one %d-entry file: %d and %d hits", cf.Len(), want, got)
		}
	}
}

// TestCacheAppendFailureDegrades: once the file is closed under the
// evaluator, persistence detaches silently and evaluation carries on.
func TestCacheAppendFailureDegrades(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.sit")
	cf, err := OpenCacheFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCachedEvaluator(InTestEvaluator{}, 0)
	c.AttachPersistent(cf)
	cf.Close()
	for w := 1; w <= 3; w++ {
		checkCachedEqualsFresh(t, c, InTestEvaluator{}, freshRails(w))
	}
	if c.persist != nil {
		t.Fatal("append failure did not detach the persistent file")
	}
	if st := c.Stats(); st.Misses != 3 {
		t.Fatalf("stats %+v, want 3 misses", st)
	}
}

// FuzzCacheFileFormat throws arbitrary bytes at OpenCacheFile: it must
// never panic, never load a record that fails its checksum, and a file
// it accepts must stay usable (append + reopen round-trips).
func FuzzCacheFileFormat(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(cacheFileMagic))
	f.Add(buildCacheBytes(nil))
	full := buildCacheBytes(threeRecords())
	f.Add(full)
	f.Add(full[:len(full)-5])
	mut := append([]byte(nil), full...)
	mut[cacheHeaderSize+9] ^= 0x80
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "cache.sit")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		cf, err := OpenCacheFile(path)
		if err != nil {
			if errors.Is(err, ErrCacheLocked) {
				t.Fatal("fresh file reported as locked")
			}
			return // rejected foreign/corrupt input: fine
		}
		loaded := cf.Loaded()
		if err := cf.Append(0xfeedface, testEntry(-9, 0x1, 0x2)); err != nil {
			t.Fatalf("append to accepted file: %v", err)
		}
		if err := cf.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		cf2, err := OpenCacheFile(path)
		if err != nil {
			t.Fatalf("reopen of accepted file: %v", err)
		}
		defer cf2.Close()
		if cf2.Loaded() < loaded {
			t.Fatalf("reopen lost entries: %d -> %d", loaded, cf2.Loaded())
		}
		if got, ok := cf2.entries[0xfeedface]; !ok || got.obj != -9 {
			t.Fatalf("appended entry lost or wrong after reopen: %+v ok=%v", got, ok)
		}
	})
}
