package cellcache

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMemoryTier exercises the dirless store: Put/Get round-trips, a
// missing key misses, and the counters record both.
func TestMemoryTier(t *testing.T) {
	s, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	s.Put("abc123", []byte("payload"))
	got, ok := s.Get("abc123")
	if !ok || !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("Get = %q, %v; want payload, true", got, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("missing key reported a hit")
	}
	st := s.Stats()
	if st.Puts != 1 || st.MemHits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v; want 1 put, 1 mem hit, 1 miss", st)
	}
}

// TestPutCopiesValue pins that the store keeps its own copy: mutating
// the caller's slice after Put must not corrupt the cached entry.
func TestPutCopiesValue(t *testing.T) {
	s, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	v := []byte("original")
	s.Put("k1", v)
	copy(v, "XXXXXXXX")
	got, ok := s.Get("k1")
	if !ok || string(got) != "original" {
		t.Fatalf("Get = %q, %v; caller mutation leaked into the store", got, ok)
	}
}

// TestDiskPersistence pins the point of the disk tier: an entry written
// by one Store is served by a fresh Store over the same directory, and
// the hit is counted against the disk tier.
func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1.Put("deadbeef", []byte("result bytes"))

	s2, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get("deadbeef")
	if !ok || !bytes.Equal(got, []byte("result bytes")) {
		t.Fatalf("Get across stores = %q, %v; want result bytes, true", got, ok)
	}
	st := s2.Stats()
	if st.DiskHits != 1 || st.MemHits != 0 {
		t.Fatalf("stats %+v; want the first read to hit disk", st)
	}
	// The disk read promotes into memory: a second Get stays off disk.
	if _, ok := s2.Get("deadbeef"); !ok {
		t.Fatal("promoted entry missed")
	}
	if st := s2.Stats(); st.MemHits != 1 {
		t.Fatalf("stats %+v; want the second read served from memory", st)
	}
}

// TestCorruptEntryIsMiss pins the failure contract: a torn or tampered
// file is a silent miss counted in Corrupt — never an error, never a
// wrong payload.
func TestCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1.Put("cafef00d", []byte("good"))

	cases := map[string][]byte{
		"flipped payload": []byte("aqua-cellcache-v1 sha256=0000000000000000000000000000000000000000000000000000000000000000\nevil"),
		"no header":       []byte("just bytes, no newline"),
		"wrong version":   append([]byte("aqua-cellcache-v0 sha256=deadbeef\n"), []byte("x")...),
		"truncated":       []byte("aqua-cellcache-v1 sha2"),
		"empty":           nil,
	}
	for name, raw := range cases {
		if err := os.WriteFile(filepath.Join(dir, "cafef00d"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := New(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := s2.Get("cafef00d"); ok {
			t.Fatalf("%s: Get = %q, true; want a miss", name, got)
		}
		st := s2.Stats()
		// An unreadable-as-entry file counts as corrupt except when the
		// read path never reaches decode (can't happen here: the file
		// exists), so every case lands in Corrupt+Misses.
		if st.Corrupt != 1 || st.Misses != 1 {
			t.Fatalf("%s: stats %+v; want 1 corrupt, 1 miss", name, st)
		}
	}
}

// TestNilStore pins the inert zero value: callers hold a possibly-nil
// *Store and must be able to use it without branches.
func TestNilStore(t *testing.T) {
	var s *Store
	s.Put("abc", []byte("x")) // must not panic
	if _, ok := s.Get("abc"); ok {
		t.Fatal("nil store reported a hit")
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil store stats %+v; want zero", st)
	}
}

// TestInvalidKeys pins the path-safety gate: keys that could escape the
// directory or collide with temp files are dropped on Put and miss on
// Get, without touching the filesystem.
func TestInvalidKeys(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	bad := []string{
		"",
		"../escape",
		"a/b",
		"a.b",
		"tmp key",
		strings.Repeat("a", 129),
	}
	for _, key := range bad {
		s.Put(key, []byte("x"))
		if _, ok := s.Get(key); ok {
			t.Fatalf("invalid key %q served a value", key)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("invalid keys created %d files in the cache dir", len(entries))
	}
	if st := s.Stats(); st.Puts != 0 {
		t.Fatalf("stats %+v; invalid puts were counted", st)
	}
}

// TestNoTempLeftovers pins the atomic-write discipline: after a batch of
// Puts the directory holds exactly the named entries, no tmp-* residue.
func TestNoTempLeftovers(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"k1", "k2", "k3"}
	for _, k := range keys {
		s.Put(k, []byte("v-"+k))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(keys) {
		t.Fatalf("dir holds %d files, want %d", len(entries), len(keys))
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

// TestOverwriteSameKey pins last-write-wins for a key: re-Put replaces
// both tiers.
func TestOverwriteSameKey(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k", []byte("one"))
	s.Put("k", []byte("two"))
	if got, _ := s.Get("k"); string(got) != "two" {
		t.Fatalf("memory tier = %q, want two", got)
	}
	s2, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := s2.Get("k"); string(got) != "two" {
		t.Fatalf("disk tier = %q, want two", got)
	}
}

// TestEncodeDecodeRoundTrip pins the framing against itself, including
// the empty payload.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0, 255, '\n'}, 1000)} {
		got, ok := decodeEntry(encodeEntry(payload))
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("round trip of %d bytes failed (ok=%v)", len(payload), ok)
		}
	}
}
