package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStoreRoundtrip(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	body := []byte(`{"answer": 42}`)
	if err := s.Put("deadbeef", body); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("deadbeef")
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if s.Len() != 1 || s.Bytes() != int64(len(body)) {
		t.Errorf("Len=%d Bytes=%d, want 1/%d", s.Len(), s.Bytes(), len(body))
	}
	if _, ok := s.Get("cafef00d"); ok {
		t.Error("Get of absent key reported a hit")
	}
	// Content addressing: a re-put of the same key is a no-op.
	if err := s.Put("deadbeef", body); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("re-put duplicated the entry: Len=%d", s.Len())
	}
}

// TestStoreSurvivesReopen is the warm-restart contract: everything put
// before Close is served after a fresh Open of the same directory.
func TestStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, dir)
	bodies := map[string][]byte{}
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("%016x", uint64(i)+1)
		body := bytes.Repeat([]byte{byte(i)}, i+1)
		bodies[key] = body
		if err := s1.Put(key, body); err != nil {
			t.Fatal(err)
		}
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	if s2.Len() != len(bodies) {
		t.Fatalf("reopened Len = %d, want %d", s2.Len(), len(bodies))
	}
	for key, want := range bodies {
		got, ok := s2.Get(key)
		if !ok || !bytes.Equal(got, want) {
			t.Errorf("key %s after reopen: %q, %v", key, got, ok)
		}
	}
}

// TestStoreCorruptBlobIsAMiss: flipping bytes inside a blob turns the
// next Get into a miss (the checksum catches it), the rotten blob is
// deleted, and the store never serves the wrong bytes or crashes.
func TestStoreCorruptBlobIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Put("deadbeef", []byte("pristine response body")); err != nil {
		t.Fatal(err)
	}
	// Same length, different content — only the checksum can tell.
	if err := os.WriteFile(filepath.Join(dir, "deadbeef.blob"), []byte("corrupted response bod!"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Still a miss even though the index vouches for the key.
	if got, ok := s.Get("deadbeef"); ok {
		t.Fatalf("corrupt blob served as a hit: %q", got)
	}
	if s.Len() != 0 {
		t.Errorf("corrupt entry not dropped: Len=%d", s.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, "deadbeef.blob")); !os.IsNotExist(err) {
		t.Errorf("corrupt blob not deleted: %v", err)
	}
	// The key is re-puttable after the drop.
	if err := s.Put("deadbeef", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("deadbeef"); !ok || string(got) != "fresh" {
		t.Errorf("after re-put: %q, %v", got, ok)
	}
}

// TestStoreTruncatedBlobDroppedAtLoad: a blob whose size stopped
// matching the index (torn write, truncation) is discarded during Open.
func TestStoreTruncatedBlobDroppedAtLoad(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Put("aa", []byte("full body")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("bb", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.WriteFile(filepath.Join(dir, "aa.blob"), []byte("ful"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	if _, ok := s2.Get("aa"); ok {
		t.Error("truncated blob survived reopen")
	}
	if got, ok := s2.Get("bb"); !ok || string(got) != "kept" {
		t.Errorf("healthy sibling lost: %q, %v", got, ok)
	}
	if s2.Len() != 1 {
		t.Errorf("Len after reopen = %d, want 1", s2.Len())
	}
}

// TestStoreMalformedIndexTolerated: garbage lines in the index are
// skipped; intact entries around them keep working; the compaction on
// Open rewrites the file clean.
func TestStoreMalformedIndexTolerated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Put("abcd", []byte("survivor")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	idx := filepath.Join(dir, "index")
	raw, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	junk := "not an index line\nv2\nv9 abcd 8 0\nv2 ZZZZ 8 0000000000000000\nv2 abcd notanumber 00\n"
	if err := os.WriteFile(idx, append([]byte(junk), raw...), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	if got, ok := s2.Get("abcd"); !ok || string(got) != "survivor" {
		t.Fatalf("entry lost to surrounding junk: %q, %v", got, ok)
	}
	if s2.Len() != 1 {
		t.Errorf("Len = %d, want 1", s2.Len())
	}
	// Compaction rewrote the index without the junk.
	clean, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(clean), "not an index line") {
		t.Error("compaction kept junk lines")
	}
}

// TestStoreSweepsStrayFiles: temp files from interrupted writes and
// blobs the index does not vouch for are removed on Open.
func TestStoreSweepsStrayFiles(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Put("abcd", []byte("indexed")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	for _, name := range []string{"tmp-12345", "orphan.blob", "UPPER.blob", "noise.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := mustOpen(t, dir)
	if s2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s2.Len())
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if de.Name() != "index" && de.Name() != "abcd.blob" {
			t.Errorf("stray file %s survived the sweep", de.Name())
		}
	}
}

// TestStoreDropsOldIndexVersion: a store written under the v1 digest
// layout opens empty, and its blobs are swept, so no key of the
// current layout can serve a response cached under the old one.
func TestStoreDropsOldIndexVersion(t *testing.T) {
	dir := t.TempDir()
	blobs := map[string]string{"abcd": "old body", "0123456789abcdef": "another"}
	var index strings.Builder
	for key, body := range blobs {
		if err := os.WriteFile(filepath.Join(dir, key+".blob"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&index, "v1 %s %d %016x\n", key, len(body), fnvSum([]byte(body)))
	}
	if err := os.WriteFile(filepath.Join(dir, "index"), []byte(index.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	s := mustOpen(t, dir)
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("v1 store opened with Len=%d Bytes=%d, want empty", s.Len(), s.Bytes())
	}
	for key := range blobs {
		if _, ok := s.Get(key); ok {
			t.Errorf("v1 blob %s served", key)
		}
		if _, err := os.Stat(filepath.Join(dir, key+".blob")); !os.IsNotExist(err) {
			t.Errorf("v1 blob %s not swept: %v", key, err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "index"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 0 {
		t.Errorf("compacted index still holds %q", raw)
	}

	// The store works on from empty, writing current-version lines.
	if err := s.Put("abcd", []byte("new body")); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(filepath.Join(dir, "index"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), indexTag+" abcd ") {
		t.Errorf("index line %q does not carry tag %s", raw, indexTag)
	}
}

func TestStoreRejectsInvalidKeys(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	for _, key := range []string{"", "UPPER", "has space", "../escape", "g", strings.Repeat("a", 65)} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", key)
		}
	}
	if s.Len() != 0 {
		t.Errorf("invalid keys stored: Len=%d", s.Len())
	}
}

// TestStoreConcurrentAccess exercises the lock under parallel puts and
// gets (mostly for the race detector).
func TestStoreConcurrentAccess(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	const n = 16
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("%08x", uint64(i)+1)
			if err := s.Put(key, []byte(key)); err != nil {
				errs[i] = err
				return
			}
			if got, ok := s.Get(key); !ok || string(got) != key {
				errs[i] = fmt.Errorf("get %s: %q, %v", key, got, ok)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if s.Len() != n {
		t.Errorf("Len = %d, want %d", s.Len(), n)
	}
}
