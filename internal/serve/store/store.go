// Package store is the disk tier of the serving cache: a
// content-addressed blob store that survives daemon restarts, so a
// rebooted transchedd keeps the hit rate its memory LRU spent hours
// earning (SERVING.md). The layout is the classic triangle —
//
//	<dir>/<digest>.blob   one marshalled response body per content address
//	<dir>/index           one line per blob: "v2 <digest> <size> <fnv64a(body)>"
//
// The line tag names the digest layout the keys were computed under
// (serve's digestTag). Lines of any other tag are foreign: an index
// written under an older layout loads empty and its blobs are swept,
// so a key of one layout can never serve a response cached under
// another.
//
// The index is append-only while the store is open and compacted on
// every Open. Every failure mode degrades to a cache miss, never a
// crash: malformed index lines are skipped, entries whose blob is
// missing or mis-sized are dropped at load, and a blob whose content no
// longer matches its recorded checksum is deleted on first read and
// reported as a miss, so the caller simply recomputes.
package store

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

const (
	// indexTag opens every index line; see the package comment.
	indexTag   = "v2"
	indexName  = "index"
	blobSuffix = ".blob"
	tmpPrefix  = "tmp-"
)

// entry is the index's record of one blob.
type entry struct {
	size int64
	sum  uint64 // FNV-64a of the blob body, the corruption detector
}

// Store is a content-addressed blob store rooted at one directory.
// All methods are safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	dir     string
	idx     *os.File // append handle for new index lines
	entries map[string]entry
	bytes   int64
}

// Open loads (or creates) the store at dir: the index is read with
// malformed lines skipped, entries are verified against the blobs on
// disk, orphaned temp and blob files are removed, and the surviving
// index is compacted before the append handle opens.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{dir: dir, entries: make(map[string]entry)}
	if err := s.load(); err != nil {
		return nil, err
	}
	if err := s.compact(); err != nil {
		return nil, err
	}
	idx, err := os.OpenFile(filepath.Join(dir, indexName), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening index: %w", err)
	}
	s.idx = idx
	return s, nil
}

// load reads the index (last line per key wins, junk skipped) and keeps
// only entries whose blob exists with the recorded size; content
// checksums are verified lazily, on Get, so boot stays O(entries) in
// stat calls rather than O(bytes) in reads.
func (s *Store) load() error {
	f, err := os.Open(filepath.Join(s.dir, indexName))
	if err != nil {
		if os.IsNotExist(err) {
			return s.sweepStray()
		}
		return fmt.Errorf("store: opening index: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 4 || fields[0] != indexTag || !validKey(fields[1]) {
			continue // corrupt or foreign line: tolerate, skip
		}
		size, err1 := strconv.ParseInt(fields[2], 10, 64)
		sum, err2 := strconv.ParseUint(fields[3], 16, 64)
		if err1 != nil || err2 != nil || size < 0 {
			continue
		}
		s.entries[fields[1]] = entry{size: size, sum: sum}
	}
	// A torn final line surfaces as a scanner error or just a skipped
	// line above; either way the remaining entries are intact.
	for key, e := range s.entries {
		fi, err := os.Stat(s.blobPath(key))
		if err != nil || fi.Size() != e.size {
			delete(s.entries, key)
			continue
		}
		s.bytes += e.size
	}
	return s.sweepStray()
}

// sweepStray removes temp files from interrupted writes and blobs the
// index does not vouch for (e.g. a crash between blob rename and index
// append) — without an expected checksum they cannot be verified, so
// they cannot be served.
func (s *Store) sweepStray() error {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: scanning %s: %w", s.dir, err)
	}
	for _, de := range names {
		name := de.Name()
		if name == indexName || de.IsDir() {
			continue
		}
		key := strings.TrimSuffix(name, blobSuffix)
		if strings.HasPrefix(name, tmpPrefix) || !strings.HasSuffix(name, blobSuffix) || !validKey(key) {
			os.Remove(filepath.Join(s.dir, name))
			continue
		}
		if _, ok := s.entries[key]; !ok {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
	return nil
}

// compact rewrites the index to exactly the surviving entries, sorted,
// via temp-file-plus-rename, so the file does not accumulate dead and
// duplicate lines across restarts.
func (s *Store) compact() error {
	keys := make([]string, 0, len(s.entries))
	for key := range s.entries {
		//transched:allow-maporder collected then sorted immediately below
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, key := range keys {
		e := s.entries[key]
		fmt.Fprintf(&sb, "%s %s %d %016x\n", indexTag, key, e.size, e.sum)
	}
	tmp, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: compacting index: %w", err)
	}
	if _, err := tmp.WriteString(sb.String()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: compacting index: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: compacting index: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, indexName)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: compacting index: %w", err)
	}
	return nil
}

// Get returns the stored body for key. A blob that has vanished or no
// longer matches its recorded size or checksum is dropped (and deleted)
// and reported as a miss — corruption costs one recompute, never a
// crash or a wrong answer.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	e, ok := s.entries[key]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	body, err := os.ReadFile(s.blobPath(key))
	if err != nil || int64(len(body)) != e.size || fnvSum(body) != e.sum {
		s.drop(key)
		return nil, false
	}
	return body, true
}

// Put stores body under key (a write-through from a computed solve).
// Content addressing makes re-puts of an existing key no-ops: same key,
// same bytes. The blob lands via temp-file-plus-rename before its index
// line is appended, so a crash at any point leaves either a complete
// entry or a stray file the next Open sweeps.
func (s *Store) Put(key string, body []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[key]; ok {
		return nil
	}
	tmp, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: writing blob: %w", err)
	}
	if _, err := tmp.Write(body); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing blob: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing blob: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.blobPath(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing blob: %w", err)
	}
	if _, err := fmt.Fprintf(s.idx, "%s %s %d %016x\n", indexTag, key, len(body), fnvSum(body)); err != nil {
		// The blob is on disk but unindexed; the next Open sweeps it.
		// Callers treat a Put error as "not persisted", which is true.
		os.Remove(s.blobPath(key))
		return fmt.Errorf("store: appending index: %w", err)
	}
	s.entries[key] = entry{size: int64(len(body)), sum: fnvSum(body)}
	s.bytes += int64(len(body))
	return nil
}

// drop forgets key and removes its blob (used when Get detects rot).
// The stale index line is superseded on the next Open's verification
// pass, which drops entries whose blob is gone.
func (s *Store) drop(key string) {
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		delete(s.entries, key)
		s.bytes -= e.size
	}
	s.mu.Unlock()
	os.Remove(s.blobPath(key))
}

// Len returns the number of stored blobs.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Bytes returns the total stored body bytes.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close releases the index append handle. The store must not be used
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.idx == nil {
		return nil
	}
	err := s.idx.Close()
	s.idx = nil
	return err
}

func (s *Store) blobPath(key string) string {
	return filepath.Join(s.dir, key+blobSuffix)
}

// validKey accepts only lowercase-hex digests (the serve codec's
// FNV-64a content addresses), which keeps blob filenames flat and free
// of path metacharacters regardless of what a caller passes.
func validKey(key string) bool {
	if len(key) == 0 || len(key) > 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// fnvSum is the body checksum: FNV-64a, the same hash family as the
// request digest, over the response bytes.
func fnvSum(body []byte) uint64 {
	h := fnv.New64a()
	h.Write(body)
	return h.Sum64()
}
