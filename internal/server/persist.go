package server

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Cache persistence: the result/basis LRU's warm-start state survives
// daemon restarts. Only (fingerprint, family, bound values, lp.Basis) tuples
// are written — bases round-trip through their versioned binary form
// (lp.Basis MarshalBinary/UnmarshalBinary) and are safe to rehydrate by
// construction: the solver refactorizes any warm basis against the actual
// problem data and falls back to a cold solve when it does not carry over.
// Cached Results are not persisted; an exact hit is only ever served from an
// entry solved by this process. The file is JSON with a version guard, so a
// format change refuses to load rather than misinterpret.

// cacheFileVersion guards the on-disk format and the family-key derivation
// (queryKey) the entries are filed under: version 1 keys carried solver
// strategy fields that no longer exist, so no version 1 entry could ever
// match a query again.
const cacheFileVersion = 2

// persistedEntry is the disk form of one warm-start cache entry.
type persistedEntry struct {
	Key    string    `json:"key"`
	Family string    `json:"family"`
	Bounds []float64 `json:"bounds,omitempty"`
	// Basis is the lp.Basis binary form ("LPB1", itself versioned);
	// encoding/json base64s it.
	Basis []byte `json:"basis"`
}

// cacheFile is the persisted document.
type cacheFile struct {
	Version int              `json:"version"`
	Entries []persistedEntry `json:"entries"`
}

// SaveCache writes the cache's warm-start entries to w and returns how many
// were written.
func (s *Server) SaveCache(w io.Writer) (int, error) {
	doc := cacheFile{Version: cacheFileVersion, Entries: s.cache.export()}
	enc := json.NewEncoder(w)
	if err := enc.Encode(&doc); err != nil {
		return 0, err
	}
	return len(doc.Entries), nil
}

// LoadCache reads a document written by SaveCache and restores its entries,
// returning how many were accepted. A version mismatch is an error: the
// caller should discard the file (the cache is only ever an accelerator).
func (s *Server) LoadCache(r io.Reader) (int, error) {
	var doc cacheFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return 0, fmt.Errorf("decoding cache file: %w", err)
	}
	if doc.Version != cacheFileVersion {
		return 0, fmt.Errorf("cache file version %d, want %d", doc.Version, cacheFileVersion)
	}
	return s.cache.restore(doc.Entries), nil
}

// SaveCacheFile atomically writes the cache to path (temp file + rename).
func (s *Server) SaveCacheFile(path string) (int, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	n, err := s.SaveCache(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	return n, os.Rename(tmp.Name(), path)
}

// LoadCacheFile restores the cache from path. A missing file is not an
// error — it reports (0, nil), the natural first-boot case.
func (s *Server) LoadCacheFile(path string) (int, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return s.LoadCache(f)
}
