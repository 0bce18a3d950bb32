// Package envelope is the one on-disk and wire format behind the
// persistent stores (internal/resultcache, internal/checkpoint), which
// keep only their schema, key scheme and payload encoding. An entry is
//
//	<schema>\n<len(key)>\n<key><sha256(payload)><payload>
//
// so a foreign schema or key (a digest collision, a hand-copied
// file), a torn write, or a flipped bit anywhere in the file reads as
// invalid, never as a wrong value. The checksum is unkeyed: it catches
// accidents, not forgeries, so a Store must never install bytes from
// an untrusted writer. A Store keeps entries
// at <dir>/<d[:2]>/<d><tag><ext>, d being the hex sha256 of the key;
// the tag tells several entries of one key apart and is part of the
// embedded key, so a file renamed to another tag is invalid too.
// Writes go through internal/atomicfile; an invalid file found on read
// is removed, counted as an error, and reported as a miss (self-heal).
//
// Concurrency and aliasing contract: a Store is safe for concurrent
// use by any number of goroutines and processes sharing one directory
// — it holds no mutable in-memory state beyond atomic counters, reads
// only complete files, and writes rename complete files into place.
// The slices a Get callback receives alias one fresh read owned by the
// caller; the bytes passed to Put and PutRaw are only read, during the
// call.
package envelope

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"

	"gpusecmem/internal/atomicfile"
)

func header(schema, key string) []byte {
	return []byte(schema + "\n" + strconv.Itoa(len(key)) + "\n" + key)
}

// Encode frames payload as an entry of the given schema and key.
func Encode(schema, key string, payload []byte) []byte {
	h := header(schema, key)
	sum := sha256.Sum256(payload)
	raw := make([]byte, 0, len(h)+len(sum)+len(payload))
	return append(append(append(raw, h...), sum[:]...), payload...)
}

// Decode validates raw as an entry of the given schema and key and
// returns its payload, a suffix of raw.
func Decode(raw []byte, schema, key string) ([]byte, error) {
	h := header(schema, key)
	if !bytes.HasPrefix(raw, h) || len(raw) < len(h)+sha256.Size {
		return nil, errors.New("envelope: schema or key mismatch, or truncated")
	}
	payload := raw[len(h)+sha256.Size:]
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], raw[len(h):len(h)+sha256.Size]) {
		return nil, errors.New("envelope: payload checksum mismatch")
	}
	return payload, nil
}

// Stats counts store behaviour since Open. Errors counts invalid
// entries (removed on sight), rejected raw puts and failed writes: a
// store degrades to miss/no-op rather than failing the run it serves.
type Stats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Puts   uint64 `json:"puts"`
	Errors uint64 `json:"errors"`
}

// Store is a directory of entries of one schema.
type Store struct {
	dir, schema, ext string

	hits, misses, puts, errs atomic.Uint64
}

// Open creates (if needed) and returns the store rooted at dir, whose
// entries carry schema and whose files end in ext.
func Open(dir, schema, ext string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil { // an empty dir fails here too
		return nil, fmt.Errorf("%s: %w", schema, err)
	}
	return &Store{dir: dir, schema: schema, ext: ext}, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

func digest(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// Path returns the file holding key's entry with the given tag.
func (s *Store) Path(key, tag string) string {
	d := digest(key)
	return filepath.Join(s.dir, d[:2], d+tag+s.ext)
}

// Tags lists the tags of key's entries on disk.
func (s *Store) Tags(key string) []string {
	d := digest(key)
	entries, _ := os.ReadDir(filepath.Join(s.dir, d[:2]))
	var tags []string
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, d) && strings.HasSuffix(name, s.ext) {
			tags = append(tags, name[len(d):len(name)-len(s.ext)])
		}
	}
	return tags
}

// Get offers key's valid entries under tags, in order, to open until
// it accepts one, and reports whether one was. An invalid entry, or one
// open rejects, is removed and counted as an error. Each call counts
// one hit or one miss.
func (s *Store) Get(key string, tags []string, open func(tag string, raw, payload []byte) error) bool {
	for _, tag := range tags {
		path := s.Path(key, tag)
		raw, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		payload, err := Decode(raw, s.schema, key+tag)
		if err == nil {
			err = open(tag, raw, payload)
		}
		if err == nil {
			s.hits.Add(1)
			return true
		}
		os.Remove(path)
		s.errs.Add(1)
	}
	s.misses.Add(1)
	return false
}

// Put installs payload atomically as key's entry with the given tag.
func (s *Store) Put(key, tag string, payload []byte) error {
	return s.write(key, tag, Encode(s.schema, key+tag, payload))
}

// PutRaw installs an already-framed entry verbatim once it — and, if
// check is non-nil, its payload — validates, so bytes that came off a
// network are rejected rather than planted for a later Get to remove.
func (s *Store) PutRaw(key, tag string, raw []byte, check func(payload []byte) error) error {
	payload, err := Decode(raw, s.schema, key+tag)
	if err == nil && check != nil {
		err = check(payload)
	}
	if err != nil {
		s.errs.Add(1)
		return err
	}
	return s.write(key, tag, raw)
}

func (s *Store) write(key, tag string, raw []byte) error {
	path := s.Path(key, tag)
	err := os.MkdirAll(filepath.Dir(path), 0o755)
	if err == nil {
		err = atomicfile.WriteFile(path, func(w io.Writer) error {
			_, err := w.Write(raw)
			return err
		})
	}
	if err != nil {
		s.errs.Add(1)
		return err
	}
	s.puts.Add(1)
	return nil
}

// Remove deletes key's entry with the given tag, if present.
func (s *Store) Remove(key, tag string) { os.Remove(s.Path(key, tag)) }

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	return Stats{Hits: s.hits.Load(), Misses: s.misses.Load(), Puts: s.puts.Load(), Errors: s.errs.Load()}
}

// Len walks the store and counts entries (diagnostics only).
func (s *Store) Len() int {
	n := 0
	filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, s.ext) {
			n++
		}
		return nil
	})
	return n
}
