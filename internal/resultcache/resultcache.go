// Package resultcache is the content-addressed on-disk result store
// layered under the in-memory singleflight memo (it implements
// gpusecmem.ResultCache). Entries are keyed by the canonical RunKey, so
// any configuration change addresses a different entry, and repeated
// requests across process restarts are served from disk
// bit-identically. Each is an internal/envelope entry holding a
// gob-encoded sim.Result. The store is local to one node: cluster
// members never exchange entries (DESIGN.md §16). GetRaw/PutRaw, the
// raw-envelope face, are kept only for the benchmark suite's traced
// store (benchsuite/trace.go). Only successful runs are stored —
// errors stay in the memo where retry policy lives — and the retained
// trace spans of a probed run are not persisted; everything an
// experiment table or the JSON wire form renders survives the round
// trip.
//
// Concurrency and aliasing contract: a Cache is safe for concurrent
// use by any number of goroutines *and processes* sharing one
// directory. The *sim.Result a Get returns and the bytes GetRaw
// returns are fresh and owned by the caller; the Result passed to Put
// and the bytes passed to PutRaw are only read, during the call.
package resultcache

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"gpusecmem/internal/envelope"
	"gpusecmem/internal/sim"
)

// Schema versions the entry format; bump it when the encoding changes
// and old entries become unreadable (they then read as misses and are
// replaced on the next Put). Schema 3 moved to the checksummed
// internal/envelope framing.
const Schema = "gpusecmem-resultcache/3"

// untagged is the one tag a result entry is stored under.
var untagged = []string{""}

func decode(payload []byte) (*sim.Result, error) {
	var res sim.Result
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&res); err != nil {
		return nil, fmt.Errorf("resultcache: decode: %w", err)
	}
	return &res, nil
}

// encodeEnvelope renders the on-disk form of one entry: what Put
// writes and GetRaw returns.
func encodeEnvelope(key string, res *sim.Result) ([]byte, error) {
	if res == nil {
		return nil, fmt.Errorf("resultcache: nil result")
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res); err != nil {
		return nil, fmt.Errorf("resultcache: encode: %w", err)
	}
	return envelope.Encode(Schema, key, buf.Bytes()), nil
}

// Cache is a persistent result store rooted at one directory.
type Cache struct {
	store *envelope.Store
}

// Open creates (if needed) and returns the cache rooted at dir.
func Open(dir string) (*Cache, error) {
	s, err := envelope.Open(dir, Schema, ".gob")
	if err != nil {
		return nil, err
	}
	return &Cache{store: s}, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.store.Dir() }

// Get returns the stored result for key, or (nil, false). An invalid
// entry is removed and reported as a miss.
func (c *Cache) Get(key string) (res *sim.Result, ok bool) {
	ok = c.store.Get(key, untagged, func(_ string, _, payload []byte) (err error) {
		res, err = decode(payload)
		return err
	})
	return res, ok
}

// GetRaw returns the exact on-disk entry for key, validated like Get
// but not decoded.
func (c *Cache) GetRaw(key string) (raw []byte, ok bool) {
	ok = c.store.Get(key, untagged, func(_ string, r, _ []byte) error {
		raw = r
		return nil
	})
	return raw, ok
}

// Put stores res under key, atomically. Best-effort: a failed write
// is counted and swallowed — the cache must never fail the run that
// produced the result.
func (c *Cache) Put(key string, res *sim.Result) {
	// A gob encode failure would be a sim.Result shape the round-trip
	// test rejects; a nil result has nothing to store.
	if raw, err := encodeEnvelope(key, res); err == nil {
		c.store.PutRaw(key, "", raw, nil)
	}
}

// PutRaw stores an already-encoded entry under key, verbatim. Unlike
// Put it validates first, down to decoding the result, and reports
// the error.
func (c *Cache) PutRaw(key string, raw []byte) error {
	return c.store.PutRaw(key, "", raw, func(payload []byte) error {
		_, err := decode(payload)
		return err
	})
}

// Stats snapshots the counters.
func (c *Cache) Stats() envelope.Stats { return c.store.Stats() }

// Len walks the cache and counts stored entries (diagnostics only).
func (c *Cache) Len() int { return c.store.Len() }
