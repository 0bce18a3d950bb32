// Package checkpoint is the content-addressed on-disk checkpoint
// store behind crash-safe long-horizon runs and incremental horizon
// extension (DESIGN.md §14). It keeps one internal/envelope entry per
// (checkpoint key, snapshot cycle) holding the opaque sim.EncodeState
// bytes; the key is the canonical RunKey with MaxCycles zeroed, so runs
// of one machine at different horizons share a lineage. Any invalid
// file — torn, corrupt, foreign, or of another schema or cycle — is
// removed and counted, so a bad checkpoint self-heals as "start from
// cycle 0", never as wrong state.
//
// Concurrency and aliasing contract: a Store is safe for concurrent
// use by any number of goroutines and processes sharing one directory.
// The state bytes Latest returns are a fresh read owned by the caller;
// the bytes passed to Put are only read, during the call.
package checkpoint

import (
	"sort"
	"strconv"
	"strings"

	"gpusecmem/internal/envelope"
)

// Schema versions the on-disk envelope; bump it when the envelope
// changes (the machine-state payload carries its own sim.StateVersion
// inside the opaque bytes). Schema 2 moved to the internal/envelope
// framing.
const Schema = "gpusecmem-checkpoint/2"

// Store is a persistent checkpoint store rooted at one directory.
type Store struct {
	store *envelope.Store
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	s, err := envelope.Open(dir, Schema, ".ckpt")
	if err != nil {
		return nil, err
	}
	return &Store{store: s}, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.store.Dir() }

// tag names a snapshot cycle's entry; it is part of the file name, so
// Latest orders candidates without opening them.
func tag(cycle uint64) string { return "-" + strconv.FormatUint(cycle, 10) }

// cycles lists key's checkpoint cycles on disk, newest first, ignoring
// tags that are not this store's.
func (s *Store) cycles(key string) []uint64 {
	var out []uint64
	for _, t := range s.store.Tags(key) {
		if c, err := strconv.ParseUint(strings.TrimPrefix(t, "-"), 10, 64); err == nil && c != 0 && tag(c) == t {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}

// Put stores the state snapshot taken at the given cycle, atomically,
// and prunes older checkpoints of the same key (the newest serves any
// horizon a stale one could, with less remaining work). Best-effort: a
// failed write is counted and swallowed — checkpointing must never
// fail the run it protects.
func (s *Store) Put(key string, cycle uint64, state []byte) error {
	if len(state) == 0 || cycle == 0 || s.store.Put(key, tag(cycle), state) != nil {
		return nil
	}
	for _, c := range s.cycles(key) {
		if c < cycle {
			s.store.Remove(key, tag(c))
		}
	}
	return nil
}

// Latest returns the newest valid checkpoint for key with cycle <=
// maxCycle, or ok=false, removing invalid candidates on the way.
func (s *Store) Latest(key string, maxCycle uint64) (cycle uint64, state []byte, ok bool) {
	var tags []string
	for _, c := range s.cycles(key) {
		if c <= maxCycle {
			tags = append(tags, tag(c))
		}
	}
	ok = s.store.Get(key, tags, func(t string, _, payload []byte) error {
		cycle, _ = strconv.ParseUint(t[1:], 10, 64)
		state = payload
		return nil
	})
	return cycle, state, ok
}

// Stats snapshots the counters.
func (s *Store) Stats() envelope.Stats { return s.store.Stats() }

// Len walks the store and counts checkpoints (diagnostics only).
func (s *Store) Len() int { return s.store.Len() }
