package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpusecmem/internal/atomicfile"
	"gpusecmem/internal/sim"
)

// machineState is a payload Latest accepts: this build's state header,
// then body.
func machineState(body string) []byte { return append(sim.StateHeader(), body...) }

// path is the file holding key's checkpoint at cycle.
func (s *Store) path(key string, cycle uint64) string { return s.store.Path(key, tag(cycle)) }

func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutLatestRoundTrip(t *testing.T) {
	s := open(t)
	const key = "cfg|nw"
	state := machineState("machine state at 2000")
	s.Put(key, 2000, state)
	cycle, got, ok := s.Latest(key, 6000)
	if !ok || cycle != 2000 || !bytes.Equal(got, state) {
		t.Fatalf("Latest = (%d, %q, %v), want (2000, %q, true)", cycle, got, ok, state)
	}
	st := s.Stats()
	if st.Puts != 1 || st.Hits != 1 || st.Misses != 0 || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// A newer Put prunes the older checkpoints of the same key: the newest
// serves every horizon the stale ones could, with less remaining work.
func TestPutPrunesOlderCycles(t *testing.T) {
	s := open(t)
	const key = "cfg|nw"
	s.Put(key, 1000, machineState("old"))
	s.Put(key, 3000, machineState("new"))
	if n := s.Len(); n != 1 {
		t.Fatalf("Len = %d after prune, want 1", n)
	}
	if cycle, _, ok := s.Latest(key, 6000); !ok || cycle != 3000 {
		t.Fatalf("Latest = (%d, ok=%v), want 3000", cycle, ok)
	}
	// The pruned 1000-cycle checkpoint is gone, so a shorter horizon
	// has nothing to resume from.
	if _, _, ok := s.Latest(key, 2000); ok {
		t.Fatal("Latest served a pruned checkpoint")
	}
}

// Latest must never return a checkpoint past the requested horizon —
// resuming from beyond MaxCycles would skip the cycles the caller
// asked to simulate.
func TestLatestRespectsMaxCycle(t *testing.T) {
	s := open(t)
	const key = "cfg|nw"
	s.Put(key, 3000, machineState("state"))
	if _, _, ok := s.Latest(key, 2999); ok {
		t.Fatal("Latest returned a checkpoint past maxCycle")
	}
	if cycle, _, ok := s.Latest(key, 3000); !ok || cycle != 3000 {
		t.Fatalf("Latest at exact horizon = (%d, ok=%v), want 3000", cycle, ok)
	}
}

func TestKeysDoNotCollide(t *testing.T) {
	s := open(t)
	s.Put("key-a", 1000, machineState("state-a"))
	s.Put("key-b", 1000, machineState("state-b"))
	if _, got, ok := s.Latest("key-a", 5000); !ok || !bytes.Equal(got, machineState("state-a")) {
		t.Fatalf("key-a = (%q, %v)", got, ok)
	}
	if _, got, ok := s.Latest("key-b", 5000); !ok || !bytes.Equal(got, machineState("state-b")) {
		t.Fatalf("key-b = (%q, %v)", got, ok)
	}
}

// An entry written by an older store version — the gob
// schema/key/cycle/sum/state struct of schema 1 — reads as a miss and
// self-heals, so an upgrade never resumes from state it cannot parse.
func TestSchemaMismatchIsMiss(t *testing.T) {
	s := open(t)
	const key = "cfg|nw"
	state := []byte("x")
	path := s.path(key, 1000)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	err := atomicfile.WriteFile(path, func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(struct {
			Schema string
			Key    string
			Cycle  uint64
			Sum    [sha256.Size]byte
			State  []byte
		}{"gpusecmem-checkpoint/1", key, 1000, sha256.Sum256(state), state})
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Latest(key, 5000); ok {
		t.Fatal("served an entry with a foreign schema")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("mismatched entry not removed (stat err %v)", err)
	}
}

// A validly enveloped state of another wire format — another
// StateVersion, or no machine state at all — reads as a miss, is
// removed and counted, so a caller never reports a resume that Restore
// would refuse.
func TestStaleStateVersionIsMiss(t *testing.T) {
	const key = "cfg|nw"
	stale := machineState("body")
	stale[len(stale)-len("body")-1]++ // the version byte
	for name, payload := range map[string][]byte{
		"other-version": stale,
		"not-a-state":   []byte("machine state at 2000"),
	} {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			s.Put(key, 1000, payload)
			if _, _, ok := s.Latest(key, 5000); ok {
				t.Fatal("served a state of another wire format")
			}
			if _, err := os.Stat(s.path(key, 1000)); !os.IsNotExist(err) {
				t.Fatalf("stale entry not removed (stat err %v)", err)
			}
			if st := s.Stats(); st.Errors != 1 || st.Misses != 1 || st.Hits != 0 {
				t.Fatalf("stats = %+v, want 1 error + 1 miss", st)
			}
		})
	}
}

// The torn-write table: a checkpoint file truncated or bit-flipped at
// arbitrary byte offsets — the artifacts of crashes and bit rot — must
// read as a clean miss, be removed, and bump the error counter, for
// every variant. The sha256 in the envelope catches flips the gob
// framing would survive.
func TestTornWritesSelfHeal(t *testing.T) {
	const key = "cfg|nw"
	state := machineState(strings.Repeat("machine state payload ", 64))

	type corruption struct {
		name string
		mut  func([]byte) []byte
	}
	var cases []corruption
	for _, frac := range []struct {
		name string
		at   func(n int) int
	}{
		{"start", func(n int) int { return 1 }},
		{"quarter", func(n int) int { return n / 4 }},
		{"half", func(n int) int { return n / 2 }},
		{"almost-all", func(n int) int { return n - 1 }},
	} {
		frac := frac
		cases = append(cases,
			corruption{"truncate-" + frac.name, func(b []byte) []byte {
				return b[:frac.at(len(b))]
			}},
			corruption{"bitflip-" + frac.name, func(b []byte) []byte {
				out := append([]byte(nil), b...)
				out[frac.at(len(out))] ^= 0x40
				return out
			}},
		)
	}
	cases = append(cases, corruption{"empty", func([]byte) []byte { return nil }})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := open(t)
			s.Put(key, 1000, state)
			path := s.path(key, 1000)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mut(b), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := s.Latest(key, 5000); ok {
				t.Fatal("served a corrupt checkpoint")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt checkpoint not removed (stat err %v)", err)
			}
			st := s.Stats()
			if st.Errors != 1 || st.Misses != 1 {
				t.Fatalf("stats = %+v, want 1 error + 1 miss", st)
			}
			// A re-Put repairs the slot.
			s.Put(key, 1000, state)
			if _, got, ok := s.Latest(key, 5000); !ok || !bytes.Equal(got, state) {
				t.Fatal("miss after repair Put")
			}
		})
	}
}

// When the newest checkpoint is corrupt, Latest falls back to the
// next-newest valid one instead of reporting a blanket miss.
func TestLatestFallsBackPastCorruption(t *testing.T) {
	s := open(t)
	const key = "cfg|nw"
	s.Put(key, 1000, machineState("older"))
	// Plant a corrupt newer checkpoint beside the older one: the older
	// entry's bytes under the 2000-cycle name, invalid on read because
	// the envelope binds the cycle.
	b, err := os.ReadFile(s.path(key, 1000))
	if err != nil {
		t.Fatal(err)
	}
	path := s.path(key, 2000)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	cycle, got, ok := s.Latest(key, 5000)
	if !ok || cycle != 1000 || !bytes.Equal(got, machineState("older")) {
		t.Fatalf("Latest = (%d, %q, %v), want fallback to (1000, older)", cycle, got, ok)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt newest checkpoint not removed during fallback")
	}
}

func TestZeroAndEmptyPutsIgnored(t *testing.T) {
	s := open(t)
	s.Put("k", 0, machineState("state"))
	s.Put("k", 100, nil)
	if n := s.Len(); n != 0 {
		t.Fatalf("Len = %d after degenerate Puts, want 0", n)
	}
	if st := s.Stats(); st.Puts != 0 {
		t.Fatalf("stats = %+v", st)
	}
}
