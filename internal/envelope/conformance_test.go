package envelope_test

// One conformance table for both stores built on the envelope: every
// behaviour here is checked through each store's public API, so the
// stores cannot drift apart on what a valid entry is.

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"gpusecmem/internal/checkpoint"
	"gpusecmem/internal/resultcache"
	"gpusecmem/internal/sim"
)

// counts mirrors the stores' Stats.
type counts struct{ hits, misses, puts, errors uint64 }

// subject is one store under test, reduced to the operations the
// table needs. get returns the canonical form of what a lookup
// served, so a wrong value is caught, not just a wrong hit.
type subject struct {
	dir   string
	put   func(key string)
	get   func(key string) ([]byte, bool)
	stats func() counts
	len   func() int
	want  []byte // what get must return for a stored key
}

func resultStore(t *testing.T) subject {
	cfg := sim.SecureMem()
	cfg.MaxCycles = 1000
	res, err := sim.Run(cfg, "nw")
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	c, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return subject{
		dir: c.Dir(),
		put: func(key string) { c.Put(key, res) },
		get: func(key string) ([]byte, bool) {
			got, ok := c.Get(key)
			if !ok {
				return nil, false
			}
			b, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			return b, true
		},
		stats: func() counts {
			st := c.Stats()
			return counts{st.Hits, st.Misses, st.Puts, st.Errors}
		},
		len:  c.Len,
		want: want,
	}
}

func checkpointStore(t *testing.T) subject {
	state := bytes.Repeat([]byte("machine state payload "), 64)
	s, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return subject{
		dir: s.Dir(),
		put: func(key string) { s.Put(key, 1000, state) },
		get: func(key string) ([]byte, bool) {
			cycle, got, ok := s.Latest(key, 5000)
			return append([]byte(strconv.FormatUint(cycle, 10)+":"), got...), ok
		},
		stats: func() counts {
			st := s.Stats()
			return counts{st.Hits, st.Misses, st.Puts, st.Errors}
		},
		len:  s.Len,
		want: append([]byte("1000:"), state...),
	}
}

// entries lists the store's entry files (not atomicfile temporaries).
func entries(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && !strings.HasPrefix(d.Name(), ".") {
			out = append(out, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// stored puts key into a fresh store and returns its one entry file
// and bytes.
func stored(t *testing.T, s subject, key string) (string, []byte) {
	t.Helper()
	s.put(key)
	files := entries(t, s.dir)
	if len(files) != 1 {
		t.Fatalf("store holds %d files after one put, want 1", len(files))
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	return files[0], raw
}

// mustReject plants bad at path and checks that a lookup misses, the
// file is removed, and exactly one error and one miss are counted.
func mustReject(t *testing.T, s subject, key, path string, bad []byte, what string) {
	t.Helper()
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	before := s.stats()
	if got, ok := s.get(key); ok {
		if !bytes.Equal(got, s.want) {
			t.Fatalf("%s: served a wrong value", what)
		}
		t.Fatalf("%s: served an invalid entry", what)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("%s: invalid entry not removed (stat err %v)", what, err)
	}
	after := s.stats()
	if after.errors != before.errors+1 || after.misses != before.misses+1 {
		t.Fatalf("%s: stats %+v -> %+v, want one more error and miss", what, before, after)
	}
}

func TestStoreConformance(t *testing.T) {
	const key = "cfg-json|nw"
	for _, st := range []struct {
		name string
		open func(*testing.T) subject
	}{
		{"resultcache", resultStore},
		{"checkpoint", checkpointStore},
	} {
		t.Run(st.name+"/round-trip", func(t *testing.T) {
			s := st.open(t)
			s.put(key)
			got, ok := s.get(key)
			if !ok || !bytes.Equal(got, s.want) {
				t.Fatal("get after put did not return the stored value")
			}
			if _, ok := s.get("never stored"); ok {
				t.Fatal("hit on an unknown key")
			}
			if c := s.stats(); c != (counts{hits: 1, misses: 1, puts: 1}) {
				t.Fatalf("stats = %+v", c)
			}
		})

		// A torn write — the file cut at every prefix length, the empty
		// file included — reads as a miss and self-heals; a re-put
		// repairs the slot.
		t.Run(st.name+"/torn-write", func(t *testing.T) {
			s := st.open(t)
			path, raw := stored(t, s, key)
			for n := 0; n < len(raw); n++ {
				mustReject(t, s, key, path, raw[:n], "prefix "+strconv.Itoa(n))
			}
			s.put(key)
			if got, ok := s.get(key); !ok || !bytes.Equal(got, s.want) {
				t.Fatal("miss after repair put")
			}
		})

		// No single-bit flip anywhere in an entry — header, checksum or
		// payload — is ever served: each reads as a miss and self-heals.
		t.Run(st.name+"/bit-flip", func(t *testing.T) {
			s := st.open(t)
			path, raw := stored(t, s, key)
			for i := range raw {
				bad := slices.Clone(raw)
				bad[i] ^= 0x01
				mustReject(t, s, key, path, bad, "flip at byte "+strconv.Itoa(i))
			}
		})

		// An entry grafted under another key's file name (digest
		// collision, hand-copied file) carries its true key and is never
		// served.
		t.Run(st.name+"/foreign-key", func(t *testing.T) {
			s := st.open(t)
			pathA, rawA := stored(t, s, "key-a")
			s.put("key-b")
			files := entries(t, s.dir)
			i := slices.IndexFunc(files, func(p string) bool { return p != pathA })
			if len(files) != 2 || i < 0 {
				t.Fatalf("store holds %v after two puts", files)
			}
			mustReject(t, s, "key-b", files[i], rawA, "foreign entry")
		})

		// An entry of another schema (an older store version) reads as
		// a miss and self-heals.
		t.Run(st.name+"/schema-mismatch", func(t *testing.T) {
			s := st.open(t)
			path, raw := stored(t, s, key)
			nl := bytes.IndexByte(raw, '\n')
			if nl < 0 {
				t.Fatal("entry has no schema line")
			}
			bad := append([]byte("gpusecmem-foreign/1"), raw[nl:]...)
			mustReject(t, s, key, path, bad, "foreign schema")
		})

		t.Run(st.name+"/len", func(t *testing.T) {
			s := st.open(t)
			for _, k := range []string{"a", "b", "a"} { // overwrite, not a new entry
				s.put(k)
			}
			if n := s.len(); n != 2 {
				t.Fatalf("Len = %d, want 2", n)
			}
		})
	}
}
