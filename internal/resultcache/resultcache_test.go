package resultcache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"gpusecmem"
	"gpusecmem/internal/envelope"
	"gpusecmem/internal/faults"
	"gpusecmem/internal/probe"
	"gpusecmem/internal/sim"
)

// path is the file holding key's entry.
func (c *Cache) path(key string) string { return c.store.Path(key, "") }

func simulate(t *testing.T, cycles uint64) *sim.Result {
	t.Helper()
	cfg := sim.SecureMem()
	cfg.MaxCycles = cycles
	res, err := sim.Run(cfg, "nw")
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The disk cache must alter no output bit: a round-tripped Result's
// canonical JSON (the golden-digest form) is byte-identical to the
// fresh simulation's.
func TestRoundTripByteIdentical(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := simulate(t, 2000)
	const key = "cfg-json|nw"
	c.Put(key, res)
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("Get missed after Put")
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	have, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(have) {
		t.Fatalf("round trip changed canonical JSON:\nwant %s\nhave %s", want, have)
	}
	st := c.Stats()
	if st.Puts != 1 || st.Hits != 1 || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// Every scheme's result, plain and with probes, reuse profiling and
// fault injection all on, survives Put and Get: the canonical JSON and
// the fault statistics are unchanged, and the decoded result encodes
// to the stored bytes.
func TestEveryResultRoundTrips(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range gpusecmem.SchemeNames() {
		for _, instrumented := range []bool{false, true} {
			cfg, err := gpusecmem.ConfigForScheme(scheme)
			if err != nil {
				t.Fatal(err)
			}
			cfg.MaxCycles = 1500
			if instrumented {
				cfg.Probe = &probe.Config{Spans: true, TimelineInterval: 250}
				cfg.ProfileReuse = true
				cfg.Faults = &faults.Plan{Seed: 7, Rate: 0.01, Sites: faults.FlipSites}
			}
			res, err := sim.Run(cfg, "fdtd2d")
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s|%v", scheme, instrumented)
			c.Put(key, res)
			got, ok := c.Get(key)
			if !ok {
				t.Fatalf("%s: Get missed after Put", key)
			}
			want, _ := json.Marshal(res)
			have, _ := json.Marshal(got)
			if !bytes.Equal(have, want) {
				t.Errorf("%s: round trip changed canonical JSON:\nwant %s\nhave %s", key, want, have)
			}
			if got.Faults != res.Faults {
				t.Errorf("%s: fault stats %+v, want %+v", key, got.Faults, res.Faults)
			}
			if instrumented && (got.Probe == nil || got.Probe.Spans == nil || len(got.Probe.Timeline) == 0) {
				t.Errorf("%s: instrumented result has no probe report", key)
			}
			stored, _ := sim.EncodeResult(res)
			again, _ := sim.EncodeResult(got)
			if !bytes.Equal(again, stored) {
				t.Errorf("%s: the decoded result re-encodes differently", key)
			}
		}
	}
}

// An entry of an older schema at the same path — what a store written
// by the gob-encoding builds holds — reads as a miss and is removed.
func TestOlderSchemaEntryIsMiss(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "older|nw"
	c.Put(key, simulate(t, 1000))
	if err := os.WriteFile(c.path(key), envelope.Encode("gpusecmem-resultcache/3", key, []byte("a gob payload")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("served an entry of an older schema")
	}
	if _, err := os.Stat(c.path(key)); !os.IsNotExist(err) {
		t.Fatalf("older entry not removed (stat err %v)", err)
	}
}

func TestMissOnUnknownKey(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("never stored"); ok {
		t.Fatal("hit on unknown key")
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// A truncated entry — the artifact a crashed writer without
// atomicfile would leave — must read as a miss and be removed.
func TestCorruptEntrySelfHeals(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := simulate(t, 1000)
	const key = "corrupt|nw"
	c.Put(key, res)
	path := c.path(key)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on truncated entry")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry not removed (stat err %v)", err)
	}
	// A re-Put repairs the slot.
	c.Put(key, res)
	if _, ok := c.Get(key); !ok {
		t.Fatal("miss after repair Put")
	}
}

// The torn-write table: entries truncated at arbitrary byte offsets —
// what a crashed writer or interrupted copy leaves — and entries with
// corruption in the header must all read as a clean miss, be removed,
// and bump the error counter. (internal/envelope's conformance test
// truncates and flips every byte of both stores' entries.)
func TestTornWritesSelfHeal(t *testing.T) {
	res := simulate(t, 1000)
	const key = "torn|nw"

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
		cases = append(cases, corruption{"truncate-" + frac.name, func(b []byte) []byte {
			return b[:frac.at(len(b))]
		}})
	}
	for _, off := range []int{4, 16, 32} {
		off := off
		cases = append(cases, corruption{fmt.Sprintf("bitflip-envelope-%d", off), func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[off] ^= 0x40
			return out
		}})
	}
	cases = append(cases, corruption{"empty", func([]byte) []byte { return nil }})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			c.Put(key, res)
			path := c.path(key)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mut(b), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get(key); ok {
				t.Fatal("served a corrupt entry")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry not removed (stat err %v)", err)
			}
			st := c.Stats()
			if st.Errors != 1 || st.Misses != 1 {
				t.Fatalf("stats = %+v, want 1 error + 1 miss", st)
			}
			// A re-Put repairs the slot.
			c.Put(key, res)
			if _, ok := c.Get(key); !ok {
				t.Fatal("miss after repair Put")
			}
		})
	}
}

// TestRawRoundTripBitIdentity pins the raw-envelope face: GetRaw
// returns the exact bytes the store holds; a second store installing
// them verbatim (PutRaw) reproduces the entry bit-for-bit; and the
// typed view decoded from the raw path renders the same canonical
// JSON as the typed Put/Get path.
func TestRawRoundTripBitIdentity(t *testing.T) {
	owner, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := simulate(t, 1500)
	const key = "cfg-json|nw-raw"
	owner.Put(key, res)

	raw, ok := owner.GetRaw(key)
	if !ok {
		t.Fatal("GetRaw missed after Put")
	}
	onDisk, err := os.ReadFile(owner.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(onDisk) {
		t.Fatal("GetRaw bytes differ from the on-disk entry")
	}

	// A second store installs the bytes verbatim.
	second, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := second.PutRaw(key, raw); err != nil {
		t.Fatal(err)
	}
	raw2, ok := second.GetRaw(key)
	if !ok || string(raw2) != string(raw) {
		t.Fatal("PutRaw/GetRaw did not preserve the envelope bit-for-bit")
	}

	got, ok := second.Get(key)
	if !ok {
		t.Fatal("typed Get missed after PutRaw")
	}
	want, _ := json.Marshal(res)
	have, _ := json.Marshal(got)
	if string(want) != string(have) {
		t.Fatalf("raw hop changed canonical JSON:\nwant %s\nhave %s", want, have)
	}
}

// TestEncodeDecodeEnvelope covers the entry codec Put and Get share:
// an envelope from encodeEnvelope, installed with PutRaw, reads back
// through Get unchanged, and PutRaw's validator rejects every bad
// envelope.
func TestEncodeDecodeEnvelope(t *testing.T) {
	res := simulate(t, 1500)
	const key = "envelope-key|nw"
	raw, err := encodeEnvelope(key, res)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PutRaw(key, raw); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("Get missed after PutRaw")
	}
	want, _ := json.Marshal(res)
	have, _ := json.Marshal(got)
	if string(want) != string(have) {
		t.Fatal("envelope round trip changed the result")
	}

	if _, err := encodeEnvelope(key, nil); err == nil {
		t.Fatal("encodeEnvelope accepted a nil result")
	}
	if err := c.PutRaw("some-other-key", raw); err == nil {
		t.Fatal("PutRaw accepted a key mismatch")
	}
	if err := c.PutRaw(key, raw[:len(raw)/2]); err == nil {
		t.Fatal("PutRaw accepted a truncated envelope")
	}
	if err := c.PutRaw(key, []byte("garbage")); err == nil {
		t.Fatal("PutRaw accepted garbage")
	}
}

// TestPutRawRejectsBadEnvelopes: PutRaw validates before writing —
// foreign bytes never land on disk unchecked — and GetRaw keeps the
// same self-heal-as-miss semantics as Get for entries corrupted
// after the fact.
func TestPutRawRejectsBadEnvelopes(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := simulate(t, 1500)
	const key = "putraw-key|nw"
	raw, err := encodeEnvelope(key, res)
	if err != nil {
		t.Fatal(err)
	}

	if err := c.PutRaw("a-different-key", raw); err == nil {
		t.Fatal("PutRaw accepted an envelope for the wrong key")
	}
	if err := c.PutRaw(key, []byte("junk")); err == nil {
		t.Fatal("PutRaw accepted junk")
	}
	if c.Len() != 0 {
		t.Fatal("rejected PutRaw left a file behind")
	}
	if st := c.Stats(); st.Errors != 2 {
		t.Fatalf("stats = %+v, want 2 errors", st)
	}

	if err := c.PutRaw(key, raw); err != nil {
		t.Fatal(err)
	}
	// Corrupt the stored entry in place: GetRaw must miss, count an
	// error, and remove the file (identical to Get's self-heal).
	if err := os.WriteFile(c.path(key), raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetRaw(key); ok {
		t.Fatal("GetRaw served a truncated entry")
	}
	if _, err := os.Stat(c.path(key)); !os.IsNotExist(err) {
		t.Fatal("GetRaw did not self-heal the corrupt entry away")
	}
}
