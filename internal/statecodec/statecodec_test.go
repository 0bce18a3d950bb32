package statecodec

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

const (
	testMagic   = "TEST"
	testVersion = 3
)

// record is a walkable value that exercises every primitive.
type record struct {
	u      uint64
	i      int
	b      bool
	raw    byte
	flags  [3]bool
	lo, hi [4]bool
	name   string
	list   []uint64
	fixed  [2]uint64
	keys   map[uint64]int
	slice  []uint64
	f      float64
}

func (r *record) walk(c *Codec) {
	c.U64(&r.u)
	c.Int(&r.i)
	c.Bool(&r.b)
	c.Byte(&r.raw)
	c.Bools(&r.flags[0], &r.flags[1], &r.flags[2])
	c.Sectors(&r.lo, &r.hi)
	c.String(&r.name)
	c.U64s(&r.list)
	c.FixedU64s(r.fixed[:], "fixed values")
	n, keys := MapLen(c, &r.keys, 2)
	var seq KeySeq
	for i := 0; i < n; i++ {
		var k uint64
		if !c.Decoding() {
			k = keys[i]
		}
		c.Key(&seq, &k)
		v := r.keys[k]
		c.Int(&v)
		if c.Decoding() {
			r.keys[k] = v
		}
	}
	Slice(c, &r.slice, 1)
	for i := range r.slice {
		c.U64(&r.slice[i])
	}
	c.F64(&r.f)
}

func encode(t *testing.T, r *record) []byte {
	t.Helper()
	c := NewEncoder(testMagic, testVersion)
	r.walk(c)
	b, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func decode(b []byte) (*record, error) {
	r := &record{keys: map[uint64]int{}}
	c := NewDecoder(b, testMagic, testVersion)
	if c.Err() == nil {
		r.walk(c)
	}
	_, err := c.Finish()
	return r, err
}

func sample() *record {
	return &record{
		u: math.MaxUint64, i: -12345, b: true, raw: 0xfe,
		flags: [3]bool{true, false, true},
		lo:    [4]bool{true, false, false, true}, hi: [4]bool{false, true, true, false},
		name: "srad_v2", list: []uint64{1, 300, 1 << 40}, fixed: [2]uint64{7, 1 << 63},
		keys:  map[uint64]int{0: 1, 5: -2, 6: 3, math.MaxUint64: 4},
		slice: []uint64{9, 8},
		f:     math.Copysign(0, -1),
	}
}

// One walk round-trips every primitive, and the decoded value encodes
// to the same bytes.
func TestWalkRoundTrip(t *testing.T) {
	b := encode(t, sample())
	r, err := decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, r), b) {
		t.Fatal("decoded record re-encodes differently")
	}
	if r.u != math.MaxUint64 || r.i != -12345 || r.name != "srad_v2" || r.keys[math.MaxUint64] != 4 || len(r.keys) != 4 || !math.Signbit(r.f) {
		t.Fatalf("decoded %+v", r)
	}
}

// decodeOne decodes body, after a valid header, with one walk.
func decodeOne(body []byte, walk func(c *Codec)) error {
	c := NewDecoder(append([]byte{'T', 'E', 'S', 'T', testVersion}, body...), testMagic, testVersion)
	walk(c)
	_, err := c.Finish()
	return err
}

// Decoding refuses every non-canonical or malformed form, naming it.
func TestDecodeRefusals(t *testing.T) {
	var (
		u    uint64
		n    int
		f    [3]bool
		keys KeySeq
	)
	u64 := func(c *Codec) { c.U64(&u) }
	max := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	for _, c := range []struct {
		name, want string
		body       []byte
		walk       func(c *Codec)
	}{
		{"non-minimal-varint", "non-minimal", []byte{0x81, 0x00}, u64},
		{"varint-overflow", "overflows 64 bits", append(max[:9:9], 0x02), u64},
		{"varint-too-long", "overflows 64 bits", append(max[:9:9], 0x81, 0x01), u64},
		{"truncated", "truncated", []byte{0x80}, u64},
		{"trailing", "1 trailing bytes", []byte{0x01, 0x02}, u64},
		{"bool-byte", "not 0 or 1", []byte{2}, func(c *Codec) {
			var b bool
			c.Bool(&b)
		}},
		{"stray-flag-bit", "unused bits", []byte{0x0d}, func(c *Codec) { c.Bools(&f[0], &f[1], &f[2]) }},
		{"key-gap-overflow", "key gap", []byte{5, 0xfb, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, func(c *Codec) {
			c.Key(&keys, &u) // 5
			c.Key(&keys, &u) // 6 + (2^64-5): past 2^64-1
		}},
		{"key-after-max", "key gap", append(max[:10:10], 0), func(c *Codec) {
			c.Key(&keys, &u)
			c.Key(&keys, &u)
		}},
		{"length-past-input", "exceeds the 2 bytes left", []byte{2, 0, 0}, func(c *Codec) { c.Len(&n, 2) }},
		{"fixed-length", "3 fixed values, machine has 2", []byte{3, 0, 0, 0}, func(c *Codec) {
			c.FixedU64s(make([]uint64, 2), "fixed values")
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			keys = KeySeq{}
			err := decodeOne(c.body, c.walk)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("decode error %v, want one mentioning %q", err, c.want)
			}
		})
	}
	good := encode(t, sample())
	for _, c := range []struct {
		name, want string
		b          []byte
	}{
		{"bad-magic", "bad magic", append([]byte("TSET"), good[4:]...)},
		{"other-version", "version 4, want 3", append([]byte("TEST\x04"), good[5:]...)},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := decode(c.b); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("decode error %v, want one mentioning %q", err, c.want)
			}
		})
	}
}

// After the key 2^64-1 no key may follow; the encoder refuses an
// unordered key rather than wrapping it.
func TestKeySequenceEnds(t *testing.T) {
	c := NewEncoder(testMagic, testVersion)
	var s KeySeq
	for _, k := range []uint64{3, 3} {
		c.Key(&s, &k)
	}
	if _, err := c.Finish(); err == nil {
		t.Fatal("encoded a duplicated key")
	}
	d := NewDecoder(append([]byte(testMagic), testVersion, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0), testMagic, testVersion)
	var ds KeySeq
	var k uint64
	d.Key(&ds, &k)
	if k != math.MaxUint64 || d.Err() != nil {
		t.Fatalf("first key %d, error %v", k, d.Err())
	}
	d.Key(&ds, &k)
	if d.Err() == nil {
		t.Fatal("decoded a key after 2^64-1")
	}
}

// A decoder refuses entries for a nil map: a structure the machine it
// fills does not have.
func TestMapLenRefusesEntriesForNilMap(t *testing.T) {
	b := encode(t, &record{keys: map[uint64]int{1: 1}})
	r := &record{}
	c := NewDecoder(b, testMagic, testVersion)
	r.walk(c)
	if _, err := c.Finish(); err == nil || !strings.Contains(err.Error(), "keeps none") {
		t.Fatalf("error %v, want a refusal", err)
	}
}

// Decoded lists share the walk's slab, each capped at its length, so
// an append to one reallocates instead of overwriting the next.
func TestDecodedListsDoNotAlias(t *testing.T) {
	lists := [2][]uint64{{1, 2}, {3, 4, 5}}
	c := NewEncoder(testMagic, testVersion)
	for i := range lists {
		c.U64s(&lists[i])
	}
	b, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var got [2][]uint64
	d := NewDecoder(b, testMagic, testVersion)
	for i := range got {
		d.U64s(&got[i])
	}
	if _, err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if cap(got[0]) != len(got[0]) {
		t.Fatalf("decoded list has capacity %d past its length %d", cap(got[0]), len(got[0]))
	}
	got[0] = append(got[0], 99)
	if got[1][0] != 3 || got[0][1] != 2 {
		t.Fatalf("an append to one decoded list changed another: %v", got)
	}
}
