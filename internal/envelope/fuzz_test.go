package envelope

import (
	"bytes"
	"testing"
)

// FuzzEnvelopeDecode feeds arbitrary bytes, schemas and keys to
// Decode, the parser every store read and every raw put goes through.
// It must never panic, and it may accept raw only as the exact framing
// Encode gives its payload: any other input is refused.
func FuzzEnvelopeDecode(f *testing.F) {
	entry := Encode("gpusecmem/result/v1", "ctr_mac_bmt/nw/1500", []byte(`{"ipc":1.5}`))
	f.Add(entry, "gpusecmem/result/v1", "ctr_mac_bmt/nw/1500")
	f.Add(entry[:len(entry)-1], "gpusecmem/result/v1", "ctr_mac_bmt/nw/1500")
	f.Add(entry, "gpusecmem/result/v1", "ctr_mac_bmt/nw/150")
	f.Add(Encode("s", "", nil), "s", "")
	f.Add([]byte("s\n1\nk"), "s", "k")
	f.Add([]byte("s\n10\nk"), "s\n1", "k")
	f.Fuzz(func(t *testing.T, raw []byte, schema, key string) {
		payload, err := Decode(raw, schema, key)
		if err != nil {
			if payload != nil {
				t.Fatalf("refused input %q returned a payload", raw)
			}
			return
		}
		if want := Encode(schema, key, payload); !bytes.Equal(raw, want) {
			t.Fatalf("accepted %q, which is not the framing %q of its payload", raw, want)
		}
	})
}
