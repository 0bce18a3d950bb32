package crypto

import "testing"

func TestSHA256HasherBindsAll(t *testing.T) {
	h := NewSHA256Hasher([]byte("0123456789abcdef"))
	data := make([]byte, 128)
	base := h.NodeHash(data, 1)
	if h.NodeHash(data, 2) == base {
		t.Error("index not bound")
	}
	alt := append([]byte(nil), data...)
	alt[5] ^= 1
	if h.NodeHash(alt, 1) == base {
		t.Error("content not bound")
	}
	h2 := NewSHA256Hasher([]byte("fedcba9876543210"))
	if h2.NodeHash(data, 1) == base {
		t.Error("key not bound")
	}
	if h.NodeHash(data, 1) != base {
		t.Error("not deterministic")
	}
}

func BenchmarkSHA256_128B(b *testing.B) {
	h := NewSHA256Hasher(make([]byte, 16))
	msg := make([]byte, 128)
	b.SetBytes(128)
	for i := 0; i < b.N; i++ {
		h.NodeHash(msg, uint64(i))
	}
}
