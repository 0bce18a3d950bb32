// Package recycle hands the storage of a finished simulation to the
// next one. A sweep runs hundreds of short simulations, and each one
// builds a machine of a few megabytes — tag arrays, MSHR entries,
// queues — that it uses for a few milliseconds. Make draws a slice
// from the arrays earlier machines handed back with Put, and allocates
// only when none of the right type and length is pooled.
//
// The pools are keyed by element type and length and backed by
// sync.Pool, so the garbage collector still reclaims what no machine
// draws again; there is no bound to tune. Put clears the slice before
// pooling it, so pooled memory pins nothing and Make's result is
// always zeroed, exactly like make's.
//
// Concurrency and aliasing contract: Make and Put are safe for
// concurrent use by any number of goroutines. Put transfers ownership:
// the caller must hold the only live reference to the slice's array
// and must not touch it again, because the next Make of that type and
// length, on any goroutine, may return the same memory.
package recycle

import (
	"sync"
	"unsafe"
)

// key names one pool: typ is a nil *T, so keys compare by element type.
type key struct {
	typ any
	n   int
}

// pools maps each key to its *sync.Pool.
var pools sync.Map

// Make returns a zeroed slice of n Ts, reusing a pooled array of that
// type and length when there is one. Make(0) is nil.
func Make[T any](n int) []T {
	if n <= 0 {
		return nil
	}
	if p, ok := pools.Load(key{(*T)(nil), n}); ok {
		if v := p.(*sync.Pool).Get(); v != nil {
			return unsafe.Slice(v.(*T), n)
		}
	}
	return make([]T, n)
}

// Put clears s's whole array, up to its capacity, and pools it for a
// later Make of the same type and length. s must not be used again.
func Put[T any](s []T) {
	s = s[:cap(s)]
	if len(s) == 0 {
		return
	}
	clear(s)
	k := key{(*T)(nil), len(s)}
	p, ok := pools.Load(k)
	if !ok {
		p, _ = pools.LoadOrStore(k, new(sync.Pool))
	}
	p.(*sync.Pool).Put(&s[0])
}

// Grow returns s with room for at least one more element. When s is
// full it copies s into a pooled array of twice the capacity (at
// least minCap) and hands the old array back.
func Grow[T any](s []T, minCap int) []T {
	if len(s) < cap(s) {
		return s
	}
	return grow(s, minCap)
}

// grow is Grow's slow path, kept apart so that Grow inlines into the
// appends it guards.
func grow[T any](s []T, minCap int) []T {
	t := Make[T](max(2*cap(s), minCap))[:len(s)]
	copy(t, s)
	Put(s)
	return t
}
