// Package chunk provides Table, a fixed-length array whose storage is
// allocated in chunks of Size elements the first time one of them is
// touched. The simulator's capacity-sized tables — page-cache lines, Pyxis
// full-maps, the home page table, MPI mailboxes — cover every page or rank
// pair the configuration allows, but a run touches a small fraction of them;
// with Table a cluster pays for what its run touches.
//
// A chunk is published through an atomic pointer, so lookups of a
// materialized element take no lock. Materialization is serialized by a
// mutex that guards nothing else: it is never held while any other lock is
// taken (the initializer must not lock), so callers may materialize while
// holding their own locks. A chunk never moves and is never freed while its
// table lives, so pointers into it stay valid; resets clear elements in
// place instead of dropping chunks.
package chunk

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Shift is log2(Size).
const Shift = 6

// Size is the number of elements per chunk.
const Size = 1 << Shift

// Table is an array of n elements of type T, allocated chunk by chunk on
// first touch. A Table is embedded in its owner and prepared with Init.
type Table[T any] struct {
	n      int
	init   func(base int, c []T)
	mu     sync.Mutex // serializes materialization only
	chunks []atomic.Pointer[[Size]T]
}

// Init makes t a table of n elements. init, when non-nil, prepares each
// freshly allocated chunk before it is published; base is the index of the
// chunk's first element. It must not take locks (see the package comment).
func (t *Table[T]) Init(n int, init func(base int, c []T)) {
	t.n = n
	t.init = init
	t.chunks = make([]atomic.Pointer[[Size]T], (n+Size-1)>>Shift)
}

// At returns element i, materializing its chunk on first touch. It panics
// unless i lies in [0, Len).
func (t *Table[T]) At(i int) *T {
	if e := t.Peek(i); e != nil {
		return e
	}
	return t.materialize(i)
}

// Peek returns element i, or nil when its chunk was never materialized.
// Readers for which an untouched element means "zero value" use it to
// avoid allocating. It panics unless i lies in [0, Len): every chunk is a
// full Size-element array, so the last one has spare elements past Len that
// no index may reach.
func (t *Table[T]) Peek(i int) *T {
	if uint(i) >= uint(t.n) {
		panic(rangeError{i, t.n})
	}
	if c := t.chunks[i>>Shift].Load(); c != nil {
		return &c[i&(Size-1)]
	}
	return nil
}

// materialize allocates element i's chunk unless a racing caller already
// has; i was range-checked by Peek. Only the chunk's elements below Len are
// initialized.
func (t *Table[T]) materialize(i int) *T {
	k := i >> Shift
	t.mu.Lock()
	c := t.chunks[k].Load()
	if c == nil {
		c = new([Size]T)
		if t.init != nil {
			t.init(k<<Shift, t.part(k, c))
		}
		t.chunks[k].Store(c)
	}
	t.mu.Unlock()
	return &c[i&(Size-1)]
}

// part returns the elements of chunk k that lie below Len.
func (t *Table[T]) part(k int, c *[Size]T) []T {
	return c[:min(Size, t.n-k<<Shift)]
}

// Range calls fn for every materialized chunk in index order, with the
// index of the chunk's first element. Chunks materialized concurrently may
// or may not be visited.
func (t *Table[T]) Range(fn func(base int, c []T)) {
	for k := range t.chunks {
		if c := t.chunks[k].Load(); c != nil {
			fn(k<<Shift, t.part(k, c))
		}
	}
}

// Materialized returns how many chunks have been allocated.
func (t *Table[T]) Materialized() int {
	n := 0
	for k := range t.chunks {
		if t.chunks[k].Load() != nil {
			n++
		}
	}
	return n
}

// rangeError is the panic value of a lookup outside [0, Len). A value
// rather than a formatted string keeps Peek cheap enough to inline.
type rangeError struct{ i, n int }

func (e rangeError) Error() string {
	return fmt.Sprintf("chunk: index %d out of range [0,%d)", e.i, e.n)
}
