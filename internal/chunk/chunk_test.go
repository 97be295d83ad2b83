package chunk

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestLazyMaterialization(t *testing.T) {
	const n = 3*Size + 5
	inits := 0
	var tb Table[int]
	tb.Init(n, func(base int, c []int) {
		inits++
		for i := range c {
			c[i] = base + i
		}
	})
	if tb.Materialized() != 0 {
		t.Fatalf("fresh table: %d chunks materialized", tb.Materialized())
	}
	if tb.Peek(7) != nil {
		t.Fatal("Peek materialized or invented an element")
	}
	if got := *tb.At(Size + 3); got != Size+3 {
		t.Fatalf("At(%d) = %d, initializer not applied", Size+3, got)
	}
	if got := *tb.At(n - 1); got != n-1 {
		t.Fatalf("At(last) = %d", got)
	}
	if tb.Materialized() != 2 || inits != 2 {
		t.Fatalf("materialized %d chunks with %d inits, want 2", tb.Materialized(), inits)
	}
	// A chunk never moves: At and Peek keep returning the same element.
	p := tb.At(Size + 3)
	*p = -1
	if tb.Peek(Size+3) != p || *tb.At(Size + 3) != -1 {
		t.Fatal("element moved or was re-initialized")
	}
	var bases, lens []int
	tb.Range(func(base int, c []int) {
		bases = append(bases, base)
		lens = append(lens, len(c))
	})
	if len(bases) != 2 || bases[0] != Size || bases[1] != 3*Size || lens[0] != Size || lens[1] != 5 {
		t.Fatalf("Range visited bases %v lens %v", bases, lens)
	}
}

// Indices outside [0, Len) panic in At and Peek, also when they fall in
// the spare tail of a materialized last chunk.
func TestOutOfRangePanics(t *testing.T) {
	var tb Table[int]
	tb.Init(Size+1, nil)
	check := func(when string) {
		for _, i := range []int{-1, Size + 1, 2*Size - 1, 2 * Size} {
			for name, f := range map[string]func(int) *int{"At": tb.At, "Peek": tb.Peek} {
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("%s: %s(%d) did not panic", when, name, i)
						}
					}()
					f(i)
				}()
			}
		}
	}
	check("no chunk materialized")
	*tb.At(Size) = 1 // materializes the last chunk
	check("last chunk materialized")
}

// Goroutines racing to first-touch elements of one chunk all get the
// elements of one chunk, initialized once (run under -race).
func TestConcurrentFirstTouch(t *testing.T) {
	var inits atomic.Int32
	var tb Table[atomic.Int64]
	tb.Init(4*Size, func(base int, c []atomic.Int64) { inits.Add(1) })
	const workers = 16
	ptrs := make([][Size]*atomic.Int64, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < Size; i++ {
				j := (i + w) % Size // different first elements, same chunk
				e := tb.At(Size + j)
				e.Add(1)
				ptrs[w][j] = e
			}
		}(w)
	}
	close(start)
	wg.Wait()
	if inits.Load() != 1 || tb.Materialized() != 1 {
		t.Fatalf("%d inits, %d chunks, want 1", inits.Load(), tb.Materialized())
	}
	for j := 0; j < Size; j++ {
		for w := 1; w < workers; w++ {
			if ptrs[w][j] != ptrs[0][j] {
				t.Fatalf("element %d handed out at two addresses", j)
			}
		}
		if got := tb.Peek(Size + j).Load(); got != workers {
			t.Fatalf("element %d counted %d touches, want %d", j, got, workers)
		}
	}
}
