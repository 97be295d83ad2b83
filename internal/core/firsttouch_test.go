package core

import (
	"runtime"
	"testing"
)

// allocDelta runs f and returns the bytes and objects it allocated.
func allocDelta(f func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// Home memory is committed on first touch: a paper-default cluster, whose
// 64 MiB global space is a capacity, allocates a fraction of that to build.
func TestNewClusterAllocatesNoHomePages(t *testing.T) {
	const limit = 16 << 20
	var c *Cluster
	n, _ := allocDelta(func() { c = MustNewCluster(DefaultConfig(4)) })
	if n >= limit {
		t.Fatalf("NewCluster allocated %.1f MB, want < %d MB", float64(n)/(1<<20), limit>>20)
	}
	if c.Space.Capacity() != 64<<20 {
		t.Fatalf("capacity %d, want the full 64 MiB", c.Space.Capacity())
	}
}

// Dumping a slice nobody wrote returns zeros without allocating its pages.
func TestDumpUnwrittenSliceAllocatesNothing(t *testing.T) {
	c := MustNewCluster(testConfig(2))
	const pages = 64
	xs := c.AllocF64(pages * 4096 / 8)
	var got []float64
	_, objects := allocDelta(func() { got = DumpSlice(c, xs) })
	for i, v := range got {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
	// DumpSlice makes its two result buffers; a materialized page would add
	// one object per page.
	if objects >= pages/2 {
		t.Fatalf("DumpSlice of %d unwritten pages made %d allocations", pages, objects)
	}
}
