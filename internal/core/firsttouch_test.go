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

// A cluster costs what its run touches: a paper-default cluster, whose
// 64 MiB global space, 4096-line caches and full-map directory are
// capacities, allocates only the chunk pointers of its tables to build.
func TestNewClusterAllocatesNoHomePages(t *testing.T) {
	const limit = 256 << 10
	var c *Cluster
	n, _ := allocDelta(func() { c = MustNewCluster(DefaultConfig(4)) })
	if n >= limit {
		t.Fatalf("NewCluster allocated %d KB, want < %d KB", n>>10, limit>>10)
	}
	if c.Space.Capacity() != 64<<20 {
		t.Fatalf("capacity %d, want the full 64 MiB", c.Space.Capacity())
	}
	if got := materializedChunks(c); got != [3]int{} {
		t.Fatalf("NewCluster materialized chunks (cache, directory, space) = %v, want none", got)
	}
}

// materializedChunks counts the allocated chunks of every node's cache, of
// the directory and of the home page table.
func materializedChunks(c *Cluster) [3]int {
	var m [3]int
	for _, n := range c.Nodes {
		m[0] += n.Cache.MaterializedChunks()
	}
	m[1] = c.Dir.MaterializedChunks()
	m[2] = c.Space.MaterializedChunks()
	return m
}

// Resets and wipes walk what the run materialized and allocate nothing
// new: after a run that touched a few pages, ResetVirtualState, Dir.Reset,
// crash wipes and directory-cache clears leave the chunk counts as they
// were, and the next run still reads what the first one wrote.
func TestResetsMaterializeNothingNew(t *testing.T) {
	c := MustNewCluster(DefaultConfig(4))
	const k = 8
	xs := c.AllocF64(k * 512)
	c.Run(2, func(t *Thread) { // ranks 0..7 write pages 0..7
		t.SetF64(xs, t.Rank*512, float64(t.Rank+1))
		t.ReleaseFence()
	})
	// Run starts with a ResetVirtualState of its own, so this also checks
	// that the reset of a fresh cluster materialized nothing: pages 0..7
	// fall in the first chunk of each node's cache, of the home truth and
	// of each node's directory cache, and of the page table.
	before := materializedChunks(c)
	if want := [3]int{len(c.Nodes), 1 + len(c.Nodes), 1}; before != want {
		t.Fatalf("run materialized %v chunks (cache, directory, space), want %v", before, want)
	}
	c.ResetVirtualState()
	c.Dir.Reset()
	for i, n := range c.Nodes {
		n.CrashWipe()
		c.Dir.ClearCache(i)
	}
	if after := materializedChunks(c); after != before {
		t.Fatalf("resets changed materialized chunks %v -> %v", before, after)
	}
	var got float64
	c.Run(1, func(t *Thread) {
		if t.Rank == 1 {
			got = t.GetF64(xs, (k-1)*512)
		}
	})
	if got != k {
		t.Fatalf("after resets read %v, want %d", got, k)
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
