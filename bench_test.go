// Benchmarks that regenerate the paper's tables and figures through the
// testing.B interface — one benchmark per table/figure, wrapping the same
// runners as cmd/argo-bench (in quick mode so `go test -bench=.` finishes
// in minutes; run `go run ./cmd/argo-bench` for the full sweeps), plus
// micro-benchmarks of the protocol's hot paths.
package argo_test

import (
	"io"
	"testing"

	"argo"
	"argo/internal/harness"
	"argo/internal/mem"
	"argo/internal/microbench"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := harness.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	for i := 0; i < b.N; i++ {
		e.Run(io.Discard, true)
	}
}

func BenchmarkTable1Classification(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig1Trends(b *testing.B)           { benchExperiment(b, "fig1") }
func BenchmarkFig7Bandwidth(b *testing.B)        { benchExperiment(b, "fig7") }
func BenchmarkFig8Classification(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9WriteBuffer(b *testing.B)      { benchExperiment(b, "fig9") }
func BenchmarkFig10Writebacks(b *testing.B)      { benchExperiment(b, "fig10") }
func BenchmarkFig11LocksNative(b *testing.B)     { benchExperiment(b, "fig11") }
func BenchmarkFig12LocksDSM(b *testing.B)        { benchExperiment(b, "fig12") }
func BenchmarkFig13aLU(b *testing.B)             { benchExperiment(b, "fig13a") }
func BenchmarkFig13bNbody(b *testing.B)          { benchExperiment(b, "fig13b") }
func BenchmarkFig13cBlackscholes(b *testing.B)   { benchExperiment(b, "fig13c") }
func BenchmarkFig13dMM(b *testing.B)             { benchExperiment(b, "fig13d") }
func BenchmarkFig13eEP(b *testing.B)             { benchExperiment(b, "fig13e") }
func BenchmarkFig13fCG(b *testing.B)             { benchExperiment(b, "fig13f") }

// --- protocol hot-path micro-benchmarks ------------------------------------

func benchCluster(b *testing.B, nodes int) *argo.Cluster {
	b.Helper()
	cfg := argo.DefaultConfig(nodes)
	cfg.MemoryBytes = 16 << 20
	return argo.MustNewCluster(cfg)
}

// The hot-path micro-benchmarks below share their bodies with
// `argo-bench -benchjson` (internal/microbench) so the interactive
// `go test -bench` numbers and the CI BENCH_lynx.json artifact come from
// the same code.

// BenchmarkPageCacheHit measures the host-side cost of a cache-hitting
// 8-byte DSM read (the per-access overhead this simulator adds over a real
// mprotect-based DSM, where hits are free).
func BenchmarkPageCacheHit(b *testing.B) { microbench.PageCacheHit(b) }

// BenchmarkGetF64 measures scalar reads striding across a 64-page working
// set (the access-TLB working-set case).
func BenchmarkGetF64(b *testing.B) { microbench.GetF64Stride(b) }

// BenchmarkSetF64 measures scalar writes striding across a 64-page working
// set (dirty hits on the lock-free write path after one miss per page).
func BenchmarkSetF64(b *testing.B) { microbench.SetF64Stride(b) }

// BenchmarkPageFault measures a cold page fetch (miss, line fetch,
// directory registration) end to end.
func BenchmarkPageFault(b *testing.B) {
	cfg := argo.DefaultConfig(2)
	cfg.MemoryBytes = 512 << 20
	cfg.CacheLines = 1 << 16
	c := argo.MustNewCluster(cfg)
	xs := c.AllocF64(32 << 20 / 8)
	b.ResetTimer()
	c.Run(1, func(t *argo.Thread) {
		if t.Rank != 0 {
			return
		}
		stride := 4096 / 8 * int(int64(cfg.PagesPerLine)) // one demand miss per line
		for i := 0; i < b.N; i++ {
			t.GetF64(xs, (i*stride)%(xs.Len-1))
		}
	})
}

// BenchmarkSIFence measures the fence sweep over a populated cache.
func BenchmarkSIFence(b *testing.B) { microbench.SIFence(b) }

// BenchmarkBulkRead measures streaming bulk reads through the page cache.
func BenchmarkBulkRead(b *testing.B) { microbench.BulkRead(b) }

// BenchmarkLineRefill measures the bulk refill path: an SI fence drops a
// 4-page line another node writes, and ReadF64s fetches it again.
func BenchmarkLineRefill(b *testing.B) { microbench.LineRefill(b) }

// BenchmarkHierBarrier measures the full hierarchical barrier.
func BenchmarkHierBarrier(b *testing.B) {
	c := benchCluster(b, 4)
	b.ResetTimer()
	c.Run(4, func(t *argo.Thread) {
		for i := 0; i < b.N; i++ {
			t.Barrier()
		}
	})
}

// BenchmarkHQDLDelegation measures one delegated critical section end to
// end under node-local contention.
func BenchmarkHQDLDelegation(b *testing.B) {
	c := benchCluster(b, 2)
	counter := c.AllocI64(1)
	l := argo.NewHQDL(c)
	b.ResetTimer()
	c.Run(4, func(t *argo.Thread) {
		per := b.N / (2 * 4)
		for i := 0; i < per; i++ {
			l.DelegateWait(t, func(h *argo.Thread) {
				h.SetI64(counter, 0, h.GetI64(counter, 0)+1)
			})
		}
	})
}

// BenchmarkArenaAllocFree measures the dynamic allocator's host-side cost.
func BenchmarkArenaAllocFree(b *testing.B) {
	c := benchCluster(b, 1)
	a := argo.NewArena(c, 8<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := a.Alloc(256, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Free(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiff measures diff creation+application for a half-changed page.
func BenchmarkDiff(b *testing.B) {
	c := benchCluster(b, 1)
	_ = c
	base := make([]byte, 4096)
	data := make([]byte, 4096)
	for i := range data {
		if i%2 == 0 {
			data[i] = byte(i)
		}
	}
	s := memSpaceForBench()
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ApplyDiff(0, data, base)
	}
}

// BenchmarkDiffApply measures diff application for a sparsely-changed page
// (32-byte runs every 256 bytes — the word-wise scan's favourable case,
// where most of the page is skipped 8 bytes at a time).
func BenchmarkDiffApply(b *testing.B) { microbench.DiffApply(b) }

// BenchmarkDiffMixedF64 measures diff application for a page of float64s
// after small relative updates (LU's pattern: nearly every word mixes
// changed low mantissa bytes with unchanged high bytes).
func BenchmarkDiffMixedF64(b *testing.B) { microbench.DiffMixedF64(b) }

// BenchmarkSDFence measures a release fence over a spread dirty set: one
// dirty page per touched line, homes interleaved across 4 nodes — the case
// the home-grouped burst and the parallel sweep optimize.
func BenchmarkSDFence(b *testing.B) {
	c := benchCluster(b, 4)
	xs := c.AllocF64(1 << 16)
	b.ResetTimer()
	c.Run(1, func(t *argo.Thread) {
		if t.Rank != 0 {
			return
		}
		for i := 0; i < b.N; i++ {
			for j := 0; j < xs.Len; j += 512 {
				t.SetF64(xs, j, float64(i+j))
			}
			t.ReleaseFence()
		}
	})
}

// BenchmarkNewCluster measures building a paper-default 4-node cluster,
// the setup cost every launch pays.
func BenchmarkNewCluster(b *testing.B) { microbench.NewCluster(b) }

// BenchmarkDirFetchOr measures a warm-table Pyxis registration plus a
// directory-cache lookup.
func BenchmarkDirFetchOr(b *testing.B) { microbench.DirFetchOr(b) }

// BenchmarkResetVirtualState measures the between-launch reset of a
// cluster whose run touched a few hundred pages per node.
func BenchmarkResetVirtualState(b *testing.B) { microbench.ResetVirtualState(b) }

func memSpaceForBench() *mem.Space {
	return mem.NewSpace(1, 4096, 4096, mem.Interleaved)
}
