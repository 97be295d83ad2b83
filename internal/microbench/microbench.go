// Package microbench hosts the protocol's hot-path micro-benchmarks as
// plain functions, so the same bodies serve both the `go test -bench`
// harness (bench_test.go at the module root) and the machine-readable
// `argo-bench -benchjson` artifact the CI trajectory tracks. The numbers
// are host-side wall-clock costs — the overhead the simulator adds per
// access over a real mprotect-based DSM — not virtual-time results.
package microbench

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"testing"

	"argo"
	"argo/internal/harness"
	"argo/internal/mem"
)

func cluster(nodes int) *argo.Cluster {
	cfg := argo.DefaultConfig(nodes)
	cfg.MemoryBytes = 16 << 20
	return argo.MustNewCluster(cfg)
}

// PageCacheHit measures the host-side cost of a cache-hitting 8-byte DSM
// read of one resident page — the Lynx fast path's best case.
func PageCacheHit(b *testing.B) {
	c := cluster(1)
	xs := c.AllocF64(512)
	b.ResetTimer()
	c.Run(1, func(t *argo.Thread) {
		if t.Rank != 0 {
			return
		}
		for i := 0; i < b.N; i++ {
			t.GetF64(xs, i&511)
		}
	})
}

// GetF64Stride measures scalar reads striding across a 64-page working set
// (the TLB working-set case: every access hits a different entry).
func GetF64Stride(b *testing.B) {
	c := cluster(1)
	xs := c.AllocF64(1 << 15)
	mask := xs.Len - 1
	b.ResetTimer()
	c.Run(1, func(t *argo.Thread) {
		if t.Rank != 0 {
			return
		}
		for i := 0; i < b.N; i++ {
			t.GetF64(xs, (i*17)&mask)
		}
	})
}

// SetF64Stride measures scalar writes striding across a 64-page working set
// (dirty hits: the write-miss protocol is paid once per page, then the
// stores run on the lock-free dirty-write path).
func SetF64Stride(b *testing.B) {
	c := cluster(1)
	xs := c.AllocF64(1 << 15)
	mask := xs.Len - 1
	b.ResetTimer()
	c.Run(1, func(t *argo.Thread) {
		if t.Rank != 0 {
			return
		}
		for i := 0; i < b.N; i++ {
			t.SetF64(xs, (i*17)&mask, float64(i))
		}
	})
}

// BulkRead measures streaming bulk reads through the page cache.
func BulkRead(b *testing.B) {
	c := cluster(2)
	const n = 1 << 15
	xs := c.AllocF64(n)
	buf := make([]float64, n)
	b.SetBytes(n * 8)
	b.ResetTimer()
	c.Run(1, func(t *argo.Thread) {
		if t.Rank != 0 {
			return
		}
		for i := 0; i < b.N; i++ {
			t.ReadF64s(xs, 0, n, buf)
		}
	})
}

// LineRefill measures the bulk refill path: every iteration self-invalidates
// one 4-page line that another node writes (SI fence) and re-reads it with
// ReadF64s, paying one line fetch and four page refills. BulkRead, by
// contrast, stays warm in the cache.
func LineRefill(b *testing.B) {
	c := cluster(2)
	const n = 4 * 512   // one line of the default geometry: 4 pages of 512 float64s
	xs := c.AllocF64(n) // first allocation: starts on a line boundary
	b.SetBytes(n * 8)
	b.ResetTimer()
	c.Run(1, func(t *argo.Thread) {
		buf := make([]float64, n)
		if t.Rank == 1 {
			// A writer on another node makes the line shared with a
			// writer, which node 0's SI fences must drop.
			t.WriteF64s(xs, 0, buf)
		}
		t.Barrier()
		if t.Rank != 0 {
			return
		}
		for i := 0; i < b.N; i++ {
			t.AcquireFence()
			t.ReadF64s(xs, 0, n, buf)
		}
	})
}

// SIFence measures the acquire-fence sweep over a populated cache.
func SIFence(b *testing.B) {
	c := cluster(2)
	xs := c.AllocF64(1 << 16)
	b.ResetTimer()
	c.Run(1, func(t *argo.Thread) {
		if t.Rank != 0 {
			return
		}
		for i := 0; i < xs.Len; i += 512 {
			t.GetF64(xs, i)
		}
		for i := 0; i < b.N; i++ {
			t.AcquireFence()
		}
	})
}

// DiffApply measures diff application for a sparsely-changed page (32-byte
// runs every 256 bytes — the word-wise scan's favourable case).
func DiffApply(b *testing.B) {
	base := make([]byte, 4096)
	data := make([]byte, 4096)
	for i := 0; i < len(data); i += 256 {
		for j := i; j < i+32; j++ {
			data[j] = byte(j + 1)
		}
	}
	s := mem.NewSpace(1, 4096, 4096, mem.Interleaved)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ApplyDiff(0, data, base)
	}
}

// DiffMixedF64 measures diff application for a page of float64s after small
// relative updates (LU's pattern: the low mantissa bytes change while sign,
// exponent and high mantissa bytes stay, so nearly every word mixes changed
// and unchanged bytes).
func DiffMixedF64(b *testing.B) {
	twin := make([]byte, 4096)
	data := make([]byte, 4096)
	for k := 0; k < len(twin); k += 8 {
		v := 1 + float64(k)/4096
		binary.LittleEndian.PutUint64(twin[k:], math.Float64bits(v))
		binary.LittleEndian.PutUint64(data[k:], math.Float64bits(v-v*1e-7*float64(k/8%5+1)))
	}
	s := mem.NewSpace(1, 4096, 4096, mem.Interleaved)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ApplyDiff(0, data, twin)
	}
}

// NewCluster measures building a paper-default 4-node cluster (64 MiB of
// global memory) — the setup every launch pays before its first access.
func NewCluster(b *testing.B) {
	cfg := argo.DefaultConfig(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		argo.MustNewCluster(cfg)
	}
}

// DirFetchOr measures the Pyxis hot path on a warm directory: one reader
// registration (the fetch-and-or a line fetch deposits) plus one lookup of
// the node's directory cache, cycling over 1024 pages whose table chunks
// are already materialized.
func DirFetchOr(b *testing.B) {
	c := cluster(4)
	const pages = 1024
	p := c.Fab.Topo.NewProc(1, 0)
	for pg := 0; pg < pages; pg++ {
		c.Dir.RegisterReader(p, pg, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg := i & (pages - 1)
		c.Dir.RegisterReader(p, pg, 1)
		c.Dir.Cached(1, pg)
	}
}

// ResetVirtualState measures the collective reset between launches on a
// paper-default cluster whose run touched 256 pages on every node: caches,
// directory and fabric residue are cleared, home memory is kept.
func ResetVirtualState(b *testing.B) {
	cfg := argo.DefaultConfig(4)
	c := argo.MustNewCluster(cfg)
	xs := c.AllocF64(256 * 512)
	c.Run(1, func(t *argo.Thread) {
		for i := 0; i < xs.Len; i += 512 {
			t.GetF64(xs, i)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ResetVirtualState()
	}
}

// Fig13bNbody runs the quick n-body figure end to end — one whole
// experiment per iteration — so the artifact also tracks the access paths'
// end-to-end effect, not just the isolated hot loops.
func Fig13bNbody(b *testing.B) {
	e, ok := harness.Lookup("fig13b")
	if !ok {
		b.Fatal("experiment fig13b not registered")
	}
	for i := 0; i < b.N; i++ {
		e.Run(io.Discard, true)
	}
}

// Row is one benchmark result in the BENCH_* artifact schema (the shape the
// CI bench-smoke packaging step produces from `go test -bench` output).
type Row struct {
	Name     string  `json:"name"`
	Iters    int     `json:"iters"`
	NsPerOp  float64 `json:"ns_per_op"`
	MBPerSec float64 `json:"mb_per_s,omitempty"`
}

// Rows runs the whole suite through testing.Benchmark and returns the
// results in declaration order.
func Rows() []Row {
	specs := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"BenchmarkPageCacheHit", PageCacheHit},
		{"BenchmarkGetF64", GetF64Stride},
		{"BenchmarkSetF64", SetF64Stride},
		{"BenchmarkBulkRead", BulkRead},
		{"BenchmarkLineRefill", LineRefill},
		{"BenchmarkSIFence", SIFence},
		{"BenchmarkDiffApply", DiffApply},
		{"BenchmarkDiffMixedF64", DiffMixedF64},
		{"BenchmarkNewCluster", NewCluster},
		{"BenchmarkDirFetchOr", DirFetchOr},
		{"BenchmarkResetVirtualState", ResetVirtualState},
		{"BenchmarkFig13bNbody", Fig13bNbody},
	}
	rows := make([]Row, 0, len(specs))
	for _, s := range specs {
		r := testing.Benchmark(s.fn)
		row := Row{Name: s.name, Iters: r.N, NsPerOp: float64(r.T.Nanoseconds()) / float64(r.N)}
		if r.Bytes > 0 && r.T > 0 {
			row.MBPerSec = float64(r.Bytes) * float64(r.N) / r.T.Seconds() / 1e6
		}
		rows = append(rows, row)
	}
	return rows
}

// WriteJSON writes rows as indented JSON (the BENCH_lynx.json artifact).
func WriteJSON(w io.Writer, rows []Row) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(rows)
}
