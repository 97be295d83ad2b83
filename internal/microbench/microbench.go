// Package microbench hosts the protocol's hot-path micro-benchmarks as
// plain functions, so the same bodies serve both the `go test -bench`
// harness (bench_test.go at the module root) and the machine-readable
// `argo-bench -benchjson` artifact the CI trajectory tracks. The numbers
// are host-side wall-clock costs — the overhead the simulator adds per
// access over a real mprotect-based DSM — not virtual-time results.
package microbench

import (
	"encoding/json"
	"io"
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

// NewCluster measures building a paper-default 4-node cluster (64 MiB of
// global memory) — the setup every launch pays before its first access.
func NewCluster(b *testing.B) {
	cfg := argo.DefaultConfig(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		argo.MustNewCluster(cfg)
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
		{"BenchmarkSIFence", SIFence},
		{"BenchmarkDiffApply", DiffApply},
		{"BenchmarkNewCluster", NewCluster},
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
