// Package mem implements Argo's global address space: a range of virtual
// addresses backed by page-granular home memory distributed over the nodes
// of the cluster, plus the collective bump allocator that hands out ranges
// of it.
//
// Homes are assigned per 4 KB page, either interleaved across nodes (the
// paper's scheme: node 0 serves the lowest addresses modulo the node count)
// or in contiguous blocks (an ablation the paper leaves as future work).
//
// Functionally, home pages are ordinary byte slices guarded by per-page
// reader/writer locks, which models the DMA serialization a real NIC
// provides and keeps concurrent writeback/fetch pairs race-free. Like the
// prototype's per-node regions, which the OS commits only on first touch, a
// home page is allocated the first time it is written; until then it reads
// as zeros. The capacity is an address range, not a host-memory cost. All
// costs are charged through the fabric by the callers (cache/coherence
// layers).
package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"argo/internal/chunk"
)

// Addr is a byte offset into the global address space.
type Addr = int64

// Policy selects how pages are assigned to home nodes.
type Policy int

const (
	// Interleaved assigns page p to node p mod N (the paper's scheme).
	Interleaved Policy = iota
	// Blocked assigns contiguous runs of pages to each node.
	Blocked
)

func (p Policy) String() string {
	switch p {
	case Interleaved:
		return "interleaved"
	case Blocked:
		return "blocked"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Space is the global address space of one cluster.
type Space struct {
	PageSize int
	NPages   int
	Nodes    int
	Policy   Policy

	pageShift uint // log2(PageSize); PageSize is a power of two

	// pages is the home page table, materialized chunk by chunk on first
	// write (package chunk): an untouched page costs neither its bytes
	// nor its table entry.
	pages    chunk.Table[homePage]
	cursor   atomic.Int64 // bump allocator
	capacity int64
}

// homePage is one page-table entry: the page's DMA lock and its backing
// bytes, nil until first written.
type homePage struct {
	mu   sync.RWMutex
	data []byte
}

// NewSpace creates a global address space of totalBytes bytes (rounded up to
// whole pages) distributed over nodes homes.
func NewSpace(nodes int, totalBytes int64, pageSize int, policy Policy) *Space {
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		panic(fmt.Sprintf("mem: page size must be a positive power of two, got %d", pageSize))
	}
	if nodes <= 0 {
		panic("mem: need at least one node")
	}
	np := int((totalBytes + int64(pageSize) - 1) / int64(pageSize))
	if np == 0 {
		np = 1
	}
	s := &Space{
		PageSize:  pageSize,
		NPages:    np,
		Nodes:     nodes,
		Policy:    policy,
		pageShift: uint(bits.TrailingZeros(uint(pageSize))),
		capacity:  int64(np) * int64(pageSize),
	}
	s.pages.Init(np, nil)
	return s
}

// Capacity returns the size of the space in bytes.
func (s *Space) Capacity() int64 { return s.capacity }

// HomeOf returns the home node of global page p.
func (s *Space) HomeOf(p int) int {
	switch s.Policy {
	case Blocked:
		per := (s.NPages + s.Nodes - 1) / s.Nodes
		h := p / per
		if h >= s.Nodes {
			h = s.Nodes - 1
		}
		return h
	default:
		return p % s.Nodes
	}
}

// PageOf returns the global page containing address a.
func (s *Space) PageOf(a Addr) int { return int(a >> s.pageShift) }

// PageShift returns log2(PageSize) — page-number extraction by shift for
// per-access hot paths (PageSize is validated to be a power of two).
func (s *Space) PageShift() uint { return s.pageShift }

// PageBase returns the first address of page p.
func (s *Space) PageBase(p int) Addr { return Addr(p) * Addr(s.PageSize) }

// Alloc reserves size bytes aligned to align (which must be a power of two;
// 0 means 8) and returns the base address. It is safe for concurrent use.
// Alloc panics when the space is exhausted — the simulator sizes the space
// to the workload up front, as the paper's prototype does.
func (s *Space) Alloc(size int64, align int64) Addr {
	if align == 0 {
		align = 8
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment must be a power of two, got %d", align))
	}
	for {
		cur := s.cursor.Load()
		base := (cur + align - 1) &^ (align - 1)
		end := base + size
		if end > s.capacity {
			panic(fmt.Sprintf("mem: out of global memory: want %d bytes at %d, capacity %d", size, base, s.capacity))
		}
		if s.cursor.CompareAndSwap(cur, end) {
			return base
		}
	}
}

// AllocPageAligned reserves size bytes starting on a page boundary, which
// gives a data structure its own pages (no false sharing with neighbours).
func (s *Space) AllocPageAligned(size int64) Addr {
	return s.Alloc(size, int64(s.PageSize))
}

// Used returns the number of allocated bytes.
func (s *Space) Used() int64 { return s.cursor.Load() }

// ResetAlloc rewinds the allocator. Only for harnesses reusing a space.
func (s *Space) ResetAlloc() { s.cursor.Store(0) }

// ReadPage copies page p's home content into dst (len(dst) == PageSize;
// a shorter dst receives the page's prefix).
func (s *Space) ReadPage(p int, dst []byte) { s.ReadAt(p, 0, dst) }

// ReadAt copies page p's home content from byte off on into dst, up to the
// end of the page. An unwritten page reads as zeros and stays unallocated,
// down to its page-table chunk.
func (s *Space) ReadAt(p, off int, dst []byte) {
	hp := s.pages.Peek(p)
	if hp != nil {
		hp.mu.RLock()
		if src := hp.data; src != nil {
			copy(dst, src[off:])
			hp.mu.RUnlock()
			return
		}
		hp.mu.RUnlock()
	}
	clear(dst[:min(len(dst), s.PageSize-off)])
}

// ReadPageWords is ReadPage with the destination stores performed as
// aligned 8-byte atomics. Cache refills use it for a buffer that some
// thread's Lynx TLB was handed: a fast-path reader may load a word of the
// destination buffer concurrently (it discards the value after its seqlock
// generation check fails), and atomic stores keep that benign overlap
// race-detector-clean. dst must be 8-byte aligned with len(dst)%8 == 0; the
// caller uses ReadPage otherwise. An unwritten page stores zeros.
func (s *Space) ReadPageWords(p int, dst []byte) {
	var src []byte
	hp := s.pages.Peek(p)
	if hp != nil {
		hp.mu.RLock()
		defer hp.mu.RUnlock()
		src = hp.data
	}
	n := min(s.PageSize, len(dst))
	for i := 0; i+8 <= n; i += 8 {
		var w uint64
		if src != nil {
			w = binary.LittleEndian.Uint64(src[i:])
		}
		atomic.StoreUint64((*uint64)(unsafe.Pointer(&dst[i])), w)
	}
}

// lockHome returns page p's page-table entry, write-locked, with its
// backing bytes allocated (first touch).
func (s *Space) lockHome(p int) *homePage {
	hp := s.pages.At(p)
	hp.mu.Lock()
	if hp.data == nil {
		hp.data = make([]byte, s.PageSize)
	}
	return hp
}

// WritePageFull overwrites page p's home content with src. Used for
// initialization and for the single-writer full-page downgrade optimization.
func (s *Space) WritePageFull(p int, src []byte) {
	hp := s.lockHome(p)
	copy(hp.data, src)
	hp.mu.Unlock()
}

// Writeback downgrades a dirty cached page to its home. While holding the
// page's home lock it consults preferFull; if that reports true the whole
// page is copied (single-writer full-page transmission — safe because the
// check happens after any competing writer has necessarily published its
// registration), otherwise only the bytes differing from twin are applied.
// It returns the number of bytes transmitted and which path was taken.
func (s *Space) Writeback(p int, data, twin []byte, preferFull func() bool) (tx int, full bool) {
	hp := s.lockHome(p)
	defer hp.mu.Unlock()
	home := hp.data
	if preferFull != nil && preferFull() {
		copy(home, data)
		return len(data), true
	}
	return diffScan(home, data, twin), false
}

// The diff scan compares data against twin eight bytes at a time, without
// a branch per byte. For each word x = data^twin it forms the per-byte
// changed mask nz (bit 7 of a byte set iff that byte of x is nonzero:
// adding 0x7f to the low seven bits carries into bit 7 exactly when one of
// them is set, and the carry never crosses a byte), then counts
//
//	changed += popcount(nz)
//	runs    += popcount(nz &^ (nz<<8 | carry))
//
// where a run starts at a changed byte whose predecessor is unchanged, and
// carry brings the previous word's top-byte flag down to byte 0. When
// applying, the changed bytes reach home in one masked merge per word,
// h&^m | d&m with m = (nz>>7)*0xff. The wire size is exactly that of the
// byte-run encoding of Keleher et al. (changed bytes plus an 8-byte header
// per maximal run), and exactly the changed bytes reach home. Unchanged
// words are skipped with one test, which keeps sparsely written pages at a
// word per step; a tail of len%8 bytes is scanned byte-wise.
const (
	diffLo7 = 0x7f7f7f7f7f7f7f7f
	diffHi  = 0x8080808080808080
)

// diffScan returns the wire size of the diff of data against twin and, when
// home is non-nil, merges the changed bytes of data into home. It is the
// single scan shared by the apply and size paths; twin and home must be at
// least len(data) long.
func diffScan(home, data, twin []byte) int {
	n := len(data)
	twin = twin[:n]
	changed, runs := 0, 0
	var carry uint64 // 0x80 when the previous byte changed
	i := 0
	for ; i+8 <= n; i += 8 {
		d := binary.LittleEndian.Uint64(data[i:])
		x := d ^ binary.LittleEndian.Uint64(twin[i:])
		if x == 0 {
			carry = 0
			continue
		}
		nz := ((x & diffLo7) + diffLo7 | x) & diffHi
		changed += bits.OnesCount64(nz)
		runs += bits.OnesCount64(nz &^ (nz<<8 | carry))
		carry = nz >> 56
		if home != nil {
			m := (nz >> 7) * 0xff
			h := binary.LittleEndian.Uint64(home[i:])
			binary.LittleEndian.PutUint64(home[i:], h&^m|d&m)
		}
	}
	for ; i < n; i++ {
		if data[i] == twin[i] {
			carry = 0
			continue
		}
		changed++
		if carry == 0 {
			runs++
		}
		carry = 0x80
		if home != nil {
			home[i] = data[i]
		}
	}
	return changed + 8*runs
}

// ApplyDiff writes back the bytes of data that differ from twin into page
// p's home content, leaving other bytes (possibly concurrently written by
// other nodes — false sharing) untouched. It returns the number of bytes
// that would travel on the wire: the changed bytes plus an 8-byte run header
// per contiguous changed run (the diff encoding of Keleher et al.).
func (s *Space) ApplyDiff(p int, data, twin []byte) int {
	hp := s.lockHome(p)
	tx := diffScan(hp.data, data, twin)
	hp.mu.Unlock()
	return tx
}

// DiffSize returns the wire size of the diff between data and twin without
// applying it (used to account the cost of a diff before transmission).
func DiffSize(data, twin []byte) int {
	return diffScan(nil, data, twin)
}

// HomeBytes exposes page p's backing slice, allocating it under the page's
// write lock if it was never written. Accesses through the returned slice
// are unlocked, so it is intended for zero-cost initialization, tests and
// verification snapshots taken while no simulated thread runs. Readers that
// must not allocate use ReadAt.
func (s *Space) HomeBytes(p int) []byte {
	hp := s.lockHome(p)
	defer hp.mu.Unlock()
	return hp.data
}

// MaterializedChunks returns how many chunks of the home page table have
// been allocated (tests and the cost-of-construction checks).
func (s *Space) MaterializedChunks() int { return s.pages.Materialized() }
