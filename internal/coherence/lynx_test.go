package coherence

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"argo/internal/cache"
	"argo/internal/directory"
	"argo/internal/fabric"
	"argo/internal/mem"
	"argo/internal/sim"
)

// wordRig extends the basic rig with a per-proc TLB, mirroring how core
// wires one TLB per thread.
func wordRig(t *testing.T, opt Options) (*rig, []*cache.TLB) {
	t.Helper()
	r := newRig(t, opt)
	return r, []*cache.TLB{cache.NewTLB(), cache.NewTLB()}
}

func TestWordHitTakesFastPath(t *testing.T) {
	r, tbs := wordRig(t, Options{Mode: ModePS3})
	addr := mem.Addr(3 * 4096)
	binary.LittleEndian.PutUint64(r.space.HomeBytes(3), 77)
	if got := r.nodes[0].ReadWord(r.procs[0], tbs[0], addr); got != 77 {
		t.Fatalf("first read = %d, want 77", got)
	}
	// The miss filled the TLB: the entry must be live and the next read a
	// counted hit.
	e := tbs[0].Entry(3)
	if e.Page != 3 || e.Data == nil {
		t.Fatalf("TLB not filled after miss: %+v", e)
	}
	hits := r.procs[0].Hits
	if got := r.nodes[0].ReadWord(r.procs[0], tbs[0], addr); got != 77 {
		t.Fatalf("second read = %d, want 77", got)
	}
	if r.procs[0].Hits != hits+1 {
		t.Fatalf("hit not counted: %d -> %d", hits, r.procs[0].Hits)
	}
}

func TestWriteHitRequiresDirtyEntry(t *testing.T) {
	r, tbs := wordRig(t, Options{Mode: ModePS3})
	addr := mem.Addr(5 * 4096)
	// A read fills a clean entry; the first write must still run the full
	// write-miss protocol (twin + registration), then flip the entry dirty.
	r.nodes[0].ReadWord(r.procs[0], tbs[0], addr)
	if e := tbs[0].Entry(5); e.Dirty {
		t.Fatal("clean read marked TLB entry dirty")
	}
	r.nodes[0].WriteWord(r.procs[0], tbs[0], addr, 11)
	if e := tbs[0].Entry(5); !e.Dirty {
		t.Fatal("write miss did not mark TLB entry dirty")
	}
	if !r.dir.Home(5).W.Has(0) {
		t.Fatal("writer not registered at the directory")
	}
	r.nodes[0].WriteWord(r.procs[0], tbs[0], addr, 12)
	r.nodes[0].SDFence(r.procs[0])
	if got := binary.LittleEndian.Uint64(r.space.HomeBytes(5)); got != 12 {
		t.Fatalf("home after fence = %d, want 12", got)
	}
}

func TestTLBStaleAfterSIFence(t *testing.T) {
	r, tbs := wordRig(t, Options{Mode: ModePS3})
	addr := mem.Addr(7 * 4096)
	if got := r.nodes[0].ReadWord(r.procs[0], tbs[0], addr); got != 0 {
		t.Fatalf("initial read = %d, want 0", got)
	}
	// Another node writes and releases; after the acquire fence the stale
	// TLB entry must not serve the old value.
	r.nodes[1].WriteWord(r.procs[1], tbs[1], addr, 42)
	r.nodes[1].SDFence(r.procs[1])
	r.nodes[0].SIFence(r.procs[0])
	if got := r.nodes[0].ReadWord(r.procs[0], tbs[0], addr); got != 42 {
		t.Fatalf("read after SI fence = %d, want 42 (stale TLB served)", got)
	}
}

func TestTLBStaleAfterSDFenceDowngrade(t *testing.T) {
	r, tbs := wordRig(t, Options{Mode: ModePS3})
	addr := mem.Addr(4 * 4096)
	r.nodes[0].WriteWord(r.procs[0], tbs[0], addr, 1)
	r.nodes[0].SDFence(r.procs[0]) // downgrade: page is clean, gen bumped
	// The dirty TLB entry is stale now: this write must re-run the
	// write-miss protocol (fresh twin), not sneak past it, or the value
	// would never be diffed home.
	r.nodes[0].WriteWord(r.procs[0], tbs[0], addr, 2)
	r.nodes[0].SDFence(r.procs[0])
	if got := binary.LittleEndian.Uint64(r.space.HomeBytes(4)); got != 2 {
		t.Fatalf("home = %d, want 2 (write lost after downgrade)", got)
	}
}

func TestTLBStaleAfterConflictEviction(t *testing.T) {
	r, tbs := wordRig(t, Options{Mode: ModePS3})
	// The rig cache has 8 lines x 2 pages: pages 0 and 16 conflict.
	r.nodes[0].WriteWord(r.procs[0], tbs[0], 0, 1)
	r.nodes[0].ReadWord(r.procs[0], tbs[0], mem.Addr(16*4096)) // evicts page 0 (writeback)
	if got := binary.LittleEndian.Uint64(r.space.HomeBytes(0)); got != 1 {
		t.Fatalf("eviction writeback lost: home = %d, want 1", got)
	}
	// Page 0's TLB entry is stale (gen bumped by the refetch); the write
	// must fall back and redo the miss protocol.
	r.nodes[0].WriteWord(r.procs[0], tbs[0], 0, 2)
	r.nodes[0].SDFence(r.procs[0])
	if got := binary.LittleEndian.Uint64(r.space.HomeBytes(0)); got != 2 {
		t.Fatalf("home = %d, want 2 (write lost after eviction)", got)
	}
}

func TestTLBStaleAfterCrashWipe(t *testing.T) {
	r, tbs := wordRig(t, Options{Mode: ModePS3})
	addr := mem.Addr(6 * 4096)
	if got := r.nodes[0].ReadWord(r.procs[0], tbs[0], addr); got != 0 {
		t.Fatalf("initial read = %d, want 0", got)
	}
	binary.LittleEndian.PutUint64(r.space.HomeBytes(6), 99)
	r.nodes[0].CrashWipe()
	if got := r.nodes[0].ReadWord(r.procs[0], tbs[0], addr); got != 99 {
		t.Fatalf("read after crash wipe = %d, want 99 (stale TLB survived the wipe)", got)
	}
}

// TestTLBSeqlockConcurrentSameLine drives the lock-free paths under real
// host concurrency (run under -race): two reader procs spin on one word of
// page 8 while a writer proc on the same node dirties page 9 — the other
// page of the same cache line — and fences, bumping the line generation
// over and over. Readers must always observe the untouched sentinel
// (falling back to the locked path whenever their entry went stale), and
// the writer's last value must survive to home via the Act drain.
func TestTLBSeqlockConcurrentSameLine(t *testing.T) {
	r, _ := wordRig(t, Options{Mode: ModePS3})
	const sentinel = 0x1122334455667788
	rdAddr := mem.Addr(8*4096 + 8)
	wrAddr := mem.Addr(9 * 4096)
	binary.LittleEndian.PutUint64(r.space.HomeBytes(8)[8:], sentinel)

	stop := make(chan struct{})
	var bad atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &sim.Proc{Node: 0}
			tb := cache.NewTLB()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if got := r.nodes[0].ReadWord(p, tb, rdAddr); got != sentinel {
					bad.Add(1)
					return
				}
				if i&63 == 63 {
					runtime.Gosched() // don't starve the writer on 1-CPU hosts
				}
			}
		}()
	}

	wp := &sim.Proc{Node: 0}
	wtb := cache.NewTLB()
	var last uint64
	for i := 0; i < 128; i++ {
		// A locked write-miss re-dirties the page, then a burst of fast
		// dirty-path stores, then a fence downgrades and bumps the gen.
		for j := 0; j < 8; j++ {
			last = uint64(i*8 + j + 1)
			r.nodes[0].WriteWord(wp, wtb, wrAddr, last)
		}
		r.nodes[0].SDFence(wp)
		if i%16 == 0 {
			r.nodes[0].SIFence(wp)
		}
	}
	close(stop)
	wg.Wait()
	if n := bad.Load(); n > 0 {
		t.Fatalf("%d reader(s) observed a corrupt word", n)
	}
	if got := binary.LittleEndian.Uint64(r.space.HomeBytes(9)); got != last {
		t.Fatalf("home = %d, want %d (fast-path store lost)", got, last)
	}
}

// TestTLBRefillRacesStaleReaders pins why a published buffer must be
// refilled word-atomically: under ModeS every SI fence drops the page, and
// the next access refills it into the same buffer while other threads
// still load through their stale TLB entries (and discard the value when
// the generation check fails). Run under -race, a plain-copy refill of a
// published buffer is reported here.
func TestTLBRefillRacesStaleReaders(t *testing.T) {
	r, _ := wordRig(t, Options{Mode: ModeS})
	const sentinel = 0x0102030405060708
	addr := mem.Addr(8*4096 + 16)
	binary.LittleEndian.PutUint64(r.space.HomeBytes(8)[16:], sentinel)

	stop := make(chan struct{})
	var bad atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &sim.Proc{Node: 0}
			tb := cache.NewTLB()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if got := r.nodes[0].ReadWord(p, tb, addr); got != sentinel {
					bad.Add(1)
					return
				}
				if i&63 == 63 {
					runtime.Gosched() // don't starve the fencer on 1-CPU hosts
				}
			}
		}()
	}
	fp := &sim.Proc{Node: 0}
	ftb := cache.NewTLB()
	for i := 0; i < 256; i++ {
		r.nodes[0].SIFence(fp)
		if got := r.nodes[0].ReadWord(fp, ftb, addr); got != sentinel {
			t.Fatalf("refill %d read %#x, want %#x", i, got, sentinel)
		}
	}
	close(stop)
	wg.Wait()
	if n := bad.Load(); n > 0 {
		t.Fatalf("%d reader(s) observed a corrupt word", n)
	}
}

// TestTinyPageSizeStaysOnLockedPath pins the geometry guard: with a page
// size smaller than a word the TLB is never filled, and word accessors
// still work through the byte path (including the page-spanning case).
func TestTinyPageSizeStaysOnLockedPath(t *testing.T) {
	topo := sim.Topology{Nodes: 2, Sockets: 1, CoresPerSocket: 2}
	fab := fabric.MustNew(topo, fabric.DefaultParams())
	space := mem.NewSpace(2, 64*4, 4, mem.Interleaved)
	dir := directory.New(fab, space.NPages, space.HomeOf)
	n := NewNode(0, fab, space, dir, cache.New(0, 4, 8, 2, 16), DefaultOptions())
	p := &sim.Proc{Node: 0}
	tb := cache.NewTLB()
	n.WriteWord(p, tb, 8, 1234)
	if got := n.ReadWord(p, tb, 8); got != 1234 {
		t.Fatalf("tiny-geometry read = %d, want 1234", got)
	}
	for i := 0; i < cache.TLBSize; i++ {
		if e := tb.Entry(i); e.Page >= 0 {
			t.Fatalf("TLB filled (page %d) despite sub-word page size", e.Page)
		}
	}
}

// TestBulkReadsNeverPublish pins the publish-aware refill: bulk reads
// (ReadSegs, which backs ReadF64s) never hand a buffer to a TLB, so however
// often SI fences drop and refill the pages, no slot is ever published and
// every refill stays a plain copy. One word access then publishes its slot.
func TestBulkReadsNeverPublish(t *testing.T) {
	r, tbs := wordRig(t, Options{Mode: ModePS3})
	const pages = 8
	// A writer on node 1 makes node 0's copies shared with a writer, so
	// node 0's SI fences drop them.
	for pg := 0; pg < pages; pg++ {
		r.write64(1, mem.Addr(pg*4096), byte(pg+1))
	}
	r.nodes[1].SDFence(r.procs[1])
	n := r.nodes[0]
	const rounds = 3
	for round := 0; round < rounds; round++ {
		n.ReadSegs(r.procs[0], 0, pages*4096, func(off int, data []byte) {
			if off%4096 == 0 && data[0] != byte(off/4096+1) {
				t.Fatalf("round %d: page %d reads %d", round, off/4096, data[0])
			}
		})
		n.SIFence(r.procs[0])
	}
	if got := n.St.ColdFetches.Load(); got != rounds*pages {
		t.Fatalf("cold fetches = %d, want %d (every round refills)", got, rounds*pages)
	}
	n.Cache.ForEachLine(func(l int, slots []*cache.Slot) {
		for _, s := range slots {
			if s.Published {
				t.Errorf("slot of page %d published by bulk reads alone", s.DataPage)
			}
		}
	})
	n.ReadWord(r.procs[0], tbs[0], 3*4096)
	ln := n.Cache.Line(n.Cache.LineOf(3))
	ln.Lock()
	published := ln.Slot(3).Published
	ln.Unlock()
	if !published {
		t.Fatal("a word read filled the TLB without publishing the slot")
	}
}
