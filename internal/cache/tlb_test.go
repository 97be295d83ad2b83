package cache

import (
	"sync"
	"testing"

	"argo/internal/chunk"
)

func TestTLBEntryMappingAndFlush(t *testing.T) {
	tb := NewTLB()
	for i := 0; i < TLBSize; i++ {
		if tb.Entry(i).Page != -1 {
			t.Fatalf("fresh TLB entry %d not empty", i)
		}
	}
	// Pages that alias the same direct-mapped set share one entry.
	if tb.Entry(3) != tb.Entry(3+TLBSize) {
		t.Fatal("aliasing pages map to different entries")
	}
	if tb.Entry(3) == tb.Entry(4) {
		t.Fatal("distinct sets share an entry")
	}
	tb.Entry(3).Page = 3
	tb.Flush()
	if tb.Entry(3).Page != -1 {
		t.Fatal("Flush left a live entry")
	}
}

func TestBumpLineGenIncrementsAndDrains(t *testing.T) {
	c := New(0, 4096, 4, 2, 16)
	g0 := c.LineGen(1)
	ln := c.Line(1)
	ln.BumpGen()
	if g := c.LineGen(1); g != g0+1 {
		t.Fatalf("gen after bump = %d, want %d", g, g0+1)
	}
	if c.LineGen(2) != 0 {
		t.Fatal("bump leaked to another line")
	}
	// With an in-flight fast store registered, the bump must not return
	// until the presence counter drains.
	sy := &ln.Sync
	sy.Act.Add(1)
	done := make(chan struct{})
	go func() {
		ln.BumpGen()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("BumpGen returned with Act > 0")
	default:
	}
	sy.Act.Add(-1)
	<-done
	if g := c.LineGen(1); g != g0+2 {
		t.Fatalf("gen after drained bump = %d, want %d", g, g0+2)
	}
}

func TestFillTLBGuards(t *testing.T) {
	c := New(0, 4096, 4, 2, 16)
	tb := NewTLB()

	// Invalid slot: never published.
	l := c.LineOf(5)
	ln := c.Line(l)
	s := ln.Slot(5)
	FillTLB := func() { c.FillTLB(tb, ln, s) }
	FillTLB()
	if tb.Entry(5).Page != -1 {
		t.Fatal("invalid slot published to TLB")
	}

	// Valid slot: published with the line's current generation and state.
	s.Page = 5
	s.St = Dirty
	c.EnsureData(s)
	s.DataPage = 5
	FillTLB()
	e := tb.Entry(5)
	if e.Page != 5 || !e.Dirty || e.Sync != &ln.Sync || e.G != c.LineGen(l) {
		t.Fatalf("bad TLB fill: %+v", e)
	}

	// Nil TLB (disabled, or a non-thread internal access): no-op.
	c.FillTLB(nil, ln, s)

	// Reset wipes slots and advances every line's generation, so published
	// entries fail validation afterwards.
	g := c.LineGen(l)
	c.Reset()
	if c.LineGen(l) != g+1 {
		t.Fatalf("Reset did not bump line gen: %d -> %d", g, c.LineGen(l))
	}
	if e.Sync.Gen.Load() == e.G {
		t.Fatal("published entry still validates after Reset")
	}
}

func TestWordAligned(t *testing.T) {
	b := make([]byte, 64)
	// make([]byte) is 8-byte aligned on all supported platforms.
	if !WordAligned(b) {
		t.Fatal("fresh allocation not word-aligned")
	}
	if WordAligned(b[1:]) {
		t.Fatal("offset slice reported aligned")
	}
	if WordAligned(nil) {
		t.Fatal("empty slice reported aligned")
	}
}

// Every reset bumps the generation of every line that ever held a page, in
// every materialized chunk, so no TLB entry survives it; and it walks only
// the chunks that exist, materializing nothing.
func TestResetBumpsEveryTouchedLine(t *testing.T) {
	const lines = 4 * chunk.Size
	c := New(0, 4096, lines, 2, 16)
	tb := NewTLB()
	var entries []*TLBEntry
	for _, l := range []int{0, chunk.Size - 1, 3*chunk.Size + 2} {
		page := l * c.PagesPerLine
		ln := c.Line(l)
		ln.Lock()
		s := ln.Slot(page)
		s.Page, s.St, s.DataPage = page, Clean, page
		c.EnsureData(s)
		c.FillTLB(tb, ln, s)
		ln.Unlock()
		entries = append(entries, tb.Entry(page))
	}
	if c.MaterializedChunks() != 2 {
		t.Fatalf("%d chunks materialized, want 2", c.MaterializedChunks())
	}
	c.Reset()
	for _, e := range entries {
		if e.Sync.Gen.Load() == e.G {
			t.Fatalf("TLB entry of page %d still validates after Reset", e.Page)
		}
	}
	if c.MaterializedChunks() != 2 {
		t.Fatalf("Reset materialized chunks: %d, want 2", c.MaterializedChunks())
	}
	if c.LineGen(chunk.Size+1) != 0 || c.MaterializedChunks() != 2 {
		t.Fatal("LineGen of an untouched line materialized its chunk")
	}
}

// Threads of one node first-touch different lines of one chunk at once:
// every thread sees the same Line for the same index, and line locks and
// generations work across the race (run under -race).
func TestConcurrentLineFirstTouch(t *testing.T) {
	c := New(0, 4096, 2*chunk.Size, 2, 16)
	const workers = 8
	got := make([][]*Line, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < chunk.Size; i++ {
				ln := c.Line(concurrentLine(w, i))
				ln.Lock()
				ln.BumpGen()
				s := &ln.Slots()[0]
				s.WBTries++
				ln.Unlock()
				got[w] = append(got[w], ln)
			}
		}(w)
	}
	close(start)
	wg.Wait()
	if c.MaterializedChunks() != 1 {
		t.Fatalf("%d chunks materialized, want 1", c.MaterializedChunks())
	}
	for l := chunk.Size; l < 2*chunk.Size; l++ {
		ln := c.Line(l)
		if g := c.LineGen(l); g != workers {
			t.Fatalf("line %d gen %d, want %d", l, g, workers)
		}
		if n := ln.Slot(l * c.PagesPerLine).WBTries; n != workers {
			t.Fatalf("line %d slot touched %d times, want %d", l, n, workers)
		}
	}
	for w := range got {
		for i, ln := range got[w] {
			if l := concurrentLine(w, i); ln != c.Line(l) {
				t.Fatalf("worker %d got a second Line for index %d", w, l)
			}
		}
	}
}

// concurrentLine is the line worker w touches on its i-th step in
// TestConcurrentLineFirstTouch: every line of the second chunk once, each
// worker starting at a different one.
func concurrentLine(w, i int) int { return chunk.Size + (i+w*7)%chunk.Size }
