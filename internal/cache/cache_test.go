package cache

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"argo/internal/chunk"
)

func testCache() *Cache { return New(0, 4096, 8, 4, 16) }

func TestGeometry(t *testing.T) {
	c := testCache()
	// Pages 0..3 share line 0; pages 32,33 live in line 0 of the next wrap.
	if c.LineOf(0) != 0 || c.LineOf(3) != 0 || c.LineOf(4) != 1 {
		t.Fatal("line mapping broken")
	}
	if c.LineOf(32) != 0 {
		t.Fatalf("direct mapping should wrap: line of page 32 = %d", c.LineOf(32))
	}
	if c.LineBase(7) != 4 || c.LineBase(4) != 4 {
		t.Fatal("line base broken")
	}
}

func TestSlotForDistinctWithinLine(t *testing.T) {
	c := testCache()
	ln := c.Line(0)
	ln.Lock()
	defer ln.Unlock()
	s0 := ln.Slot(0)
	s1 := ln.Slot(1)
	if s0 == s1 {
		t.Fatal("pages of one line share a slot")
	}
	if c.LineOf(32) != 0 || ln.Slot(32) != s0 {
		t.Fatal("conflicting page does not map to the same slot")
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero lines")
		}
	}()
	New(0, 4096, 0, 4, 16)
}

func TestEnsureDataAndTwin(t *testing.T) {
	c := testCache()
	ln := c.Line(0)
	ln.Lock()
	s := ln.Slot(0)
	c.EnsureData(s)
	if len(s.Data) != 4096 {
		t.Fatal("data buffer wrong size")
	}
	s.Data[5] = 42
	c.EnsureTwin(s)
	if s.Twin[5] != 42 {
		t.Fatal("twin is not a snapshot of data")
	}
	s.Data[5] = 43
	if s.Twin[5] != 42 {
		t.Fatal("twin aliases data")
	}
	c.DropTwin(s)
	if s.Twin != nil {
		t.Fatal("twin not dropped")
	}
	ln.Unlock()
}

// A dropped twin is the next write miss's twin, re-snapshotted from that
// slot's data.
func TestDropTwinRecycles(t *testing.T) {
	c := testCache()
	ln := c.Line(0)
	ln.Lock()
	a, b := ln.Slot(0), ln.Slot(1)
	c.EnsureData(a)
	c.EnsureData(b)
	a.Data[7] = 1
	b.Data[7] = 2
	c.EnsureTwin(a)
	twin := &a.Twin[0]
	c.DropTwin(a)
	c.DropTwin(a) // no twin: no-op, nothing pushed twice
	c.EnsureTwin(b)
	if &b.Twin[0] != twin {
		t.Fatal("EnsureTwin allocated instead of reusing the dropped twin")
	}
	if b.Twin[7] != 2 {
		t.Fatalf("recycled twin holds %d, want a snapshot of b's data (2)", b.Twin[7])
	}
	c.EnsureTwin(a)
	if &a.Twin[0] == twin {
		t.Fatal("one twin handed to two slots")
	}
	ln.Unlock()
}

// Published follows the buffer: FillTLB sets it, Invalidate, Reset and a
// same-page refill keep it, and only a fresh buffer clears it.
func TestPublishedLifecycle(t *testing.T) {
	c := testCache()
	tb := NewTLB()
	ln := c.Line(c.LineOf(5))
	ln.Lock()
	s := ln.Slot(5)
	s.Page, s.St = 5, Clean
	c.EnsureData(s)
	s.DataPage = 5
	if s.Published {
		t.Fatal("fresh buffer is published")
	}
	c.FillTLB(tb, ln, s)
	if !s.Published {
		t.Fatal("FillTLB did not mark the buffer published")
	}
	s.Invalidate()
	if !s.Published {
		t.Fatal("Invalidate unpublished a buffer a TLB may still name")
	}
	s.Page, s.St = 5, Clean // same-page refill reuses the buffer
	c.EnsureData(s)
	if !s.Published {
		t.Fatal("same-page refill unpublished the buffer")
	}
	ln.Unlock()
	c.Reset()
	ln.Lock()
	if !s.Published || s.Data == nil {
		t.Fatal("Reset dropped the buffer's published mark")
	}
	// Conflict refill: a different page must get a fresh, unpublished buffer.
	s.Page, s.Data = 5+c.Lines*c.PagesPerLine, nil
	c.EnsureData(s)
	if s.Published {
		t.Fatal("fresh buffer after a conflict refill is published")
	}
	ln.Unlock()
}

// Published must live in St's padding: a larger Slot costs a word per
// cached page in every cluster.
func TestSlotSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout guard is for 64-bit hosts")
	}
	if got := unsafe.Sizeof(Slot{}); got != 88 {
		t.Fatalf("unsafe.Sizeof(Slot{}) = %d, want 88", got)
	}
}

func TestWriteBufferFIFO(t *testing.T) {
	c := New(0, 4096, 8, 4, 3)
	for pg := 0; pg < 3; pg++ {
		if _, evict := c.WBPush(pg); evict {
			t.Fatalf("premature eviction at page %d", pg)
		}
	}
	victim, evict := c.WBPush(3)
	if !evict || victim != 0 {
		t.Fatalf("eviction = %v victim = %d, want oldest (0)", evict, victim)
	}
	victim, evict = c.WBPush(4)
	if !evict || victim != 1 {
		t.Fatalf("second eviction victim = %d, want 1", victim)
	}
	got := c.WBDrain()
	want := []int{2, 3, 4}
	if len(got) != 3 {
		t.Fatalf("drain = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order %v, want %v", got, want)
		}
	}
	if c.WBLen() != 0 {
		t.Fatal("drain did not empty the buffer")
	}
}

func TestWBCapacityClamp(t *testing.T) {
	c := New(0, 4096, 2, 1, 0)
	if c.WBCapacity() != 1 {
		t.Fatalf("zero capacity not clamped: %d", c.WBCapacity())
	}
}

// Property: pushing n pages evicts exactly max(0, n-cap) in FIFO order.
func TestWBEvictionProperty(t *testing.T) {
	f := func(n uint8, capU uint8) bool {
		capacity := int(capU)%32 + 1
		c := New(0, 4096, 4, 2, capacity)
		var evicted []int
		for pg := 0; pg < int(n); pg++ {
			if v, e := c.WBPush(pg); e {
				evicted = append(evicted, v)
			}
		}
		want := int(n) - capacity
		if want < 0 {
			want = 0
		}
		if len(evicted) != want {
			return false
		}
		for i, v := range evicted {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// ForEachLine visits every resident slot exactly once, under its line's
// lock and with its line index, including residents of lines in separately
// materialized chunks and in the last, partial chunk. It skips only chunks
// that were never materialized, which hold no page.
func TestForEachLineVisitsAll(t *testing.T) {
	const lines = 3*chunk.Size + 5
	c := New(0, 4096, lines, 4, 16)
	want := map[int]bool{}
	for _, l := range []int{0, 1, chunk.Size + 7, lines - 1} {
		ln := c.Line(l)
		ln.Lock()
		for i := 0; i < c.PagesPerLine; i += 2 {
			page := l*c.PagesPerLine + i
			s := ln.Slot(page)
			s.Page, s.St = page, Clean
			want[page] = true
		}
		ln.Unlock()
	}
	got := map[int]bool{}
	visited := 0
	c.ForEachLine(func(l int, slots []*Slot) {
		if c.Line(l).mu.TryLock() {
			t.Fatalf("line %d visited without its lock held", l)
		}
		visited += len(slots)
		for i, s := range slots {
			if s.Page < 0 {
				continue
			}
			if c.LineOf(s.Page) != l || s.Page%c.PagesPerLine != i {
				t.Fatalf("page %d reported in line %d slot %d", s.Page, l, i)
			}
			if got[s.Page] {
				t.Fatalf("page %d visited twice", s.Page)
			}
			got[s.Page] = true
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("visited residents %v, want %v", got, want)
	}
	// Chunks 0, 1 and the partial chunk 3 are materialized; chunk 2 is not.
	if n := (2*chunk.Size + 5) * c.PagesPerLine; visited != n {
		t.Fatalf("visited %d slots, want the %d of the materialized lines", visited, n)
	}
}

func TestReset(t *testing.T) {
	c := testCache()
	ln := c.Line(0)
	ln.Lock()
	s := ln.Slot(1)
	s.Page = 1
	s.St = Dirty
	c.EnsureData(s)
	c.EnsureTwin(s)
	s.ReadyAt = 99
	ln.Unlock()
	c.WBPush(1)
	c.Reset()
	ln.Lock()
	s = ln.Slot(1)
	if s.Page != -1 || s.St != Invalid || s.Twin != nil || s.ReadyAt != 0 {
		t.Fatalf("reset left state: %+v", s)
	}
	ln.Unlock()
	if c.WBLen() != 0 {
		t.Fatal("reset left write-buffer entries")
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Clean.String() != "C" || Dirty.String() != "D" {
		t.Fatal("state names wrong")
	}
}

func TestUsedLineTracking(t *testing.T) {
	c := testCache()
	seen := 0
	c.ForEachUsedLine(func(*Line) { seen++ })
	if seen != 0 {
		t.Fatalf("fresh cache has %d used lines", seen)
	}
	// Populate lines 1 and 3.
	for _, l := range []int{1, 3} {
		ln := c.Line(l)
		ln.Lock()
		s := ln.Slot(l * c.PagesPerLine)
		s.Page = l * c.PagesPerLine
		s.St = Clean
		c.EnsureData(s)
		c.MarkLineUsed(ln)
		ln.Unlock()
	}
	var visited []*Line
	c.ForEachUsedLine(func(ln *Line) { visited = append(visited, ln) })
	if len(visited) != 2 {
		t.Fatalf("visited %d lines, want lines 1 and 3", len(visited))
	}
	// Empty line 1 during a sweep: it must be retired.
	c.ForEachUsedLine(func(ln *Line) {
		if ln.mu.TryLock() {
			t.Fatal("used line visited without its lock held")
		}
		if ln == c.Line(1) {
			for i := range ln.Slots() {
				ln.Slots()[i].Invalidate()
			}
		}
	})
	visited = nil
	c.ForEachUsedLine(func(ln *Line) { visited = append(visited, ln) })
	if len(visited) != 1 || visited[0] != c.Line(3) {
		t.Fatalf("after retirement visited %v, want [line 3]", visited)
	}
	// Re-marking a retired line brings it back exactly once.
	ln := c.Line(1)
	ln.Lock()
	s := ln.Slot(c.PagesPerLine)
	s.Page = c.PagesPerLine
	s.St = Clean
	c.MarkLineUsed(ln)
	c.MarkLineUsed(ln) // idempotent
	ln.Unlock()
	visited = nil
	c.ForEachUsedLine(func(ln *Line) { visited = append(visited, ln) })
	if len(visited) != 2 {
		t.Fatalf("after re-mark visited %d lines, want 2", len(visited))
	}
}

func TestLineSlotsView(t *testing.T) {
	c := testCache()
	ln := c.Line(2)
	ln.Lock()
	ln.Slot(2 * c.PagesPerLine).Page = 2 * c.PagesPerLine
	view := ln.Slots()
	if len(view) != c.PagesPerLine || view[0].Page != 2*c.PagesPerLine {
		t.Fatalf("LineSlots view wrong: %+v", view[0])
	}
	ln.Unlock()
}

func TestWBClearAndTake(t *testing.T) {
	c := New(0, 4096, 8, 2, 64)
	for i := 0; i < 5; i++ {
		c.WBPush(i)
	}
	if got := c.WBTake(2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("WBTake(2) = %v, want [0 1]", got)
	}
	if got := c.WBLen(); got != 3 {
		t.Fatalf("len after take = %d, want 3", got)
	}
	if got := c.WBTake(10); len(got) != 3 || got[0] != 2 {
		t.Fatalf("WBTake(10) = %v, want [2 3 4]", got)
	}
	if c.WBTake(1) != nil {
		t.Fatal("WBTake on empty buffer returned entries")
	}
	for i := 10; i < 14; i++ {
		c.WBPush(i)
	}
	if got := c.WBClear(); got != 4 {
		t.Fatalf("WBClear = %d, want 4", got)
	}
	if c.WBLen() != 0 {
		t.Fatal("buffer not empty after WBClear")
	}
	// The cleared buffer keeps working FIFO.
	c.WBPush(42)
	if got := c.WBTake(1); len(got) != 1 || got[0] != 42 {
		t.Fatalf("push after clear: WBTake = %v, want [42]", got)
	}
}

func TestUsedLinesSnapshotAndRetire(t *testing.T) {
	c := New(0, 4096, 8, 2, 64)
	for _, l := range []int{3, 1} {
		ln := c.Line(l)
		ln.Lock()
		s := &ln.Slots()[0]
		s.Page = l * c.PagesPerLine
		s.St = Clean
		c.MarkLineUsed(ln)
		ln.Unlock()
	}
	l1, l3 := c.Line(1), c.Line(3)
	if got := c.UsedLines(); len(got) != 2 || got[0] != l3 || got[1] != l1 {
		t.Fatalf("UsedLines = %v, want [line 3, line 1] (first-use order)", got)
	}
	// Retire line 3 after emptying it; the snapshot compacts.
	l3.Lock()
	l3.Slots()[0].Invalidate()
	c.RetireLineIfEmpty(l3)
	l3.Unlock()
	c.CompactUsedList()
	if got := c.UsedLines(); len(got) != 1 || got[0] != l1 {
		t.Fatalf("UsedLines after retire = %v, want [line 1]", got)
	}
	// A non-empty line does not retire.
	l1.Lock()
	c.RetireLineIfEmpty(l1)
	l1.Unlock()
	c.CompactUsedList()
	if got := c.UsedLines(); len(got) != 1 {
		t.Fatalf("occupied line retired: %v", got)
	}
}
