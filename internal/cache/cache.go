// Package cache implements Argo's per-node page cache: a direct-mapped
// cache of remote pages shared by all threads of a node, organized in
// "cache lines" of several consecutive pages (fetching a whole line is the
// paper's prefetching mechanism), plus the FIFO write buffer that drains
// dirty pages to their homes between synchronization points.
//
// The cache is a passive container: the coherence layer (package coherence)
// drives all protocol decisions. Locking is per line; callers lock a line,
// inspect and mutate its slots, and unlock. The write buffer only records
// page numbers — writebacks themselves are performed by the coherence layer
// so that it can choose diff vs full-page transmission.
package cache

import (
	"fmt"
	"sync"

	"argo/internal/sim"
)

// State is the local state of a cached page.
type State uint8

const (
	// Invalid: the slot holds no page (or a dropped one).
	Invalid State = iota
	// Clean: the page matches what was fetched; reads hit, a write is a
	// write miss (twin creation + writer registration).
	Clean
	// Dirty: the page has local writes not yet downgraded to its home.
	Dirty
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Clean:
		return "C"
	case Dirty:
		return "D"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Slot holds one cached page. Access only while holding the line lock.
type Slot struct {
	Page int // global page number, or -1
	St   State
	// Published records that FillTLB has handed the Data buffer to some
	// thread's TLB, so lock-free fast-path accesses may touch it from now
	// on. It is set under the line lock, cleared only when EnsureData
	// allocates a fresh buffer, and sticks with the buffer through
	// Invalidate, Reset and same-page refills. Refills of a buffer that was
	// never published need no word-atomic stores (see tlb.go, pillar 2).
	// It sits in St's padding, so Slot stays 88 bytes on 64-bit hosts.
	Published bool
	Data      []byte   // page content (lazily allocated)
	Twin      []byte   // pristine copy for diffing; non-nil only while Dirty
	ReadyAt   sim.Time // virtual time at which the content became available
	WBTries   int      // writeback attempts lost so far (Corvus fault identity)

	// DataPage is the page whose bytes the Data buffer holds. It survives
	// Invalidate (which keeps Data) so a conflict refill can tell whether it
	// may refill in place or must allocate a fresh buffer: a Lynx fast-path
	// reader validating a stale TLB entry may still issue speculative loads
	// into the old buffer, so its bytes must never be rebound to a
	// different page (see tlb.go).
	DataPage int
}

// Cache is one node's page cache.
type Cache struct {
	Node         int
	PageSize     int
	Lines        int
	PagesPerLine int

	// MX, when non-nil, receives hit/miss/eviction counts and the
	// write-buffer drain distribution (package metrics). The coherence
	// layer, which drives all cache transitions, does most of the
	// recording; hot paths pay a nil check.
	MX *Probes

	lineLocks []sync.Mutex
	lineSync  []LineSync // per-line seqlock state for the Lynx fast path
	slots     []Slot     // Lines * PagesPerLine

	// FetchGate serializes page fetches of this node in virtual time,
	// modeling the prototype's MPI limitation that only one thread can use
	// the interconnect at a time.
	FetchGate sim.Resource

	wbMu  sync.Mutex
	wbCap int
	wbQ   []int // FIFO of page numbers; may contain stale entries

	// Occupied-line tracking: fences sweep only lines that ever held a
	// page since the last sweep found them empty. usedSet is guarded by
	// usedMu; the lock order is line lock → usedMu.
	usedMu   sync.Mutex
	usedSet  []bool
	usedList []int

	// Spare twins: DropTwin returns a dropped twin here and EnsureTwin
	// reuses it, so write misses stop allocating once the node has reached
	// its peak number of simultaneously dirty pages. Guarded by its own
	// mutex because slots of different lines twin and drop concurrently.
	// A plain list, not a sync.Pool: the runtime's pool registry would keep
	// the whole Cache reachable for two GC cycles after its cluster dies.
	twinMu     sync.Mutex
	spareTwins [][]byte
}

// New creates a cache of lines cache lines of pagesPerLine consecutive
// pages each, with a write buffer of wbCapacity pages.
func New(node, pageSize, lines, pagesPerLine, wbCapacity int) *Cache {
	if lines <= 0 || pagesPerLine <= 0 {
		panic(fmt.Sprintf("cache: invalid geometry lines=%d pagesPerLine=%d", lines, pagesPerLine))
	}
	if wbCapacity <= 0 {
		wbCapacity = 1
	}
	c := &Cache{
		Node:         node,
		PageSize:     pageSize,
		Lines:        lines,
		PagesPerLine: pagesPerLine,
		lineLocks:    make([]sync.Mutex, lines),
		lineSync:     make([]LineSync, lines),
		slots:        make([]Slot, lines*pagesPerLine),
		wbCap:        wbCapacity,
	}
	for i := range c.slots {
		c.slots[i].Page = -1
		c.slots[i].DataPage = -1
	}
	c.usedSet = make([]bool, lines)
	return c
}

// MarkLineUsed records that line l holds at least one page; the caller must
// hold l's line lock.
func (c *Cache) MarkLineUsed(l int) {
	if c.usedSet[l] { // stable while the line lock is held
		return
	}
	c.usedMu.Lock()
	if !c.usedSet[l] {
		c.usedSet[l] = true
		c.usedList = append(c.usedList, l)
	}
	c.usedMu.Unlock()
}

// ForEachUsedLine runs fn for every occupied line with that line's lock
// held, and retires lines the sweep leaves empty. Fences use this instead
// of ForEachLine so their cost scales with the resident set, not with the
// cache geometry.
func (c *Cache) ForEachUsedLine(fn func(l int, slots []*Slot)) {
	for _, l := range c.UsedLines() {
		c.lineLocks[l].Lock()
		fn(l, c.SlotsOfLine(l))
		c.RetireLineIfEmpty(l)
		c.lineLocks[l].Unlock()
	}
	c.CompactUsedList()
}

// UsedLines returns a snapshot of the occupied line indices in first-use
// order. Parallel fence sweeps shard it across workers and lock each line
// themselves.
func (c *Cache) UsedLines() []int {
	c.usedMu.Lock()
	out := append([]int(nil), c.usedList...)
	c.usedMu.Unlock()
	return out
}

// RetireLineIfEmpty clears line l's used flag if no slot holds a valid page.
// The caller must hold l's line lock (lock order: line lock → usedMu).
func (c *Cache) RetireLineIfEmpty(l int) {
	for i := 0; i < c.PagesPerLine; i++ {
		s := &c.slots[l*c.PagesPerLine+i]
		if s.Page >= 0 && s.St != Invalid {
			return
		}
	}
	c.usedMu.Lock()
	c.usedSet[l] = false
	c.usedMu.Unlock()
}

// CompactUsedList drops retired lines from the used list after a sweep:
// entries whose flag is still set are kept (including lines refilled
// concurrently; rare duplicates are harmless).
func (c *Cache) CompactUsedList() {
	c.usedMu.Lock()
	kept := c.usedList[:0]
	for _, l := range c.usedList {
		if c.usedSet[l] {
			kept = append(kept, l)
		}
	}
	c.usedList = kept
	c.usedMu.Unlock()
}

// LineOf returns the cache line index page maps to: consecutive pages share
// a line (line base = page rounded down to a multiple of PagesPerLine), and
// lines are direct-mapped.
func (c *Cache) LineOf(page int) int {
	return (page / c.PagesPerLine) % c.Lines
}

// LineBase returns the first page of the aligned line containing page.
func (c *Cache) LineBase(page int) int {
	return page - page%c.PagesPerLine
}

// LockLine acquires the lock of line l.
func (c *Cache) LockLine(l int) { c.lineLocks[l].Lock() }

// UnlockLine releases the lock of line l.
func (c *Cache) UnlockLine(l int) { c.lineLocks[l].Unlock() }

// SlotFor returns the slot that page maps to. The line lock must be held;
// the slot may currently hold a different page (conflict) or none.
func (c *Cache) SlotFor(page int) *Slot {
	l := c.LineOf(page)
	return &c.slots[l*c.PagesPerLine+page%c.PagesPerLine]
}

// LineSlots returns the slots of line l (the line lock must be held).
func (c *Cache) LineSlots(l int) []Slot {
	return c.slots[l*c.PagesPerLine : (l+1)*c.PagesPerLine]
}

// SlotsOfLine returns mutable pointers to the slots of line l.
func (c *Cache) SlotsOfLine(l int) []*Slot {
	out := make([]*Slot, c.PagesPerLine)
	for i := 0; i < c.PagesPerLine; i++ {
		out[i] = &c.slots[l*c.PagesPerLine+i]
	}
	return out
}

// EnsureData makes sure the slot has a data buffer, allocating lazily. A
// fresh buffer starts unpublished.
func (c *Cache) EnsureData(s *Slot) {
	if s.Data == nil {
		s.Data = make([]byte, c.PageSize)
		s.Published = false
	}
}

// EnsureTwin snapshots the slot's current data into its twin buffer, taking
// a spare twin before allocating a new one. The caller holds the line lock.
func (c *Cache) EnsureTwin(s *Slot) {
	if s.Twin == nil {
		c.twinMu.Lock()
		if k := len(c.spareTwins) - 1; k >= 0 {
			s.Twin = c.spareTwins[k]
			c.spareTwins[k] = nil
			c.spareTwins = c.spareTwins[:k]
		}
		c.twinMu.Unlock()
		if s.Twin == nil {
			s.Twin = make([]byte, c.PageSize)
		}
	}
	copy(s.Twin, s.Data)
}

// DropTwin releases the slot's twin (after a downgrade made the page clean)
// to the spare list for the next write miss. The caller holds the line lock.
func (c *Cache) DropTwin(s *Slot) {
	if s.Twin == nil {
		return
	}
	c.twinMu.Lock()
	c.spareTwins = append(c.spareTwins, s.Twin)
	c.twinMu.Unlock()
	s.Twin = nil
}

// Invalidate empties the slot.
func (s *Slot) Invalidate() {
	s.Page = -1
	s.St = Invalid
	s.Twin = nil
	s.WBTries = 0
}

// WBPush appends page to the write buffer FIFO. If the buffer exceeds its
// capacity, the oldest entry is popped and returned with evict=true; the
// caller must write that page back (if it is still dirty).
func (c *Cache) WBPush(page int) (victim int, evict bool) {
	c.wbMu.Lock()
	defer c.wbMu.Unlock()
	c.wbQ = append(c.wbQ, page)
	if len(c.wbQ) > c.wbCap {
		victim = c.wbQ[0]
		c.wbQ = c.wbQ[1:]
		return victim, true
	}
	return 0, false
}

// WBDrain empties the write buffer and returns its contents in FIFO order.
// Entries may be stale (the page was already written back by an eviction);
// the caller skips pages that are no longer dirty.
func (c *Cache) WBDrain() []int {
	c.wbMu.Lock()
	q := c.wbQ
	c.wbQ = nil
	c.wbMu.Unlock()
	if c.MX != nil {
		c.MX.WBDrainPages.Record(c.Node, int64(len(q)))
	}
	return q
}

// WBClear empties the write buffer without materializing its contents and
// returns how many (possibly stale) entries it held. SD fences use it: they
// sweep the cache directly, so they only need the queue reset and the
// drain-size metric, not a copy of the page numbers.
func (c *Cache) WBClear() int {
	c.wbMu.Lock()
	n := len(c.wbQ)
	c.wbQ = c.wbQ[:0]
	c.wbMu.Unlock()
	if c.MX != nil {
		c.MX.WBDrainPages.Record(c.Node, int64(n))
	}
	return n
}

// WBTake removes and returns up to max of the oldest write-buffer entries
// (FIFO order), or nil when the buffer is empty. The eager background
// drainer uses it to work in bounded batches without claiming the whole
// queue, so a concurrent fence still sees whatever the drainer has not
// reached.
func (c *Cache) WBTake(max int) []int {
	c.wbMu.Lock()
	defer c.wbMu.Unlock()
	if max <= 0 || len(c.wbQ) == 0 {
		return nil
	}
	if max > len(c.wbQ) {
		max = len(c.wbQ)
	}
	out := append([]int(nil), c.wbQ[:max]...)
	c.wbQ = c.wbQ[max:]
	return out
}

// WBLen returns the current number of (possibly stale) entries.
func (c *Cache) WBLen() int {
	c.wbMu.Lock()
	defer c.wbMu.Unlock()
	return len(c.wbQ)
}

// WBCapacity returns the configured write-buffer capacity in pages.
func (c *Cache) WBCapacity() int { return c.wbCap }

// ForEachLine runs fn for every line index with that line's lock held.
// Used by the fence sweeps.
func (c *Cache) ForEachLine(fn func(l int, slots []*Slot)) {
	for l := 0; l < c.Lines; l++ {
		c.lineLocks[l].Lock()
		fn(l, c.SlotsOfLine(l))
		c.lineLocks[l].Unlock()
	}
}

// Reset invalidates every slot and clears the write buffer (collective
// reinitialization between measurement phases, and Cygnus crash wipes).
func (c *Cache) Reset() {
	for l := 0; l < c.Lines; l++ {
		c.lineLocks[l].Lock()
		c.BumpLineGen(l)
		for i := 0; i < c.PagesPerLine; i++ {
			s := &c.slots[l*c.PagesPerLine+i]
			c.DropTwin(s)
			s.Invalidate()
			s.ReadyAt = 0
		}
		c.lineLocks[l].Unlock()
	}
	c.wbMu.Lock()
	c.wbQ = nil
	c.wbMu.Unlock()
	c.FetchGate.Reset()
}
