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

	"argo/internal/chunk"
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

// Line is one cache line: its lock, its seqlock state and its
// PagesPerLine slots. Lines live in chunks the cache allocates on first
// touch (package chunk); a Line never moves and is never freed while its
// cache lives, because TLB entries hold pointers to its Sync.
type Line struct {
	mu    sync.Mutex
	used  bool // guarded by Cache.usedMu (see MarkLineUsed)
	slots []Slot
	// Sync is the line's seqlock state for the Lynx fast path.
	Sync LineSync
}

// Lock acquires the line lock.
func (ln *Line) Lock() { ln.mu.Lock() }

// Unlock releases the line lock.
func (ln *Line) Unlock() { ln.mu.Unlock() }

// Slots returns the line's slots (the line lock must be held).
func (ln *Line) Slots() []Slot { return ln.slots }

// Slot returns the slot page maps to within this line, which must be the
// line page maps to (Cache.LineOf). The line lock must be held; the slot
// may currently hold a different page (conflict) or none.
func (ln *Line) Slot(page int) *Slot { return &ln.slots[page%len(ln.slots)] }

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

	// lines is materialized chunk by chunk as pages map to them; untouched
	// lines cost one nil chunk pointer per chunk.
	lines chunk.Table[Line]

	// FetchGate serializes page fetches of this node in virtual time,
	// modeling the prototype's MPI limitation that only one thread can use
	// the interconnect at a time.
	FetchGate sim.Resource

	wbMu  sync.Mutex
	wbCap int
	wbQ   []int // FIFO of page numbers; may contain stale entries

	// Occupied-line tracking: fences sweep only lines that ever held a
	// page since the last sweep found them empty. The per-line flag
	// (Line.used) and usedList are guarded by usedMu; the lock order is
	// line lock → usedMu.
	usedMu   sync.Mutex
	usedList []*Line

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
// pages each, with a write buffer of wbCapacity pages. No line is allocated
// until a page maps to it.
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
		wbCap:        wbCapacity,
	}
	c.lines.Init(lines, func(_ int, ls []Line) {
		slots := make([]Slot, len(ls)*pagesPerLine)
		for i := range slots {
			slots[i].Page = -1
			slots[i].DataPage = -1
		}
		for i := range ls {
			ls[i].slots = slots[i*pagesPerLine : (i+1)*pagesPerLine : (i+1)*pagesPerLine]
		}
	})
	return c
}

// Line returns line l, materializing its chunk on first touch. Hot paths
// look a line up once and then lock it, pick its slot and fill TLBs
// through the handle.
func (c *Cache) Line(l int) *Line { return c.lines.At(l) }

// MarkLineUsed records that line ln holds at least one page; the caller
// must hold ln's lock.
func (c *Cache) MarkLineUsed(ln *Line) {
	if ln.used { // stable while the line lock is held
		return
	}
	c.usedMu.Lock()
	if !ln.used {
		ln.used = true
		c.usedList = append(c.usedList, ln)
	}
	c.usedMu.Unlock()
}

// ForEachUsedLine runs fn for every occupied line with that line's lock
// held, and retires lines the sweep leaves empty. Fences use this instead
// of ForEachLine so their cost scales with the resident set, not with the
// cache geometry.
func (c *Cache) ForEachUsedLine(fn func(ln *Line)) {
	for _, ln := range c.UsedLines() {
		ln.mu.Lock()
		fn(ln)
		c.RetireLineIfEmpty(ln)
		ln.mu.Unlock()
	}
	c.CompactUsedList()
}

// UsedLines returns a snapshot of the occupied lines in first-use order.
// Parallel fence sweeps shard it across workers and lock each line
// themselves.
func (c *Cache) UsedLines() []*Line {
	c.usedMu.Lock()
	out := append([]*Line(nil), c.usedList...)
	c.usedMu.Unlock()
	return out
}

// RetireLineIfEmpty clears line ln's used flag if no slot holds a valid
// page. The caller must hold ln's lock (lock order: line lock → usedMu).
func (c *Cache) RetireLineIfEmpty(ln *Line) {
	for i := range ln.slots {
		if s := &ln.slots[i]; s.Page >= 0 && s.St != Invalid {
			return
		}
	}
	c.usedMu.Lock()
	ln.used = false
	c.usedMu.Unlock()
}

// CompactUsedList drops retired lines from the used list after a sweep:
// entries whose flag is still set are kept (including lines refilled
// concurrently; rare duplicates are harmless).
func (c *Cache) CompactUsedList() {
	c.usedMu.Lock()
	kept := c.usedList[:0]
	for _, ln := range c.usedList {
		if ln.used {
			kept = append(kept, ln)
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

func slotPtrs(slots []Slot) []*Slot {
	out := make([]*Slot, len(slots))
	for i := range slots {
		out[i] = &slots[i]
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

// ForEachLine runs fn for every materialized line with that line's lock
// held, in index order. Lines that were never materialized hold no page,
// so every resident slot is visited. Used by the invariant checks.
func (c *Cache) ForEachLine(fn func(l int, slots []*Slot)) {
	c.lines.Range(func(base int, ls []Line) {
		for i := range ls {
			ln := &ls[i]
			ln.mu.Lock()
			fn(base+i, slotPtrs(ln.slots))
			ln.mu.Unlock()
		}
	})
}

// Reset invalidates every slot and clears the write buffer (collective
// reinitialization between measurement phases, and Cygnus crash wipes).
// It walks the materialized lines only: a line that ever held a page was
// materialized, so every line a TLB entry may name gets its generation
// bumped, and an untouched line costs nothing.
func (c *Cache) Reset() {
	c.lines.Range(func(_ int, ls []Line) {
		for i := range ls {
			ln := &ls[i]
			ln.mu.Lock()
			ln.BumpGen()
			for j := range ln.slots {
				s := &ln.slots[j]
				c.DropTwin(s)
				s.Invalidate()
				s.ReadyAt = 0
			}
			ln.mu.Unlock()
		}
	})
	c.wbMu.Lock()
	c.wbQ = nil
	c.wbMu.Unlock()
	c.FetchGate.Reset()
}

// MaterializedChunks returns how many chunks of lines have been allocated
// (tests and the cost-of-construction checks).
func (c *Cache) MaterializedChunks() int { return c.lines.Materialized() }
