// Package directory implements Pyxis, Argo's passive classification
// directory. For every global page the home node keeps two full-maps — the
// readers and the writers of the page. There is no explicit page state and
// no message handler: requesting nodes deposit their ID with a remote atomic
// fetch-and-or (which returns both maps), infer the classification
// themselves, and, when they cause a classification transition
// (P→S, NW→SW, SW→MW), remotely update the *directory cache* of the one
// node (or set of reader nodes) that must eventually notice. The notified
// node observes the change passively, at its next synchronization point or
// its next request — deferred invalidation, valid under DRF semantics.
//
// In the simulator the home-truth entry and all per-node cached copies of it
// share one striped lock per page; the causing node updates the victim's
// cached copy inside the same critical section as its own registration,
// which yields exactly the ordering argument of the paper (the notification
// is visible before the notifier can issue any subsequent data operation).
package directory

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"argo/internal/chunk"
	"argo/internal/fabric"
	"argo/internal/sim"
)

// Entry is one directory entry: the readers and writers full-maps of a page.
type Entry struct {
	R Bitmap // nodes that fetched the page since the last reset
	W Bitmap // nodes that wrote the page since the last reset
}

// Classification is the page state a node infers from a directory entry.
// The directory itself never stores it (Pyxis is state-free).
type Classification int

const (
	// Unshared: nobody has registered (uninitialized page).
	Unshared Classification = iota
	// Private: exactly one reader node.
	Private
	// SharedNW: multiple readers, no writers.
	SharedNW
	// SharedSW: multiple readers, a single writer.
	SharedSW
	// SharedMW: multiple readers, multiple writers.
	SharedMW
)

func (c Classification) String() string {
	switch c {
	case Unshared:
		return "—"
	case Private:
		return "P"
	case SharedNW:
		return "S,NW"
	case SharedSW:
		return "S,SW"
	case SharedMW:
		return "S,MW"
	default:
		return fmt.Sprintf("Classification(%d)", int(c))
	}
}

// Classify derives the classification from an entry.
func (e Entry) Classify() Classification {
	switch {
	case e.R.Empty():
		return Unshared
	case e.R.Count() == 1:
		return Private
	case e.W.Empty():
		return SharedNW
	case e.W.Count() == 1:
		return SharedSW
	default:
		return SharedMW
	}
}

const stripeCount = 1024

// Directory is the Pyxis instance of one cluster: home-truth entries for
// every global page plus each node's passive directory cache. Both are
// full-map tables over all pages, materialized chunk by chunk as pages are
// registered (package chunk): an entry nobody registered is the zero Entry
// and costs nothing. Entries are read and written under their page's
// stripe lock; chunk materialization never takes a stripe lock.
type Directory struct {
	fab    *fabric.Fabric
	npages int
	homeOf func(page int) int

	stripes [stripeCount]sync.Mutex
	entries chunk.Table[Entry]   // home truth, indexed by global page
	caches  []chunk.Table[Entry] // [node][page] cached copies

	// Cygnus dead-node mask: bits of excised members, cleared lazily from
	// the full-maps at classification lookups instead of by an eager sweep
	// of every page. hasDead gates the hot paths with one atomic load;
	// dead itself is only read/written under a stripe lock (SetDead takes
	// all stripes, so any single stripe suffices for readers).
	hasDead atomic.Bool
	dead    Bitmap
}

// New creates a directory for npages pages whose homes are given by homeOf.
func New(fab *fabric.Fabric, npages int, homeOf func(int) int) *Directory {
	if fab.Topo.Nodes > MaxNodes {
		panic(fmt.Sprintf("directory: at most %d nodes supported, got %d", MaxNodes, fab.Topo.Nodes))
	}
	d := &Directory{
		fab:    fab,
		npages: npages,
		homeOf: homeOf,
		caches: make([]chunk.Table[Entry], fab.Topo.Nodes),
	}
	d.entries.Init(npages, nil)
	for n := range d.caches {
		d.caches[n].Init(npages, nil)
	}
	return d
}

func (d *Directory) lock(page int) *sync.Mutex { return &d.stripes[page%stripeCount] }

// RegisterReader deposits node's ID in page's readers map with one remote
// fetch-and-or, refreshes node's cached copy, and returns the entry as it
// was *before* the update — the caller detects transitions from it.
func (d *Directory) RegisterReader(p *sim.Proc, page, node int) Entry {
	d.fab.RemoteAtomic(p, d.homeOf(page), uint64(page))
	return d.registerReader(page, node)
}

// RegisterReaderBatched is RegisterReader without the network charge: when
// a line fetch registers several consecutive pages that share a home node,
// the registrations travel as one batched one-sided operation and only the
// first page of each home pays the round trip.
func (d *Directory) RegisterReaderBatched(page, node int) Entry {
	return d.registerReader(page, node)
}

// scrubLocked lazily clears excised nodes' bits from home-truth entry h.
// The caller must hold h's stripe lock. Returns the scrubbed entry.
// This is Cygnus's lazy full-map repair: dead bits rot in place and are
// erased the next time the page's classification is consulted, so excision
// costs nothing on pages nobody touches again.
func (d *Directory) scrubLocked(h *Entry) Entry {
	if d.hasDead.Load() {
		h.R.AndNot(d.dead)
		h.W.AndNot(d.dead)
	}
	return *h
}

func (d *Directory) registerReader(page, node int) Entry {
	mu := d.lock(page)
	mu.Lock()
	h := d.entries.At(page)
	old := d.scrubLocked(h)
	h.R.Set(node)
	*d.caches[node].At(page) = *h
	mu.Unlock()
	return old
}

// RegisterWriter deposits node's ID in page's writers map (and readers map,
// since a writer always holds a copy), refreshes node's cached copy, and
// returns the prior entry.
func (d *Directory) RegisterWriter(p *sim.Proc, page, node int) Entry {
	d.fab.RemoteAtomic(p, d.homeOf(page), uint64(page))
	mu := d.lock(page)
	mu.Lock()
	h := d.entries.At(page)
	old := d.scrubLocked(h)
	h.R.Set(node)
	h.W.Set(node)
	*d.caches[node].At(page) = *h
	mu.Unlock()
	return old
}

// Notify remotely updates target's cached copy of page's entry with the
// current home truth. This is the passive notification used for P→S, NW→SW
// and SW→MW transitions; it costs one small RDMA write.
func (d *Directory) Notify(p *sim.Proc, page, target int) {
	if target == p.Node {
		// Own cache was already refreshed by the registration.
		return
	}
	d.fab.RemoteWrite(p, target, 16, uint64(page))
	d.fab.NodeStats(p.Node).DirNotifies.Add(1)
	mu := d.lock(page)
	mu.Lock()
	*d.caches[target].At(page) = *d.entries.At(page)
	mu.Unlock()
}

// Cached returns node's current cached copy of page's entry. Reading the
// local directory cache costs nothing on the network. A page the node never
// learned about reads as the zero Entry and allocates nothing.
func (d *Directory) Cached(node, page int) Entry {
	mu := d.lock(page)
	mu.Lock()
	e := d.cachedLocked(node, page)
	mu.Unlock()
	return e
}

// cachedLocked is Cached with page's stripe lock held: it scrubs dead
// nodes' bits from a materialized copy in place.
func (d *Directory) cachedLocked(node, page int) Entry {
	c := d.caches[node].Peek(page)
	if c == nil {
		return Entry{}
	}
	if d.hasDead.Load() {
		c.R.AndNot(d.dead)
		c.W.AndNot(d.dead)
	}
	return *c
}

// CachedMany fills out[i] with node's cached entry of pages[i], taking each
// involved stripe lock once instead of once per page: the indices are sorted
// by stripe (stably, so the fill order is deterministic) and each stripe's
// pages are copied under one lock acquisition. Fence sweeps use it to batch
// their classification lookups. out must be at least len(pages) long;
// duplicate pages are allowed.
func (d *Directory) CachedMany(node int, pages []int, out []Entry) {
	k := len(pages)
	if k == 0 {
		return
	}
	if k <= 2 {
		for i, pg := range pages {
			out[i] = d.Cached(node, pg)
		}
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return pages[idx[a]]%stripeCount < pages[idx[b]]%stripeCount
	})
	for i := 0; i < k; {
		s := pages[idx[i]] % stripeCount
		mu := &d.stripes[s]
		mu.Lock()
		for i < k && pages[idx[i]]%stripeCount == s {
			out[idx[i]] = d.cachedLocked(node, pages[idx[i]])
			i++
		}
		mu.Unlock()
	}
}

// Home returns the home truth for page (tests and debug output).
func (d *Directory) Home(page int) Entry {
	mu := d.lock(page)
	mu.Lock()
	var e Entry
	if h := d.entries.Peek(page); h != nil {
		e = d.scrubLocked(h)
	}
	mu.Unlock()
	return e
}

// SetDead marks node as excised: its bits are scrubbed lazily from the
// full-maps at subsequent classification lookups. Takes every stripe so
// concurrent lookups see the mask change atomically.
func (d *Directory) SetDead(node int) {
	for i := 0; i < stripeCount; i++ {
		d.stripes[i].Lock()
	}
	d.dead.Set(node)
	d.hasDead.Store(true)
	for i := 0; i < stripeCount; i++ {
		d.stripes[i].Unlock()
	}
}

// ClearCache wipes node's passive directory cache — the volatile state a
// crashing node loses. A restarted node re-learns classifications through
// fresh registrations. Only materialized chunks are cleared (in place:
// chunks are never freed).
func (d *Directory) ClearCache(node int) {
	for i := 0; i < stripeCount; i++ {
		d.stripes[i].Lock()
	}
	d.caches[node].Range(clearEntries)
	for i := 0; i < stripeCount; i++ {
		d.stripes[i].Unlock()
	}
}

func clearEntries(_ int, es []Entry) { clear(es) }

// ClearDeadBit removes node from the dead-node mask (crash-restart: the
// node rejoins and its fresh registrations must survive scrubbing). Any
// stale bits of its pre-crash life that were already scrubbed stay gone;
// ones not yet scrubbed are DRF-harmless leftovers of the same node.
func (d *Directory) ClearDeadBit(node int) {
	for i := 0; i < stripeCount; i++ {
		d.stripes[i].Lock()
	}
	d.dead.Clear(node)
	d.hasDead.Store(!d.dead.Empty())
	for i := 0; i < stripeCount; i++ {
		d.stripes[i].Unlock()
	}
}

// ClearDead empties the dead-node mask (between seeded runs of one
// cluster, alongside health.Detector.Reset).
func (d *Directory) ClearDead() {
	for i := 0; i < stripeCount; i++ {
		d.stripes[i].Lock()
	}
	d.dead = Bitmap{}
	d.hasDead.Store(false)
	for i := 0; i < stripeCount; i++ {
		d.stripes[i].Unlock()
	}
}

// MaterializedChunks returns how many chunks of the home-truth table and
// of all directory caches have been allocated (tests and the
// cost-of-construction checks).
func (d *Directory) MaterializedChunks() int {
	n := d.entries.Materialized()
	for i := range d.caches {
		n += d.caches[i].Materialized()
	}
	return n
}

// NPages returns the number of pages tracked.
func (d *Directory) NPages() int { return d.npages }

// Reset clears every entry and every cached copy. The paper resets the
// full-maps at the end of the initialization phase so that initialization
// writes do not pollute the classification; the caller must have quiesced
// all simulated threads (a global barrier) first.
func (d *Directory) Reset() {
	for i := 0; i < stripeCount; i++ {
		d.stripes[i].Lock()
	}
	d.entries.Range(clearEntries)
	for n := range d.caches {
		d.caches[n].Range(clearEntries)
	}
	for i := 0; i < stripeCount; i++ {
		d.stripes[i].Unlock()
	}
}
