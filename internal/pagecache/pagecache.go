// Package pagecache implements the ccPFS client cache of §IV-A: data is
// divided into pages (4 KB by default) drawn from a fixed memory pool
// (modelling the pre-registered RDMA page pool of the prototype), and
// each page keeps an extent list recording which byte ranges hold valid
// data and under which lock sequence number they were written. Written
// data with a larger SN overwrites smaller ones on insert, which is what
// keeps the cache coherent when early grant lets conflicting writes from
// the same client overlap in flight.
//
// The pool is a per-cache free list of pages. Pages dropped by
// invalidation (lock release or cancel) and by reclaim go back on it
// with their old bytes, and writes and fills draw from it before they
// allocate. Reuse is safe because no page buffer escapes its stripe
// lock: Read and CollectDirty copy bytes out, and every read of a
// buffer is bounded by the page's valid list, which starts empty on a
// recycled page. Every dirty byte is also valid, with an SN no newer
// than its valid one (Redirty re-dirties only such bytes), so
// invalidation drops dirty bytes along with their valid ones and a
// flush never carries a previous owner's bytes either.
//
// Concurrency: stripes are sharded (shard.Of) and each stripe carries
// its own mutex guarding its page map and page contents, so IO on
// different stripes never contends. The global dirty/cached/page
// accounting is atomic; the MaxDirty backpressure of §IV-C1 runs
// through a separate flow-control gate (flowMu + cond) that admits
// writers by reservation, preserving the strict dirty-bytes bound
// without serializing the data path. See DESIGN.md §6.
package pagecache

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ccpfs/internal/extent"
	"ccpfs/internal/shard"
	"ccpfs/internal/sim"
)

// DefaultPageSize matches the paper's 4 KB management unit.
const DefaultPageSize = 4096

// Block is an SN-tagged data block collected for flushing or filled by a
// read.
type Block struct {
	Range extent.Extent
	SN    extent.SN
	Data  []byte
}

// Config sizes a cache.
type Config struct {
	// PageSize is the page granularity (DefaultPageSize when 0).
	PageSize int64
	// PoolBytes bounds total cached bytes (dirty + clean). Clean pages
	// are reclaimed to the pool when the bound is exceeded; writers
	// block when dirty data alone exceeds it. Zero means unbounded.
	PoolBytes int64
	// MinDirty is the dirty-bytes threshold at which the voluntary flush
	// daemon should start flushing (256 MB in the paper).
	MinDirty int64
	// MaxDirty is the dirty-bytes threshold at which writers block until
	// flushing frees space (4 GB in the paper). Zero means unbounded.
	MaxDirty int64
	// CacheBandwidth, when set, charges simulated memory-copy time
	// (bytes/second) for every write into the cache — the cache-speed
	// bound the paper's N-N results converge to. Zero disables it.
	CacheBandwidth float64
}

type page struct {
	buf   []byte
	valid extent.List // page-relative ranges holding cached data
	dirty extent.List // subset not yet flushed

	// cachedBytes/dirtyBytes mirror the lists' total lengths so global
	// accounting updates are O(touched pages), not O(all pages).
	cachedBytes int64
	dirtyBytes  int64
}

// stripePages is one stripe's pages plus the mutex guarding them.
type stripePages struct {
	mu    sync.Mutex
	pages map[int64]*page // keyed by page index
}

// pcShard holds the stripe map of one shard; the shard mutex guards
// only map lookup/insert.
type pcShard struct {
	mu      sync.RWMutex
	stripes map[uint64]*stripePages
}

// Cache is one client's page cache across all stripes it touches.
// Ranges are stripe-local byte offsets keyed by lock resource.
type Cache struct {
	cfg Config
	clk sim.Clock
	mem sim.Device // serializes simulated cache-copy time

	shards [shard.Count]pcShard

	dirty  atomic.Int64
	cached atomic.Int64
	pages  atomic.Int64 // allocated page count, drives pool reclaim

	// free holds pages dropped by invalidate and reclaim; write draws
	// from it before allocating (see the package comment).
	free sync.Pool

	// Flow control for the MaxDirty bound: writers reserve their byte
	// count under flowMu before touching any stripe, and flushes signal
	// the cond when dirty bytes drop. pending counts admitted-but-not-
	// yet-accounted reservations so concurrent writers cannot overshoot.
	flowMu   sync.Mutex
	flowCond *sync.Cond
	pending  int64
}

// New returns a cache with cfg.
func New(cfg Config) *Cache {
	if cfg.PageSize <= 0 {
		cfg.PageSize = DefaultPageSize
	}
	c := &Cache{cfg: cfg}
	for i := range c.shards {
		c.shards[i].stripes = make(map[uint64]*stripePages)
	}
	c.flowCond = sync.NewCond(&c.flowMu)
	return c
}

// SetClock moves the cache onto clk: simulated copy time is charged on
// it and the MaxDirty admission gate parks virtually instead of blocking
// a real condition variable (which would wedge a virtual run — the
// flusher could never be scheduled to drain). Call before first use.
func (c *Cache) SetClock(clk sim.Clock) {
	c.clk = clk
	c.mem.SetClock(clk)
}

// PageSize returns the configured page size.
func (c *Cache) PageSize() int64 { return c.cfg.PageSize }

// DirtyBytes returns the current dirty byte count.
func (c *Cache) DirtyBytes() int64 { return c.dirty.Load() }

// CachedBytes returns the total valid bytes cached (dirty + clean).
func (c *Cache) CachedBytes() int64 { return c.cached.Load() }

// NeedsFlush reports whether dirty data has crossed the voluntary-flush
// threshold.
func (c *Cache) NeedsFlush() bool {
	if c.cfg.MinDirty <= 0 {
		return false
	}
	return c.DirtyBytes() >= c.cfg.MinDirty
}

// stripe returns stripe id's page set, creating it if needed. Stripes
// are never removed from the shard map (invalidate empties them in
// place), so the pointer stays valid without the shard lock.
func (c *Cache) stripe(id uint64) *stripePages {
	sh := &c.shards[shard.Of(id)]
	sh.mu.RLock()
	sp := sh.stripes[id]
	sh.mu.RUnlock()
	if sp != nil {
		return sp
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sp = sh.stripes[id]; sp == nil {
		sp = &stripePages{pages: make(map[int64]*page)}
		sh.stripes[id] = sp
	}
	return sp
}

// lookup returns stripe id's page set without creating it.
func (c *Cache) lookup(id uint64) *stripePages {
	sh := &c.shards[shard.Of(id)]
	sh.mu.RLock()
	sp := sh.stripes[id]
	sh.mu.RUnlock()
	return sp
}

// signalFlow wakes writers blocked on the MaxDirty gate after dirty
// bytes (or a reservation) decreased.
func (c *Cache) signalFlow() {
	if c.cfg.MaxDirty <= 0 {
		return
	}
	c.flowMu.Lock()
	c.flowCond.Broadcast()
	c.flowMu.Unlock()
	c.clk.Wakeup(c.flowCond)
}

// Write copies data into the cache at off within stripe, tagged with sn.
// It blocks while dirty bytes exceed MaxDirty (the forced-flush
// backpressure of §IV-C1); the flush daemon is responsible for draining.
func (c *Cache) Write(stripe uint64, off int64, data []byte, sn extent.SN) {
	if len(data) == 0 {
		return
	}
	c.mem.UseBytes(int64(len(data)), c.cfg.CacheBandwidth, 0)
	need := int64(len(data))
	if c.cfg.MaxDirty > 0 {
		// Admission by reservation: dirty + admitted reservations must
		// stay under the bound, so racing writers on different stripes
		// cannot collectively overshoot it.
		c.flowMu.Lock()
		for c.dirty.Load()+c.pending+need > c.cfg.MaxDirty {
			if v := c.clk.V(); v != nil {
				// Park on the virtual clock instead of the cond: a cond
				// wait would hold the scheduler token and the flusher
				// could never run to drain. WakeExited means the run is
				// over — admit and let teardown proceed.
				c.flowMu.Unlock()
				exited := v.WaitOn(c.flowCond) == sim.WakeExited
				c.flowMu.Lock()
				if exited {
					break
				}
				continue
			}
			c.flowCond.Wait()
		}
		c.pending += need
		c.flowMu.Unlock()
	}
	sp := c.stripe(stripe)
	sp.mu.Lock()
	c.write(sp, off, data, sn, true)
	sp.mu.Unlock()
	if c.cfg.MaxDirty > 0 {
		c.flowMu.Lock()
		c.pending -= need
		// The actual dirty delta may be smaller than the reservation
		// (overwrites), so releasing it can free admission space.
		c.flowCond.Broadcast()
		c.flowMu.Unlock()
		c.clk.Wakeup(c.flowCond)
	}
}

// Fill inserts clean data read from a data server, tagged with the SN
// the server reported for it. Filled bytes lose ties: cached data with
// an equal or newer SN (in particular, unflushed dirty data) is at least
// as new as the server's copy and must never be replaced by it.
func (c *Cache) Fill(stripe uint64, off int64, data []byte, sn extent.SN) {
	if len(data) == 0 {
		return
	}
	sp := c.stripe(stripe)
	sp.mu.Lock()
	c.write(sp, off, data, sn, false)
	sp.mu.Unlock()
	c.reclaim()
}

// write lands data into sp's pages; the caller holds sp.mu.
func (c *Cache) write(sp *stripePages, off int64, data []byte, sn extent.SN, markDirty bool) {
	ps := c.cfg.PageSize
	for len(data) > 0 {
		pi := off / ps
		po := off % ps
		n := int64(len(data))
		if n > ps-po {
			n = ps - po
		}
		pg := sp.pages[pi]
		if pg == nil {
			pg = c.newPage()
			sp.pages[pi] = pg
			c.pages.Add(1)
		}
		rng := extent.Extent{Start: po, End: po + n}
		// The SN-overwrite rule: only the sub-ranges where sn wins
		// actually replace cached bytes. Local writes win ties (the
		// holder's operations are locally ordered); clean fills lose
		// them (the cached copy is at least as new as the server's).
		var won []extent.SNExtent
		if markDirty {
			won = pg.valid.Insert(rng, sn)
		} else {
			won = pg.valid.InsertNewer(rng, sn)
		}
		for _, w := range won {
			copy(pg.buf[w.Start:w.End], data[w.Start-po:w.End-po])
		}
		if markDirty {
			for _, w := range won {
				pg.dirty.Insert(w.Extent, w.SN)
			}
		}
		c.refreshPage(pg)
		data = data[n:]
		off += n
	}
}

// refreshPage recomputes one page's byte counts from its extent lists
// (a handful of entries) and applies the delta to the atomic cache
// totals. Every mutation of a page's lists must be followed by a call;
// the caller holds the stripe mutex.
func (c *Cache) refreshPage(pg *page) {
	var dirty, cached int64
	for _, e := range pg.dirty.Entries() {
		dirty += e.Len()
	}
	for _, e := range pg.valid.Entries() {
		cached += e.Len()
	}
	c.dirty.Add(dirty - pg.dirtyBytes)
	c.cached.Add(cached - pg.cachedBytes)
	pg.dirtyBytes, pg.cachedBytes = dirty, cached
}

// Read copies cached data overlapping [off, off+len(buf)) into buf and
// returns the stripe-local ranges that were satisfied from cache.
func (c *Cache) Read(stripe uint64, off int64, buf []byte) []extent.Extent {
	sp := c.lookup(stripe)
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	ps := c.cfg.PageSize
	var got []extent.Extent
	want := extent.Span(off, int64(len(buf)))
	for pi := want.Start / ps; pi*ps < want.End; pi++ {
		pg := sp.pages[pi]
		if pg == nil {
			continue
		}
		pageRng := extent.Extent{Start: pi * ps, End: (pi + 1) * ps}
		iv, ok := pageRng.Intersect(want)
		if !ok {
			continue
		}
		local := extent.Extent{Start: iv.Start - pi*ps, End: iv.End - pi*ps}
		for _, e := range pg.valid.Overlapping(local) {
			abs := extent.Extent{Start: e.Start + pi*ps, End: e.End + pi*ps}
			copy(buf[abs.Start-off:abs.End-off], pg.buf[e.Start:e.End])
			got = append(got, abs)
		}
	}
	return got
}

// Covered reports whether [off, off+n) is fully cached.
func (c *Cache) Covered(stripe uint64, off, n int64) bool {
	sp := c.lookup(stripe)
	if sp == nil {
		return false
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	ps := c.cfg.PageSize
	want := extent.Span(off, n)
	for pi := want.Start / ps; pi*ps < want.End; pi++ {
		pg := sp.pages[pi]
		if pg == nil {
			return false
		}
		pageRng := extent.Extent{Start: pi * ps, End: (pi + 1) * ps}
		iv, _ := pageRng.Intersect(want)
		local := extent.Extent{Start: iv.Start - pi*ps, End: iv.End - pi*ps}
		if !pg.valid.Covered(local) {
			return false
		}
	}
	return true
}

// CollectDirty removes and returns the dirty blocks of stripe within rng
// whose SN is at most maxSN, as maximal same-SN contiguous runs in
// ascending order, ready for a flush RPC. The data is copied; a
// concurrent write re-dirties its range and will be flushed again later.
//
// It walks the pages twice under the stripe lock: the first walk sizes
// the runs, the second copies every byte once into its run's buffer,
// which is allocated at the run's exact length in between.
func (c *Cache) CollectDirty(stripe uint64, rng extent.Extent, maxSN extent.SN) []Block {
	sp := c.lookup(stripe)
	if sp == nil {
		return nil
	}
	ps := c.cfg.PageSize
	sp.mu.Lock()
	var blocks []Block
	c.pagesIn(sp, rng, func(pi int64, pg *page, local extent.Extent) {
		for _, e := range pg.dirty.Entries() {
			iv, ok := e.Intersect(local)
			if !ok || e.SN > maxSN {
				continue
			}
			abs := extent.Extent{Start: iv.Start + pi*ps, End: iv.End + pi*ps}
			if n := len(blocks); n > 0 && blocks[n-1].SN == e.SN && blocks[n-1].Range.End == abs.Start {
				blocks[n-1].Range.End = abs.End
				continue
			}
			blocks = append(blocks, Block{Range: abs, SN: e.SN})
		}
	})
	for i := range blocks {
		blocks[i].Data = make([]byte, blocks[i].Range.Len())
	}
	bi := 0
	c.pagesIn(sp, rng, func(pi int64, pg *page, local extent.Extent) {
		took := false
		for _, e := range pg.dirty.Entries() {
			iv, ok := e.Intersect(local)
			if !ok || e.SN > maxSN {
				continue
			}
			start := iv.Start + pi*ps
			for blocks[bi].Range.End <= start {
				bi++
			}
			b := &blocks[bi]
			copy(b.Data[start-b.Range.Start:], pg.buf[iv.Start:iv.End])
			took = true
		}
		if took {
			pg.dirty.RemoveLE(local, maxSN)
			c.refreshPage(pg)
		}
	})
	sp.mu.Unlock()
	c.signalFlow()
	return blocks
}

// pagesIn calls fn for each of sp's pages that intersects rng, in
// ascending page order, with the page-relative part of rng. It probes
// the page map index by index when rng spans fewer pages than the map
// holds, and sorts the map's matching keys otherwise. The caller holds
// sp.mu; fn must not add or delete pages.
func (c *Cache) pagesIn(sp *stripePages, rng extent.Extent, fn func(pi int64, pg *page, local extent.Extent)) {
	if rng.Empty() {
		return
	}
	ps := c.cfg.PageSize
	first, last := rng.Start/ps, (rng.End-1)/ps
	visit := func(pi int64, pg *page) {
		iv, _ := extent.Extent{Start: pi * ps, End: (pi + 1) * ps}.Intersect(rng)
		fn(pi, pg, extent.Extent{Start: iv.Start - pi*ps, End: iv.End - pi*ps})
	}
	if last-first < int64(len(sp.pages)) {
		for pi := first; pi <= last; pi++ {
			if pg := sp.pages[pi]; pg != nil {
				visit(pi, pg)
			}
		}
		return
	}
	idx := make([]int64, 0, len(sp.pages))
	for pi := range sp.pages {
		if pi >= first && pi <= last {
			idx = append(idx, pi)
		}
	}
	slices.Sort(idx)
	for _, pi := range idx {
		visit(pi, sp.pages[pi])
	}
}

// Redirty reinstates blocks whose flush failed.
func (c *Cache) Redirty(stripe uint64, blocks []Block) {
	sp := c.stripe(stripe)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	ps := c.cfg.PageSize
	for _, b := range blocks {
		off := b.Range.Start
		data := b.Data
		for len(data) > 0 {
			pi := off / ps
			po := off % ps
			n := int64(len(data))
			if n > ps-po {
				n = ps - po
			}
			if pg := sp.pages[pi]; pg != nil {
				// Re-dirty only bytes still valid at the block's SN or
				// newer. Others were dropped since the collect (their
				// page may since have been recycled) or refilled with
				// older data, so the buffer no longer holds the block.
				rng := extent.Extent{Start: po, End: po + n}
				for _, v := range pg.valid.Overlapping(rng) {
					if v.SN >= b.SN {
						pg.dirty.Insert(v.Extent, b.SN)
					}
				}
				c.refreshPage(pg)
			}
			data = data[n:]
			off += n
		}
	}
}

// Invalidate drops cached data (clean and dirty) of stripe within rng.
// It is called when a lock is released: without the lock, cached copies
// may go stale the moment another client writes.
func (c *Cache) Invalidate(stripe uint64, rng extent.Extent) {
	c.invalidate(stripe, rng, ^extent.SN(0))
}

// InvalidateUpTo drops cached data of stripe within rng whose SN is at
// most sn. Cancel paths use it so that data written under a NEWER lock
// of the same client — whose (expanded) range can overlap the canceling
// lock's — keeps its cache protection.
func (c *Cache) InvalidateUpTo(stripe uint64, rng extent.Extent, sn extent.SN) {
	c.invalidate(stripe, rng, sn)
}

func (c *Cache) invalidate(stripe uint64, rng extent.Extent, sn extent.SN) {
	sp := c.lookup(stripe)
	if sp == nil {
		return
	}
	sp.mu.Lock()
	ps := c.cfg.PageSize
	for pi, pg := range sp.pages {
		pageAbs := extent.Extent{Start: pi * ps, End: (pi + 1) * ps}
		iv, ok := pageAbs.Intersect(rng)
		if !ok {
			continue
		}
		local := extent.Extent{Start: iv.Start - pi*ps, End: iv.End - pi*ps}
		pg.valid.RemoveLE(local, sn)
		pg.dirty.RemoveLE(local, sn)
		c.refreshPage(pg)
		if pg.valid.Len() == 0 {
			c.dropPage(sp, pi, pg)
		}
	}
	sp.mu.Unlock()
	c.signalFlow()
}

// DirtyStripes returns the stripes currently holding dirty data.
func (c *Cache) DirtyStripes() []uint64 {
	var out []uint64
	c.forEachStripe(func(id uint64, sp *stripePages) {
		sp.mu.Lock()
		for _, pg := range sp.pages {
			if pg.dirty.Len() > 0 {
				out = append(out, id)
				break
			}
		}
		sp.mu.Unlock()
	})
	return out
}

// forEachStripe visits every stripe. It snapshots each shard under the
// shard read lock and visits without it, so fn may lock the stripe.
func (c *Cache) forEachStripe(fn func(id uint64, sp *stripePages)) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		ids := make([]uint64, 0, len(sh.stripes))
		sps := make([]*stripePages, 0, len(sh.stripes))
		for id, sp := range sh.stripes {
			ids = append(ids, id)
			sps = append(sps, sp)
		}
		sh.mu.RUnlock()
		for j, sp := range sps {
			fn(ids[j], sp)
		}
	}
}

// reclaim evicts clean pages when the pool bound is exceeded, modelling
// the prototype's reclamation of cached pages back to the registered
// memory pool. It locks one stripe at a time.
func (c *Cache) reclaim() {
	if c.cfg.PoolBytes <= 0 {
		return
	}
	if c.pages.Load()*c.cfg.PageSize <= c.cfg.PoolBytes {
		return
	}
	done := false
	c.forEachStripe(func(_ uint64, sp *stripePages) {
		if done {
			return
		}
		sp.mu.Lock()
		for pi, pg := range sp.pages {
			if pg.dirty.Len() > 0 {
				continue
			}
			if c.dropPage(sp, pi, pg)*c.cfg.PageSize <= c.cfg.PoolBytes {
				done = true
				break
			}
		}
		sp.mu.Unlock()
	})
}

// newPage returns an empty page, recycled from the free list when one
// is there.
func (c *Cache) newPage() *page {
	if pg, ok := c.free.Get().(*page); ok {
		return pg
	}
	return &page{buf: make([]byte, c.cfg.PageSize)}
}

// dropPage removes page pi from sp, empties it and puts it on the free
// list, returning the number of pages left in the cache. The caller
// holds sp.mu. The buffer keeps its old bytes: the next owner's empty
// valid list marks all of them as absent.
func (c *Cache) dropPage(sp *stripePages, pi int64, pg *page) int64 {
	pg.valid.Reset()
	pg.dirty.Reset()
	c.refreshPage(pg)
	delete(sp.pages, pi)
	c.free.Put(pg)
	return c.pages.Add(-1)
}

// String summarizes the cache for debugging.
func (c *Cache) String() string {
	return fmt.Sprintf("pagecache{pages=%d dirty=%dB cached=%dB}",
		c.pages.Load(), c.dirty.Load(), c.cached.Load())
}
