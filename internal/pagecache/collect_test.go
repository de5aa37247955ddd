package pagecache

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"ccpfs/internal/extent"
)

// wantRuns builds CollectDirty's expected result from the oracle: the
// dirty bytes of rng with SN at most maxSN, as maximal same-SN runs of
// adjacent bytes in ascending order.
func (o *oracle) wantRuns(rng extent.Extent, maxSN extent.SN) []Block {
	var out []Block
	for p := rng.Start; p < rng.End; p++ {
		dsn, ok := o.dirtySN[p]
		if !ok || dsn > maxSN {
			continue
		}
		if n := len(out); n > 0 && out[n-1].SN == dsn && out[n-1].Range.End == p {
			out[n-1].Range.End++
			out[n-1].Data = append(out[n-1].Data, o.val[p])
			continue
		}
		out = append(out, Block{Range: extent.New(p, p+1), SN: dsn, Data: []byte{o.val[p]}})
	}
	return out
}

// TestCollectDirtyMaximalRuns drives a multi-page stripe with random
// SN-tagged writes and partial invalidations, then checks every
// CollectDirty result block for block against the oracle's maximal
// same-SN runs, and that each block's buffer is exactly its length.
func TestCollectDirtyMaximalRuns(t *testing.T) {
	const ps = 64
	const space = 12 * ps
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		c := New(Config{PageSize: ps})
		o := newOracle()
		for step := 0; step < 80; step++ {
			off := r.Int63n(space - 1)
			n := r.Int63n(min64(5*ps, space-off)) + 1
			sn := extent.SN(r.Intn(5) + 1)
			switch r.Intn(4) {
			case 0, 1:
				data := make([]byte, n)
				r.Read(data)
				c.Write(1, off, data, sn)
				o.write(off, data, sn)
			case 2:
				e := extent.Span(off, n)
				c.InvalidateUpTo(1, e, sn)
				o.invalidate(e, sn)
			case 3:
				e := extent.Span(off, n)
				want := o.wantRuns(e, sn)
				got := c.CollectDirty(1, e, sn)
				o.collect(e, sn)
				if len(got) != len(want) {
					t.Fatalf("trial %d step %d: collected %d blocks, want %d", trial, step, len(got), len(want))
				}
				for i, b := range got {
					w := want[i]
					if b.Range != w.Range || b.SN != w.SN || !bytes.Equal(b.Data, w.Data) {
						t.Fatalf("trial %d step %d: block %d = %v sn %d, want %v sn %d (or bytes differ)",
							trial, step, i, b.Range, b.SN, w.Range, w.SN)
					}
					if int64(len(b.Data)) != b.Range.Len() || cap(b.Data) != len(b.Data) {
						t.Fatalf("trial %d step %d: block %d len %d cap %d, range %v",
							trial, step, i, len(b.Data), cap(b.Data), b.Range)
					}
				}
			}
		}
	}
}

// TestCollectDirtyAllocsPerStripe checks that collecting a 1 MiB stripe
// written under one SN allocates a constant number of buffers, not one
// per page. The collect's share is the difference between rewriting the
// stripe with and without collecting it.
func TestCollectDirtyAllocsPerStripe(t *testing.T) {
	const size = 1 << 20
	c := New(Config{PageSize: DefaultPageSize})
	data := make([]byte, size)
	all := extent.New(0, size)
	write := func() { c.Write(1, 0, data, 1) }
	write()
	writeOnly := testing.AllocsPerRun(10, write)
	var blocks []Block
	writeCollect := testing.AllocsPerRun(10, func() {
		write()
		blocks = c.CollectDirty(1, all, 1)
	})
	if len(blocks) != 1 || blocks[0].Range != all {
		t.Fatalf("collected %d blocks, want one covering %v", len(blocks), all)
	}
	if got := writeCollect - writeOnly; got > 8 {
		t.Fatalf("CollectDirty of %d pages allocates %.0f times, want a constant", size/DefaultPageSize, got)
	}
}

// TestRecycledPageHoldsNoStaleBytes writes stripe A, drops it so its
// pages return to the free list, then fills part of stripe B. B must
// expose only the filled bytes, whichever recycled buffers back it.
func TestRecycledPageHoldsNoStaleBytes(t *testing.T) {
	const ps = DefaultPageSize
	c := New(Config{PageSize: ps})
	stale := fill(4*ps, 0xAA)
	filled := []extent.Extent{extent.Span(100, 200), extent.Span(ps+50, ps), extent.Span(3*ps, 10)}
	reused := 0
	for round := 0; round < 50; round++ {
		c.Write(1, 0, stale, extent.SN(round+1))
		aBufs := map[*byte]bool{}
		for _, pg := range c.lookup(1).pages {
			aBufs[&pg.buf[0]] = true
		}
		c.Invalidate(1, extent.New(0, extent.Inf))
		for _, e := range filled {
			c.Fill(2, e.Start, fill(int(e.Len()), 0xBB), 1)
		}
		for _, pg := range c.lookup(2).pages {
			if aBufs[&pg.buf[0]] {
				reused++
			}
		}

		buf := make([]byte, 4*ps)
		// Read reports coverage page by page; compare it merged.
		if got := extent.NewSet(c.Read(2, 0, buf)...); !slices.Equal(got, extent.NewSet(filled...)) {
			t.Fatalf("round %d: read ranges %v, want %v", round, got, filled)
		}
		for p, b := range buf {
			in := false
			for _, e := range filled {
				in = in || e.ContainsOff(int64(p))
			}
			if in && b != 0xBB || !in && b != 0 {
				t.Fatalf("round %d: byte %d = %#x", round, p, b)
			}
		}
		if c.Covered(2, 0, 101) || c.Covered(2, 300, 1) || !c.Covered(2, 100, 200) {
			t.Fatalf("round %d: coverage does not match the filled ranges", round)
		}
		if blocks := c.CollectDirty(2, extent.New(0, extent.Inf), ^extent.SN(0)); len(blocks) != 0 {
			t.Fatalf("round %d: clean fills collected as dirty: %+v", round, blocks)
		}
		c.Write(2, ps-8, fill(16, 0xCC), 2)
		blocks := c.CollectDirty(2, extent.New(0, extent.Inf), 2)
		if len(blocks) != 1 || blocks[0].Range != extent.Span(ps-8, 16) || !bytes.Equal(blocks[0].Data, fill(16, 0xCC)) {
			t.Fatalf("round %d: collected %+v, want the 16 written bytes", round, blocks)
		}
		c.Invalidate(2, extent.New(0, extent.Inf))
	}
	if reused == 0 {
		t.Fatal("no page of stripe B reused a buffer dropped by stripe A")
	}
}

// TestRedirtySkipsReplacedBytes: a flush fails after the collected range
// was invalidated and refilled with older data. Redirty must not mark
// the refilled bytes dirty, since the buffer no longer holds the block.
func TestRedirtySkipsReplacedBytes(t *testing.T) {
	c := New(Config{PageSize: DefaultPageSize})
	c.Write(1, 0, fill(200, 7), 2)
	blocks := c.CollectDirty(1, extent.New(0, extent.Inf), 2)
	c.Invalidate(1, extent.New(0, extent.Inf))
	c.Fill(1, 0, fill(100, 1), 1)
	c.Redirty(1, blocks)
	if got := c.DirtyBytes(); got != 0 {
		t.Fatalf("dirty = %d after redirtying replaced bytes, want 0", got)
	}
}
