package extent

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExtentBasics(t *testing.T) {
	e := New(10, 30)
	if e.Len() != 20 {
		t.Fatalf("Len = %d, want 20", e.Len())
	}
	if e.Empty() {
		t.Fatal("non-empty extent reported empty")
	}
	if !e.ContainsOff(10) || e.ContainsOff(30) {
		t.Fatal("half-open containment wrong")
	}
	if !e.Contains(New(10, 30)) || !e.Contains(New(15, 20)) || e.Contains(New(5, 20)) {
		t.Fatal("Contains wrong")
	}
	if (Extent{0, 0}).Empty() != true {
		t.Fatal("empty extent not empty")
	}
}

func TestExtentSpan(t *testing.T) {
	e := Span(100, 50)
	if e.Start != 100 || e.End != 150 {
		t.Fatalf("Span = %v", e)
	}
}

func TestExtentNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(5, 3) did not panic")
		}
	}()
	New(5, 3)
}

func TestExtentOverlapAdjacent(t *testing.T) {
	a, b, c := New(0, 10), New(10, 20), New(5, 15)
	if a.Overlaps(b) {
		t.Fatal("adjacent extents reported overlapping")
	}
	if !a.Adjacent(b) || !b.Adjacent(a) {
		t.Fatal("adjacent not detected")
	}
	if !a.Overlaps(c) || !c.Overlaps(a) {
		t.Fatal("overlap not detected")
	}
}

func TestExtentIntersect(t *testing.T) {
	iv, ok := New(0, 10).Intersect(New(5, 15))
	if !ok || iv != New(5, 10) {
		t.Fatalf("Intersect = %v, %v", iv, ok)
	}
	if _, ok := New(0, 5).Intersect(New(5, 10)); ok {
		t.Fatal("adjacent extents intersected")
	}
}

func TestExtentInfLen(t *testing.T) {
	e := Extent{Start: 100, End: Inf}
	if e.Len() <= 0 {
		t.Fatal("EOF extent has non-positive length")
	}
	if e.String() != "[100, EOF)" {
		t.Fatalf("String = %q", e.String())
	}
}

func TestAlign(t *testing.T) {
	if AlignDown(4097, 4096) != 4096 || AlignDown(4096, 4096) != 4096 {
		t.Fatal("AlignDown wrong")
	}
	if AlignUp(4097, 4096) != 8192 || AlignUp(4096, 4096) != 4096 {
		t.Fatal("AlignUp wrong")
	}
	if AlignUp(Inf-1, 4096) != Inf {
		t.Fatal("AlignUp must saturate at Inf")
	}
}

func TestListInsertDisjoint(t *testing.T) {
	var l List
	l.Insert(New(0, 10), 1)
	l.Insert(New(20, 30), 2)
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if !l.Covered(New(0, 10)) || !l.Covered(New(20, 30)) || l.Covered(New(0, 30)) {
		t.Fatal("coverage wrong")
	}
}

func TestListInsertNewerWins(t *testing.T) {
	var l List
	l.Insert(New(0, 100), 1)
	won := l.Insert(New(40, 60), 5)
	if len(won) != 1 || won[0] != (SNExtent{New(40, 60), 5}) {
		t.Fatalf("update set = %v", won)
	}
	ents := l.Entries()
	want := []SNExtent{{New(0, 40), 1}, {New(40, 60), 5}, {New(60, 100), 1}}
	if len(ents) != len(want) {
		t.Fatalf("entries = %v, want %v", ents, want)
	}
	for i := range want {
		if ents[i] != want[i] {
			t.Fatalf("entries = %v, want %v", ents, want)
		}
	}
}

func TestListInsertOlderLoses(t *testing.T) {
	var l List
	l.Insert(New(0, 100), 5)
	won := l.Insert(New(40, 60), 1)
	if len(won) != 0 {
		t.Fatalf("stale write produced update set %v", won)
	}
	if l.Len() != 1 || l.Entries()[0] != (SNExtent{New(0, 100), 5}) {
		t.Fatalf("entries = %v", l.Entries())
	}
}

func TestListInsertEqualSNWins(t *testing.T) {
	var l List
	l.Insert(New(0, 100), 5)
	won := l.Insert(New(40, 60), 5)
	if len(won) != 1 {
		t.Fatalf("equal-SN rewrite must win, update set = %v", won)
	}
	// Equal SNs merge back into one entry.
	if l.Len() != 1 {
		t.Fatalf("entries = %v, want single merged entry", l.Entries())
	}
}

func TestListInsertStraddleNewerIsland(t *testing.T) {
	var l List
	l.Insert(New(20, 40), 9)
	won := l.Insert(New(0, 60), 3)
	want := []SNExtent{{New(0, 20), 3}, {New(40, 60), 3}}
	if len(won) != 2 || won[0] != want[0] || won[1] != want[1] {
		t.Fatalf("update set = %v, want %v", won, want)
	}
	if !l.Covered(New(0, 60)) {
		t.Fatal("list must cover whole range")
	}
}

func TestListRemove(t *testing.T) {
	var l List
	l.Insert(New(0, 100), 1)
	l.Remove(New(30, 50))
	if l.Covered(New(30, 50)) || !l.Covered(New(0, 30)) || !l.Covered(New(50, 100)) {
		t.Fatal("Remove left wrong coverage")
	}
}

// TestListRemoveLE checks RemoveLE's trims and splits against a
// byte-level model, and that it rewrites the list in place: only a
// split, which grows the list, may allocate.
func TestListRemoveLE(t *testing.T) {
	cases := []struct {
		e, cut Extent
		want   []Extent
	}{
		{New(0, 10), New(3, 7), []Extent{New(0, 3), New(7, 10)}},
		{New(0, 10), New(0, 10), nil},
		{New(0, 10), New(20, 30), []Extent{New(0, 10)}},
		{New(0, 10), New(0, 5), []Extent{New(5, 10)}},
		{New(0, 10), New(5, 10), []Extent{New(0, 5)}},
		{New(5, 10), New(0, 100), nil},
	}
	for _, c := range cases {
		var l List
		l.Insert(c.e, 1)
		l.RemoveLE(c.cut, 0)
		if got := l.Entries(); len(got) != 1 || got[0] != (SNExtent{c.e, 1}) {
			t.Fatalf("RemoveLE(%v, 0) of %v sn 1 = %v, want it kept", c.cut, c.e, got)
		}
		l.RemoveLE(c.cut, 1)
		got := l.Entries()
		if len(got) != len(c.want) {
			t.Fatalf("%v minus %v = %v, want %v", c.e, c.cut, got, c.want)
		}
		for i := range got {
			if got[i] != (SNExtent{c.want[i], 1}) {
				t.Fatalf("%v minus %v = %v, want %v", c.e, c.cut, got, c.want)
			}
		}
	}

	r := rand.New(rand.NewSource(5))
	const space = 64
	for trial := 0; trial < 500; trial++ {
		var l List
		var model [space]SN // 0 = absent
		for i := 0; i < 6; i++ {
			s := r.Int63n(space)
			e := New(s, s+r.Int63n(space-s)+1)
			sn := SN(r.Intn(4) + 1)
			l.Insert(e, sn)
			for p := e.Start; p < e.End; p++ {
				if sn >= model[p] {
					model[p] = sn
				}
			}
		}
		s := r.Int63n(space)
		cut := New(s, s+r.Int63n(space-s)+1)
		max := SN(r.Intn(5))
		l.RemoveLE(cut, max)
		for p := cut.Start; p < cut.End; p++ {
			if model[p] <= max {
				model[p] = 0
			}
		}
		var got [space]SN
		prevEnd := int64(-1)
		for _, ent := range l.Entries() {
			if ent.Empty() || ent.Start < prevEnd {
				t.Fatalf("trial %d: entries %v not sorted, disjoint and non-empty", trial, l.Entries())
			}
			prevEnd = ent.End
			for p := ent.Start; p < ent.End; p++ {
				got[p] = ent.SN
			}
		}
		if got != model {
			t.Fatalf("trial %d: after RemoveLE(%v, %d): %v, model %v", trial, cut, max, got, model)
		}
	}

	var l List
	for i := int64(0); i < 4; i++ {
		l.Insert(New(i*10, i*10+5), SN(i+1))
	}
	base := append([]SNExtent(nil), l.ents...)
	allocs := testing.AllocsPerRun(20, func() {
		l.ents = append(l.ents[:0], base...)
		l.RemoveLE(New(3, 22), 4) // trims two entries, drops one
	})
	if allocs != 0 {
		t.Fatalf("RemoveLE without a split allocates %.0f times, want 0", allocs)
	}
}

func TestListOverlappingClips(t *testing.T) {
	var l List
	l.Insert(New(0, 50), 1)
	l.Insert(New(50, 100), 2)
	got := l.Overlapping(New(25, 75))
	want := []SNExtent{{New(25, 50), 1}, {New(50, 75), 2}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Overlapping = %v, want %v", got, want)
	}
}

func TestListMaxSN(t *testing.T) {
	var l List
	if _, ok := l.MaxSN(); ok {
		t.Fatal("empty list reported MaxSN")
	}
	l.Insert(New(0, 10), 3)
	l.Insert(New(20, 30), 7)
	if sn, ok := l.MaxSN(); !ok || sn != 7 {
		t.Fatalf("MaxSN = %d, %v", sn, ok)
	}
}

func TestSetNormalize(t *testing.T) {
	s := NewSet(New(10, 20), New(0, 5), New(18, 30), New(5, 7))
	// [0,5) [5,7) merge to [0,7); [10,20)+[18,30) merge to [10,30).
	if len(s) != 2 || s[0] != New(0, 7) || s[1] != New(10, 30) {
		t.Fatalf("NewSet = %v", s)
	}
}

func TestSetOverlaps(t *testing.T) {
	a := NewSet(New(0, 10), New(20, 30))
	b := NewSet(New(10, 20))
	c := NewSet(New(25, 26))
	if a.Overlaps(b) {
		t.Fatal("disjoint sets reported overlapping")
	}
	if !a.Overlaps(c) || !c.Overlaps(a) {
		t.Fatal("overlap missed")
	}
	if !a.OverlapsExtent(New(5, 6)) || a.OverlapsExtent(New(10, 20)) {
		t.Fatal("OverlapsExtent wrong")
	}
}

func TestSetBounds(t *testing.T) {
	s := NewSet(New(10, 20), New(50, 60))
	b, ok := s.Bounds()
	if !ok || b != New(10, 60) {
		t.Fatalf("Bounds = %v, %v", b, ok)
	}
	if _, ok := (Set{}).Bounds(); ok {
		t.Fatal("empty set has bounds")
	}
}

// byteModel is a brute-force oracle: one SN per byte (0 = unwritten).
type byteModel []SN

func (m byteModel) insert(e Extent, sn SN) (won []SNExtent) {
	var cur *SNExtent
	for off := e.Start; off < e.End; off++ {
		if sn >= m[off] {
			m[off] = sn
			if cur != nil && cur.End == off {
				cur.End = off + 1
			} else {
				won = append(won, SNExtent{Extent{off, off + 1}, sn})
				cur = &won[len(won)-1]
			}
		} else {
			cur = nil
		}
	}
	return won
}

func sameSets(a, b []SNExtent) bool {
	// Compare per-byte expansion, since segmentation may differ.
	flat := func(s []SNExtent) map[int64]SN {
		m := map[int64]SN{}
		for _, e := range s {
			for off := e.Start; off < e.End; off++ {
				m[off] = e.SN
			}
		}
		return m
	}
	fa, fb := flat(a), flat(b)
	if len(fa) != len(fb) {
		return false
	}
	for k, v := range fa {
		if fb[k] != v {
			return false
		}
	}
	return true
}

func TestTreeInsertMatchesModel(t *testing.T) {
	const space = 256
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var tr Tree
		model := make(byteModel, space)
		for op := 0; op < 40; op++ {
			start := rng.Int63n(space - 1)
			end := start + 1 + rng.Int63n(space-start-1)
			sn := SN(rng.Intn(8) + 1)
			gotWon := tr.Insert(Extent{start, end}, sn)
			wantWon := model.insert(Extent{start, end}, sn)
			if !sameSets(gotWon, wantWon) {
				t.Fatalf("trial %d op %d: update set mismatch\n got %v\nwant %v", trial, op, gotWon, wantWon)
			}
			if err := tr.check(); err != nil {
				t.Fatalf("trial %d op %d: invariant: %v", trial, op, err)
			}
		}
		// Final state must match byte-for-byte.
		for off := int64(0); off < space; off++ {
			got, _ := tr.MaxSNOverlapping(Extent{off, off + 1})
			if got != model[off] {
				t.Fatalf("trial %d: byte %d: tree SN %d, model %d", trial, off, got, model[off])
			}
		}
	}
}

func TestTreeCoalescing(t *testing.T) {
	var tr Tree
	tr.Insert(New(0, 10), 4)
	tr.Insert(New(10, 20), 4)
	if tr.Len() != 1 {
		t.Fatalf("adjacent same-SN entries not merged: %d entries", tr.Len())
	}
	tr.Insert(New(20, 30), 5)
	if tr.Len() != 2 {
		t.Fatalf("different-SN entries wrongly merged: %d entries", tr.Len())
	}
	// Overwriting the middle with the higher SN bridges to the right
	// neighbor.
	tr.Insert(New(5, 20), 5)
	var ents []SNExtent
	tr.Visit(func(e SNExtent) bool { ents = append(ents, e); return true })
	want := []SNExtent{{New(0, 5), 4}, {New(5, 30), 5}}
	if len(ents) != 2 || ents[0] != want[0] || ents[1] != want[1] {
		t.Fatalf("entries = %v, want %v", ents, want)
	}
}

func TestTreePickBatchAndRemoveLE(t *testing.T) {
	var tr Tree
	for i := int64(0); i < 10; i++ {
		tr.Insert(Extent{i * 100, i*100 + 50}, SN(i+1))
	}
	batch, next := tr.PickBatch(0, 4)
	if len(batch) != 4 {
		t.Fatalf("batch len = %d", len(batch))
	}
	batch2, _ := tr.PickBatch(next, 100)
	if len(batch2) != 6 {
		t.Fatalf("second batch len = %d", len(batch2))
	}
	// Entries with SN <= 3 are removable.
	all, _ := tr.PickBatch(0, 100)
	removed := tr.RemoveLE(all, 3)
	if removed != 3 || tr.Len() != 7 {
		t.Fatalf("removed %d, len %d", removed, tr.Len())
	}
	// Stale descriptors (already removed) are skipped silently.
	if tr.RemoveLE(all, 3) != 0 {
		t.Fatal("second RemoveLE removed entries twice")
	}
}

func TestTreeEntryBytes(t *testing.T) {
	var tr Tree
	tr.Insert(New(0, 10), 1)
	tr.Insert(New(100, 110), 2)
	if tr.EntryBytes() != 2*EntrySize {
		t.Fatalf("EntryBytes = %d", tr.EntryBytes())
	}
}

func TestTreeVisitFromStops(t *testing.T) {
	var tr Tree
	for i := int64(0); i < 20; i++ {
		tr.Insert(Extent{i * 10, i*10 + 5}, SN(i%3)+1)
	}
	count := 0
	tr.VisitFrom(100, func(e SNExtent) bool {
		if e.Start < 100 {
			t.Fatalf("VisitFrom returned entry before cursor: %v", e)
		}
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("visited %d entries, want 3", count)
	}
}

func TestTreeClear(t *testing.T) {
	var tr Tree
	tr.Insert(New(0, 100), 1)
	tr.Clear()
	if tr.Len() != 0 {
		t.Fatal("Clear left entries")
	}
	if _, ok := tr.MaxSNOverlapping(New(0, 100)); ok {
		t.Fatal("Clear left overlapping data")
	}
}

// Property: List.Insert and Tree.Insert agree with each other on identical
// operation sequences.
func TestQuickListTreeAgree(t *testing.T) {
	type op struct {
		Start uint16
		Len   uint8
		SN    uint8
	}
	f := func(ops []op) bool {
		var l List
		var tr Tree
		for _, o := range ops {
			start := int64(o.Start % 512)
			length := int64(o.Len%64) + 1
			sn := SN(o.SN%16) + 1
			e := Extent{start, start + length}
			wonL := l.Insert(e, sn)
			wonT := tr.Insert(e, sn)
			if !sameSets(wonL, wonT) {
				return false
			}
		}
		if err := tr.check(); err != nil {
			return false
		}
		// Final coverage must agree.
		for off := int64(0); off < 600; off++ {
			le := l.Overlapping(Extent{off, off + 1})
			te := tr.Overlapping(Extent{off, off + 1})
			if len(le) != len(te) {
				return false
			}
			if len(le) == 1 && le[0].SN != te[0].SN {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: coverage reported by Covered matches the union of entries.
func TestQuickListCovered(t *testing.T) {
	f := func(starts []uint8, q uint8) bool {
		var l List
		for i, s := range starts {
			st := int64(s)
			l.Insert(Extent{st, st + 10}, SN(i+1))
		}
		off := int64(q)
		want := false
		for _, e := range l.Entries() {
			if e.ContainsOff(off) {
				want = true
			}
		}
		return l.Covered(Extent{off, off + 1}) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTreeInsertSequential(b *testing.B) {
	var tr Tree
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off := int64(i%100000) * 4096
		tr.Insert(Extent{off, off + 4096}, SN(i))
	}
}

func BenchmarkTreeInsertRandom(b *testing.B) {
	var tr Tree
	rng := rand.New(rand.NewSource(42))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off := rng.Int63n(1 << 30)
		tr.Insert(Extent{off, off + 47008}, SN(i))
	}
}
