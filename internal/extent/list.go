package extent

import (
	"slices"
	"sort"
)

// List is a small, sorted, non-overlapping sequence of SN-tagged extents.
// It is the structure each client-cache page keeps to track which byte
// ranges of the page hold valid data and under which lock sequence number
// they were written (§IV-A of the paper). It is optimized for the handful
// of entries a 4 KB page accumulates, not for the data server's much
// larger per-stripe extent cache (see Tree for that).
//
// The zero value is an empty, ready-to-use list.
type List struct {
	ents []SNExtent
}

// Len returns the number of entries.
func (l *List) Len() int { return len(l.ents) }

// Entries returns the entries in ascending Start order. The returned
// slice aliases internal storage and must not be mutated.
func (l *List) Entries() []SNExtent { return l.ents }

// Clone returns a deep copy of the list.
func (l *List) Clone() *List {
	c := &List{ents: make([]SNExtent, len(l.ents))}
	copy(c.ents, l.ents)
	return c
}

// Reset removes all entries.
func (l *List) Reset() { l.ents = l.ents[:0] }

// Insert records that e was written under sequence number sn. Where e
// overlaps existing entries, the write with the larger sequence number
// wins; an incoming write with a sequence number equal to the existing
// entry also wins, because only the current lock holder can carry that SN
// and its operations are locally ordered. Insert returns the sub-extents
// of e that actually took effect (the update set), merged and in order.
func (l *List) Insert(e Extent, sn SN) []SNExtent {
	return l.insert(e, sn, false)
}

// InsertNewer is Insert with the opposite tie rule: existing entries
// with an equal SN win. It is used for clean fills from a data server —
// the locally cached copy of an equal-SN byte is at least as new as the
// server's, so a fill must never replace it.
func (l *List) InsertNewer(e Extent, sn SN) []SNExtent {
	return l.insert(e, sn, true)
}

func (l *List) insert(e Extent, sn SN, oldWinsTies bool) []SNExtent {
	if e.Empty() {
		return nil
	}
	oldWins := func(old SN) bool {
		if oldWinsTies {
			return old >= sn
		}
		return old > sn
	}
	var out []SNExtent // rebuilt entry list
	var won []SNExtent // update set
	pend := SNExtent{Extent: e, SN: sn}
	consumed := false
	for _, old := range l.ents {
		if !consumed && old.Start >= pend.End {
			// Flush the remaining incoming range before entries that lie
			// wholly beyond it, to keep the rebuilt list sorted.
			out = appendMerge(out, pend)
			won = appendMergeSet(won, pend)
			consumed = true
		}
		if consumed || !old.Overlaps(e) {
			out = appendMerge(out, old)
			continue
		}
		if oldWins(old.SN) {
			// The existing data is newer: the incoming write only takes
			// effect outside this entry.
			if pend.Start < old.Start {
				seg := SNExtent{Extent: Extent{pend.Start, old.Start}, SN: sn}
				out = appendMerge(out, seg)
				won = appendMergeSet(won, seg)
			}
			out = appendMerge(out, old)
			if old.End >= pend.End {
				consumed = true
			} else {
				pend.Start = old.End
			}
			continue
		}
		// The incoming write is at least as new: keep the parts of the
		// old entry outside e, and let the incoming range flow through.
		if old.Start < e.Start {
			out = appendMerge(out, SNExtent{Extent: Extent{old.Start, e.Start}, SN: old.SN})
		}
		if old.End > e.End {
			// Emit the incoming remainder first to keep order.
			seg := SNExtent{Extent: Extent{pend.Start, e.End}, SN: sn}
			out = appendMerge(out, seg)
			won = appendMergeSet(won, seg)
			out = appendMerge(out, SNExtent{Extent: Extent{e.End, old.End}, SN: old.SN})
			consumed = true
		}
	}
	if !consumed && !pend.Empty() {
		out = appendMerge(out, pend)
		won = appendMergeSet(won, pend)
	}
	l.ents = out
	return won
}

// appendMerge appends seg to out, coalescing with the previous entry when
// they are adjacent and carry the same SN. Entries must arrive in order.
func appendMerge(out []SNExtent, seg SNExtent) []SNExtent {
	if seg.Empty() {
		return out
	}
	if n := len(out); n > 0 {
		last := &out[n-1]
		if last.SN == seg.SN && last.End == seg.Start {
			last.End = seg.End
			return out
		}
	}
	return append(out, seg)
}

// appendMergeSet merges update-set segments that are adjacent regardless
// of interior splits, since they all carry the incoming SN.
func appendMergeSet(out []SNExtent, seg SNExtent) []SNExtent {
	return appendMerge(out, seg)
}

// Covered reports whether every byte of e is present in the list.
func (l *List) Covered(e Extent) bool {
	if e.Empty() {
		return true
	}
	need := e.Start
	for _, ent := range l.ents {
		if ent.End <= need {
			continue
		}
		if ent.Start > need {
			return false
		}
		need = ent.End
		if need >= e.End {
			return true
		}
	}
	return false
}

// Overlapping returns the entries that overlap e, clipped to e.
func (l *List) Overlapping(e Extent) []SNExtent {
	var out []SNExtent
	for _, ent := range l.ents {
		if iv, ok := ent.Intersect(e); ok {
			out = append(out, SNExtent{Extent: iv, SN: ent.SN})
		}
		if ent.Start >= e.End {
			break
		}
	}
	return out
}

// Remove deletes coverage of e from the list, splitting entries that
// straddle its boundaries.
func (l *List) Remove(e Extent) { l.RemoveLE(e, ^SN(0)) }

// RemoveLE deletes coverage of e restricted to entries whose SN is at
// most max, splitting straddlers. Entries with newer SNs keep their
// data — the rule that makes canceling one lock safe while a newer lock
// of the same client still protects overlapping bytes.
//
// The list is rewritten in place, so slices previously returned by
// Entries must not be used afterwards.
func (l *List) RemoveLE(e Extent, max SN) {
	if e.Empty() {
		return
	}
	out := l.ents[:0]
	for i, ent := range l.ents {
		if !ent.Overlaps(e) || ent.SN > max {
			out = append(out, ent)
			continue
		}
		left := ent.Start < e.Start
		right := SNExtent{Extent: Extent{Start: e.End, End: ent.End}, SN: ent.SN}
		if left && !right.Empty() {
			// ent strictly contains e, so no other entry overlaps e and
			// out still equals l.ents[:i]. Splitting ent is the one case
			// that grows the list, which in-place writes cannot do.
			l.ents[i].End = e.Start
			l.ents = slices.Insert(l.ents, i+1, right)
			return
		}
		if left {
			out = append(out, SNExtent{Extent: Extent{Start: ent.Start, End: e.Start}, SN: ent.SN})
		}
		if !right.Empty() {
			out = append(out, right)
		}
	}
	l.ents = out
}

// MaxSN returns the largest SN present in the list and true, or 0 and
// false when the list is empty.
func (l *List) MaxSN() (SN, bool) {
	if len(l.ents) == 0 {
		return 0, false
	}
	var m SN
	for _, ent := range l.ents {
		if ent.SN > m {
			m = ent.SN
		}
	}
	return m, true
}

// Set is an ordered collection of plain extents used for non-contiguous
// lock ranges in the DLM-datatype baseline (Ching et al.'s datatype
// locking describes a lock's range as a list of extents instead of one
// expanded interval).
type Set []Extent

// NewSet returns a normalized set: sorted, with overlapping or adjacent
// extents merged.
func NewSet(exts ...Extent) Set {
	s := make(Set, 0, len(exts))
	for _, e := range exts {
		if !e.Empty() {
			s = append(s, e)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	out := s[:0]
	for _, e := range s {
		if n := len(out); n > 0 && out[n-1].End >= e.Start {
			if e.End > out[n-1].End {
				out[n-1].End = e.End
			}
			continue
		}
		out = append(out, e)
	}
	return out
}

// Overlaps reports whether any extent of s overlaps any extent of other.
// Both sets must be normalized (sorted, non-overlapping).
func (s Set) Overlaps(other Set) bool {
	i, j := 0, 0
	for i < len(s) && j < len(other) {
		if s[i].Overlaps(other[j]) {
			return true
		}
		if s[i].End <= other[j].Start {
			i++
		} else {
			j++
		}
	}
	return false
}

// OverlapsExtent reports whether any extent of s overlaps e.
func (s Set) OverlapsExtent(e Extent) bool {
	for _, x := range s {
		if x.Overlaps(e) {
			return true
		}
		if x.Start >= e.End {
			break
		}
	}
	return false
}

// Bounds returns the smallest single extent covering the whole set.
func (s Set) Bounds() (Extent, bool) {
	if len(s) == 0 {
		return Extent{}, false
	}
	return Extent{Start: s[0].Start, End: s[len(s)-1].End}, true
}
