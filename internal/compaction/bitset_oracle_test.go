package compaction

import "sitam/internal/sifault"

// The one-pass bitset accumulator and its pattern packing are test
// oracles: the differential suite checks the packed conflict formula
// against the pairwise Compatible predicate with them.

// bitsetAccumulator is the word-parallel merge state for one greedy
// seed pass: per 64 positions one interleaved [care, v0, v1] plane
// entry (the care mask plus the two value bits of Symbol-1 — see
// sifault.PackedWord), so a compatibility check costs one AND and two
// XORs per 64 care positions instead of one comparison per care
// position, and the three planes of a word share one cache line.
//
// Bus occupation rides the same machinery: bus line L maps to the
// pseudo-word plane busBase+L whose care plane is all-ones when the
// line is occupied and whose v0 plane carries the driver verbatim —
// the generic conflict formula then reads "occupied and a different
// driver", exactly the shared-bus rule. One uniform loop per candidate
// replaces the separate care and bus scans.
//
// The planes of untouched words are all-zero — reset clears only the
// entries the last pass touched — which keeps the conflict test free
// of epoch loads: a zero care plane can never intersect.
type bitsetAccumulator struct {
	planes   [][3]uint64 // care, v0, v1 per word; bus pseudo-words after busBase
	busBase  int32
	touchedW []int32 // care word indices determined this pass
	busUsed  []int32 // bus plane indices occupied this pass
}

func newBitsetAccumulator(nPos, nBus int) *bitsetAccumulator {
	nWords := (nPos + 63) / 64
	return &bitsetAccumulator{
		planes:  make([][3]uint64, nWords+nBus),
		busBase: int32(nWords),
	}
}

func (a *bitsetAccumulator) reset() {
	for _, wi := range a.touchedW {
		a.planes[wi] = [3]uint64{}
	}
	for _, wi := range a.busUsed {
		a.planes[wi] = [3]uint64{}
	}
	a.touchedW = a.touchedW[:0]
	a.busUsed = a.busUsed[:0]
}

// compatible reports whether the pattern (packed care words plus bus
// pseudo-words) can merge into the current accumulation. A conflict is
// a shared care bit whose value planes differ; masking with both care
// planes first keeps the value comparison to genuinely shared bits.
func (a *bitsetAccumulator) compatible(items []sifault.PackedWord) bool {
	planes := a.planes
	for i := range items {
		w := &items[i]
		pl := &planes[w.Idx]
		if pl[0]&w.Care&((pl[1]^w.V0)|(pl[2]^w.V1)) != 0 {
			return false
		}
	}
	return true
}

// merge absorbs the pattern; the caller must have checked compatible.
// ORing the value planes is exact: shared care positions carry equal
// symbols and shared bus lines equal drivers (checked), and bits
// outside a word's care mask are zero. A zero care plane identifies an
// untouched entry (every packed word carries at least one care bit and
// bus pseudo-words an all-ones mask), so no epoch bookkeeping is
// needed.
func (a *bitsetAccumulator) merge(items []sifault.PackedWord) {
	for i := range items {
		w := &items[i]
		pl := &a.planes[w.Idx]
		if pl[0] == 0 {
			if w.Idx >= a.busBase {
				a.busUsed = append(a.busUsed, w.Idx)
			} else {
				a.touchedW = append(a.touchedW, w.Idx)
			}
		}
		pl[0] |= w.Care
		pl[1] |= w.V0
		pl[2] |= w.V1
	}
}

// packPatterns packs every pattern's care list (as PackedWords) and
// bus list (as bus pseudo-words: all-ones care mask, driver in v0) into
// one shared arena, and returns per-pattern item slices index-aligned
// with patterns. Per-pattern runs stay contiguous in memory and the
// precomputed slice headers keep the hot loop to two contiguous-array
// loads per candidate — no *Pattern dereference on the compatibility
// path.
//
// Bus pseudo-words are placed BEFORE the care words of each pattern:
// item order inside one pattern cannot change the conflict verdict
// (conflict is "any item conflicts") or the merge result (ORs commute),
// but bus words carry an all-ones care mask and so are the most
// discriminating conflict probes — putting them first lets the reject
// path of the greedy scan exit earliest.
func packPatterns(patterns []*sifault.Pattern, busBase int32) (itemsOf [][]sifault.PackedWord) {
	n := 0
	for _, p := range patterns {
		n += len(p.Care) + len(p.Bus)
	}
	arena := make([]sifault.PackedWord, 0, n)
	off := make([]int32, len(patterns)+1)
	for i, p := range patterns {
		off[i] = int32(len(arena))
		arena = sifault.AppendPackedWords(arena, p)
		for _, b := range p.Bus {
			arena = append(arena, sifault.PackedWord{
				Idx: busBase + b.Line, Care: ^uint64(0), V0: uint64(uint32(b.Driver)),
			})
		}
	}
	off[len(patterns)] = int32(len(arena))
	itemsOf = make([][]sifault.PackedWord, len(patterns))
	for i := range patterns {
		itemsOf[i] = arena[off[i]:off[i+1]:off[i+1]]
	}
	return itemsOf
}
