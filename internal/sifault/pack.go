package sifault

// Bit-plane packing of pattern care data for word-parallel
// compatibility checks (internal/compaction). The four determined
// symbols fit two bits (Symbol-1 ∈ {0..3}), so a pattern's care list
// packs into 64-position words of three planes: a care mask and the
// two value bit planes. Two care positions conflict exactly when both
// care masks have the bit set and the value planes differ in either
// bit — one AND plus two XOR/OR per 64 positions.

// PackedWord is one 64-position word of a pattern's care data.
type PackedWord struct {
	// Idx is the word index: the word covers positions
	// [64*Idx, 64*Idx+63] of the WOC position space.
	Idx int32

	// Care has bit p set when position 64*Idx+p is determined.
	Care uint64

	// V0 and V1 are the low and high bit planes of Symbol-1 at each
	// care position; bits outside Care are zero.
	V0, V1 uint64
}

// AppendPackedWords appends the packed word form of p's care list to
// dst and returns the extended slice. Words come out in ascending Idx
// order with no duplicates (the care list of a valid pattern is
// strictly sorted by position), and packing never merges into words
// appended by an earlier call, so several patterns can share one arena
// slice with the caller recording offsets. The pattern must be valid
// (no X symbols in the care list).
func AppendPackedWords(dst []PackedWord, p *Pattern) []PackedWord {
	care := p.Care
	for i := 0; i < len(care); {
		w := PackedWord{Idx: care[i].Pos >> 6}
		for ; i < len(care) && care[i].Pos>>6 == w.Idx; i++ {
			bit := uint(care[i].Pos & 63)
			v := uint64(care[i].Sym - 1)
			w.Care |= 1 << bit
			w.V0 |= (v & 1) << bit
			w.V1 |= (v >> 1) << bit
		}
		dst = append(dst, w)
	}
	return dst
}

// ConflictsWith reports whether the two words carry different symbols
// at any shared care position. Words must cover the same Idx.
func (w PackedWord) ConflictsWith(o PackedWord) bool {
	both := w.Care & o.Care
	return both&((w.V0^o.V0)|(w.V1^o.V1)) != 0
}

// SymbolAt returns the symbol at bit position p of the word (X when
// the position is not determined).
func (w PackedWord) SymbolAt(p uint) Symbol {
	if w.Care&(1<<p) == 0 {
		return X
	}
	return Symbol(1 + (w.V0>>p)&1 + 2*((w.V1>>p)&1))
}
