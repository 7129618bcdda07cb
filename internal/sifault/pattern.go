// Package sifault defines signal-integrity (SI) test patterns for
// core-external SOC interconnects, the position space they live in, the
// random pattern generator used by the paper's experiments, and the
// pattern-count formulas of the maximal-aggressor (MA) and
// multiple-transition (MT) fault models.
//
// An SI test pattern (Table 1 of the paper) assigns one of five symbols
// to every wrapper output cell (WOC) of every core:
//
//	x  don't care
//	0  stays low across both cycles of the vector pair
//	1  stays high
//	↑  positive transition
//	↓  negative transition
//
// plus a postfix over the shared functional bus marking which bus lines
// the pattern occupies. Patterns are stored sparsely: real SI patterns
// involve one victim and a handful of aggressors, so almost every
// position is x.
package sifault

import (
	"fmt"
	"sort"
	"strings"

	"sitam/internal/soc"
)

// Symbol is the per-position state of an SI test pattern.
type Symbol uint8

// The five pattern symbols of Table 1.
const (
	X    Symbol = iota // don't care
	Zero               // steady 0
	One                // steady 1
	Rise               // positive transition
	Fall               // negative transition
)

// String implements fmt.Stringer using the paper's notation.
func (s Symbol) String() string {
	switch s {
	case X:
		return "x"
	case Zero:
		return "0"
	case One:
		return "1"
	case Rise:
		return "↑"
	case Fall:
		return "↓"
	}
	return fmt.Sprintf("Symbol(%d)", uint8(s))
}

// CompatibleWith reports whether two symbols may occupy the same position
// of a merged pattern: don't-cares are compatible with everything, and
// every determined symbol only with itself.
func (s Symbol) CompatibleWith(o Symbol) bool {
	return s == X || o == X || s == o
}

// Intersect returns the merged symbol. It panics if the symbols are
// incompatible; callers check CompatibleWith first.
func (s Symbol) Intersect(o Symbol) Symbol {
	switch {
	case s == X:
		return o
	case o == X || s == o:
		return s
	}
	panic(fmt.Sprintf("sifault: intersecting incompatible symbols %v and %v", s, o))
}

// Care is one determined position of a sparse pattern.
type Care struct {
	Pos int32  // global WOC position
	Sym Symbol // determined symbol (never X)
}

// BusUse records that a pattern occupies one shared-bus line, and which
// core's boundary drives it. Patterns occupying the same line from
// different cores must not be merged (Section 3, Test Pattern Count
// Reduction).
type BusUse struct {
	Line   int32 // bus line index, 0-based
	Driver int32 // ID of the driving core
}

// Pattern is a sparse SI test pattern.
type Pattern struct {
	// Care holds the determined positions, sorted by Pos.
	Care []Care

	// Bus holds the occupied bus lines, sorted by Line.
	Bus []BusUse

	// VictimPos is the global position of the victim interconnect's
	// driving WOC, or -1 for a merged pattern.
	VictimPos int32

	// VictimCore is the ID of the victim's core, or -1 for a merged
	// pattern.
	VictimCore int32

	// Weight is the number of original (pre-compaction) patterns this
	// pattern represents; 1 for freshly generated patterns.
	Weight int32
}

// Clone returns a deep copy of the pattern.
func (p *Pattern) Clone() *Pattern {
	c := *p
	c.Care = append([]Care(nil), p.Care...)
	c.Bus = append([]BusUse(nil), p.Bus...)
	return &c
}

// SymbolAt returns the symbol at a global position (X if undetermined).
func (p *Pattern) SymbolAt(pos int32) Symbol {
	i := sort.Search(len(p.Care), func(i int) bool { return p.Care[i].Pos >= pos })
	if i < len(p.Care) && p.Care[i].Pos == pos {
		return p.Care[i].Sym
	}
	return X
}

// CareCores returns the sorted set of core IDs that own at least one
// determined position of the pattern — the pattern's care cores. The
// care list is sorted by position and every core owns one contiguous
// position block, so the walk meets each care core in one run and
// deduplicates against the last ID alone; only a space whose core list
// is not in ID order needs the final sort.
func (p *Pattern) CareCores(sp *Space) []int {
	out := make([]int, 0, 4)
	for _, c := range p.Care {
		id := sp.coreAt[c.Pos]
		if n := len(out); n == 0 || out[n-1] != id {
			out = append(out, id)
		}
	}
	if !sp.idSorted {
		sort.Ints(out)
	}
	return out
}

// Validate checks internal invariants: at least one care position,
// sorted unique care positions within the space, only the four
// determined symbols Zero..Fall stored, sorted unique bus lines within
// the bus width. A pattern without care positions tests no
// interconnect and has no care core, so it belongs to no SI test
// group.
func (p *Pattern) Validate(sp *Space) error {
	if len(p.Care) == 0 {
		return fmt.Errorf("sifault: pattern has no care positions")
	}
	for i, c := range p.Care {
		if c.Sym == X || c.Sym > Fall {
			return fmt.Errorf("sifault: pattern stores %v at position %d", c.Sym, c.Pos)
		}
		if c.Pos < 0 || int(c.Pos) >= sp.Total() {
			return fmt.Errorf("sifault: position %d outside space of %d WOCs", c.Pos, sp.Total())
		}
		if i > 0 && p.Care[i-1].Pos >= c.Pos {
			return fmt.Errorf("sifault: care positions not strictly sorted at index %d", i)
		}
	}
	for i, b := range p.Bus {
		if b.Line < 0 || int(b.Line) >= sp.BusWidth() {
			return fmt.Errorf("sifault: bus line %d outside %d-bit bus", b.Line, sp.BusWidth())
		}
		if i > 0 && p.Bus[i-1].Line >= b.Line {
			return fmt.Errorf("sifault: bus lines not strictly sorted at index %d", i)
		}
	}
	if p.Weight < 1 {
		return fmt.Errorf("sifault: pattern weight %d < 1", p.Weight)
	}
	return nil
}

// Format renders the pattern in the style of Table 1: one symbol per WOC
// position grouped by core, then the bus postfix. Intended for small
// illustrative SOCs; the output length is the total WOC count.
func (p *Pattern) Format(sp *Space) string {
	var b strings.Builder
	for _, id := range sp.CoreOrder() {
		start, n := sp.Range(id)
		b.WriteString("|")
		for i := 0; i < n; i++ {
			b.WriteString(p.SymbolAt(int32(start + i)).String())
		}
	}
	b.WriteString("‖")
	used := make(map[int32]bool, len(p.Bus))
	for _, u := range p.Bus {
		used[u.Line] = true
	}
	for l := 0; l < sp.BusWidth(); l++ {
		if used[int32(l)] {
			b.WriteString("1")
		} else {
			b.WriteString("x")
		}
	}
	b.WriteString("|")
	return b.String()
}

// Space maps global WOC positions to cores. Position space is the
// concatenation of all cores' WOCs in core-list order.
type Space struct {
	order    []int // core IDs in position order
	starts   []int // starts[i] is the first position of order[i]; len = len(order)+1
	coreAt   []int // coreAt[pos] is the ID of the core owning pos; len = Total()
	idSorted bool  // order is ascending: position order is core-ID order
	busWidth int
}

// NewSpace builds the WOC position space of an SOC, including the dense
// position-to-core table behind CoreAtPos and CareCores.
func NewSpace(s *soc.SOC) *Space {
	sp := &Space{busWidth: s.BusWidth, idSorted: true}
	pos := 0
	for _, c := range s.Cores() {
		if n := len(sp.order); n > 0 && sp.order[n-1] > c.ID {
			sp.idSorted = false
		}
		sp.order = append(sp.order, c.ID)
		sp.starts = append(sp.starts, pos)
		pos += c.WOC()
	}
	sp.starts = append(sp.starts, pos)
	sp.coreAt = make([]int, pos)
	for i, id := range sp.order {
		for p := sp.starts[i]; p < sp.starts[i+1]; p++ {
			sp.coreAt[p] = id
		}
	}
	return sp
}

// Total returns the number of WOC positions.
func (sp *Space) Total() int { return sp.starts[len(sp.starts)-1] }

// BusWidth returns the shared-bus width of the space.
func (sp *Space) BusWidth() int { return sp.busWidth }

// CoreOrder returns the core IDs in position order.
func (sp *Space) CoreOrder() []int { return sp.order }

// Range returns the first position and the WOC count of the given core.
// It panics on unknown core IDs; use RangeOf when the ID comes from
// external input.
func (sp *Space) Range(coreID int) (start, n int) {
	start, n, err := sp.RangeOf(coreID)
	if err != nil {
		panic(err.Error())
	}
	return start, n
}

// RangeOf returns the first position and the WOC count of the given
// core, or an error for IDs not in the space. This is the lookup for
// untrusted core IDs (group files, caller-built groups); Range is the
// panicking variant for IDs the space itself produced.
func (sp *Space) RangeOf(coreID int) (start, n int, err error) {
	for i, id := range sp.order {
		if id == coreID {
			return sp.starts[i], sp.starts[i+1] - sp.starts[i], nil
		}
	}
	return 0, 0, fmt.Errorf("sifault: core %d not in space", coreID)
}

// CoreAt returns the ID of the core owning a global position. It panics
// on out-of-range positions; use CoreAtPos when the position comes from
// external input.
func (sp *Space) CoreAt(pos int32) int {
	id, err := sp.CoreAtPos(pos)
	if err != nil {
		panic(err.Error())
	}
	return id
}

// CoreAtPos returns the ID of the core owning a global position, or an
// error for positions outside the space. This is the lookup for
// untrusted positions (pattern files, caller-built patterns); CoreAt is
// the panicking variant for positions the space itself produced.
func (sp *Space) CoreAtPos(pos int32) (int, error) {
	if pos < 0 || int(pos) >= len(sp.coreAt) {
		return 0, fmt.Errorf("sifault: position %d outside space of %d WOCs", pos, sp.Total())
	}
	return sp.coreAt[pos], nil
}

// WOCOf returns the WOC count of a core in the space.
func (sp *Space) WOCOf(coreID int) int {
	_, n := sp.Range(coreID)
	return n
}
