// Package compaction implements the "vertical" dimension of the paper's
// two-dimensional SI test-set compaction: merging compatible test
// patterns to reduce the pattern count.
//
// Two patterns are compatible when their symbol-wise intersection is
// non-empty at every WOC position (x merges with anything, determined
// symbols only with themselves) AND they do not occupy the same shared
// bus line from different core boundaries. Finding the minimum compacted
// set is the NP-complete clique covering problem on the compatibility
// graph; following the paper, the production path is a greedy heuristic
// that merges the first uncompacted pattern with every following
// compatible pattern on each pass. Reference exact and DSATUR-based
// covers are provided for small instances (tests and ablation benches).
//
// Pairwise compatibility implies set-wise mergeability here: at any
// position, pairwise-compatible patterns can only carry one distinct
// determined symbol, and on any bus line only one distinct driver — so
// every clique of the compatibility graph is a valid merged pattern.
package compaction

import (
	"context"
	"fmt"

	"sitam/internal/sifault"
)

// Stats summarizes one compaction run.
type Stats struct {
	// Original is the pattern count before compaction (sum of weights
	// of the input patterns).
	Original int64

	// Compacted is the pattern count after compaction.
	Compacted int

	// Passes is the number of greedy seed passes (equals Compacted for
	// the greedy algorithm).
	Passes int
}

// Ratio returns Original/Compacted, the compaction ratio.
func (s Stats) Ratio() float64 {
	if s.Compacted == 0 {
		return 0
	}
	return float64(s.Original) / float64(s.Compacted)
}

// Greedy compacts patterns with the paper's heuristic: take the first
// uncompacted pattern as a seed and merge every following compatible
// pattern into it, repeating until all patterns are absorbed. Input
// patterns are not modified. The input order is the merge order, so the
// result is deterministic. It is GreedyWith on one worker, untraced and
// without a deadline; GreedyWith adds the context, the worker pool and
// tracing.
func Greedy(sp *sifault.Space, patterns []*sifault.Pattern) ([]*sifault.Pattern, Stats) {
	out, stats, _ := GreedyWith(context.Background(), sp, patterns, Config{Workers: 1})
	return out, stats
}

// Compatible reports whether two patterns may be merged, applying both
// the symbol intersection rule and the shared-bus-line driver rule.
func Compatible(a, b *sifault.Pattern) bool {
	// Merge-join over the sorted care lists.
	i, j := 0, 0
	for i < len(a.Care) && j < len(b.Care) {
		switch {
		case a.Care[i].Pos < b.Care[j].Pos:
			i++
		case a.Care[i].Pos > b.Care[j].Pos:
			j++
		default:
			if !a.Care[i].Sym.CompatibleWith(b.Care[j].Sym) {
				return false
			}
			i++
			j++
		}
	}
	i, j = 0, 0
	for i < len(a.Bus) && j < len(b.Bus) {
		switch {
		case a.Bus[i].Line < b.Bus[j].Line:
			i++
		case a.Bus[i].Line > b.Bus[j].Line:
			j++
		default:
			if a.Bus[i].Driver != b.Bus[j].Driver {
				return false
			}
			i++
			j++
		}
	}
	return true
}

// Merge returns the intersection pattern of a and b. It fails if the
// patterns are incompatible.
func Merge(a, b *sifault.Pattern) (*sifault.Pattern, error) {
	if !Compatible(a, b) {
		return nil, fmt.Errorf("compaction: patterns are incompatible")
	}
	m := &sifault.Pattern{VictimPos: -1, VictimCore: -1, Weight: a.Weight + b.Weight}
	m.Care = make([]sifault.Care, 0, len(a.Care)+len(b.Care))
	i, j := 0, 0
	for i < len(a.Care) || j < len(b.Care) {
		switch {
		case j >= len(b.Care) || (i < len(a.Care) && a.Care[i].Pos < b.Care[j].Pos):
			m.Care = append(m.Care, a.Care[i])
			i++
		case i >= len(a.Care) || a.Care[i].Pos > b.Care[j].Pos:
			m.Care = append(m.Care, b.Care[j])
			j++
		default:
			m.Care = append(m.Care, sifault.Care{Pos: a.Care[i].Pos, Sym: a.Care[i].Sym.Intersect(b.Care[j].Sym)})
			i++
			j++
		}
	}
	m.Bus = make([]sifault.BusUse, 0, len(a.Bus)+len(b.Bus))
	i, j = 0, 0
	for i < len(a.Bus) || j < len(b.Bus) {
		switch {
		case j >= len(b.Bus) || (i < len(a.Bus) && a.Bus[i].Line < b.Bus[j].Line):
			m.Bus = append(m.Bus, a.Bus[i])
			i++
		case i >= len(a.Bus) || a.Bus[i].Line > b.Bus[j].Line:
			m.Bus = append(m.Bus, b.Bus[j])
			j++
		default:
			m.Bus = append(m.Bus, a.Bus[i])
			i++
			j++
		}
	}
	return m, nil
}
