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

	"sitam/internal/obs"
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
// result is deterministic. It is GreedyWith untraced and without a
// deadline.
func Greedy(sp *sifault.Space, patterns []*sifault.Pattern) ([]*sifault.Pattern, Stats) {
	out, stats, _ := GreedyWith(context.Background(), sp, patterns, Config{})
	return out, stats
}

// Config configures a compaction run (Compact, GreedyWith). The zero
// value is valid and traces nothing.
type Config struct {
	// Sink receives the compaction phase span and deadline events; nil
	// traces nothing.
	Sink obs.Sink

	// Group labels trace events with the pattern group being compacted.
	Group string

	// CountOnly counts the merged patterns instead of building them:
	// Compact returns nil patterns with the same Stats, trace and cut
	// flag.
	CountOnly bool
}

// GreedyWith is Greedy's clique cover, traced and cancellable: it packs
// the patterns into a Corpus and compacts all of them with Compact. The
// patterns must be valid (sifault.Pattern.Validate); GreedyWith panics
// otherwise. Unvalidated input goes through NewCorpus, which reports
// the first invalid pattern as an error.
func GreedyWith(ctx context.Context, sp *sifault.Space, patterns []*sifault.Pattern, cfg Config) ([]*sifault.Pattern, Stats, bool) {
	c, err := NewCorpus(sp, patterns, 1)
	if err != nil {
		panic("compaction: " + err.Error())
	}
	all := make([]int32, c.Len())
	for i := range all {
		all[i] = int32(i)
	}
	return c.Compact(ctx, all, cfg)
}

// Compact is the production compaction pass over the corpus patterns
// that idx lists, in list order. The paper's seed-pass greedy is
// first-fit in input order — every pattern joins the lowest-numbered
// bin whose merged pattern it is compatible with, or opens the next
// bin — so the conflict-index engine (engine.go) can run 64 seed passes
// as one fused super-pass over the remaining patterns and still emit
// the scalar reference's bytes, as the bitset-vs-scalar differential
// and fuzz suites check.
//
// The context is checked before each super-pass of 64 fused seed
// passes. A cut degrades gracefully: bins materialized before it are
// followed by copies of the unmerged remainder in list order, so the
// output is still a valid, less compacted cover, and the cut flag is
// returned. A run cancelled before any work emits copies of the listed
// patterns, unmerged. With cfg.CountOnly the output is nil and
// Stats.Compacted counts what it would have held. With a sink, the run
// is bracketed in a "compaction" phase span whose PhaseEnd carries the
// compacted count, and a cut emits a deadline_hit event labeled with
// cfg.Group.
func (c *Corpus) Compact(ctx context.Context, idx []int32, cfg Config) ([]*sifault.Pattern, Stats, bool) {
	span := obs.Span(cfg.Sink, "compaction")
	var stats Stats
	for _, ci := range idx {
		stats.Original += int64(c.weight[ci])
	}
	var out []*sifault.Pattern
	rest := 0
	if len(idx) > 0 {
		out, stats.Passes, rest = newFFEngine(c, idx).run(ctx, !cfg.CountOnly)
	}
	stats.Compacted = stats.Passes + rest
	cut := rest > 0
	if cfg.Sink != nil {
		if cut {
			cfg.Sink.Emit(obs.Event{Type: obs.DeadlineHit, Phase: "compaction", Group: cfg.Group, Cause: obs.CtxCause(ctx.Err())})
		}
		span.End(0, int64(stats.Compacted))
	}
	return out, stats, cut
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
