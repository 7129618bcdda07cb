package compaction

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"sitam/internal/sifault"
	"sitam/internal/soc"
)

// Differential coverage for the word-parallel bitset greedy against
// the scalar per-position reference: the two implementations must
// produce byte-identical compacted pattern sets on real fixtures, on
// fuzzed generator inputs, and the packed conflict check must agree
// with the pairwise Compatible predicate.

func samePatternSets(t *testing.T, got, want []*sifault.Pattern) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("compacted %d patterns, scalar %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Weight != w.Weight || g.VictimPos != w.VictimPos || g.VictimCore != w.VictimCore {
			t.Fatalf("pattern %d: header (%d,%d,%d) vs (%d,%d,%d)",
				i, g.Weight, g.VictimPos, g.VictimCore, w.Weight, w.VictimPos, w.VictimCore)
		}
		if len(g.Care) != len(w.Care) {
			t.Fatalf("pattern %d: %d care entries, scalar %d", i, len(g.Care), len(w.Care))
		}
		for j := range w.Care {
			if g.Care[j] != w.Care[j] {
				t.Fatalf("pattern %d care %d: %+v vs %+v", i, j, g.Care[j], w.Care[j])
			}
		}
		if len(g.Bus) != len(w.Bus) {
			t.Fatalf("pattern %d: %d bus uses, scalar %d", i, len(g.Bus), len(w.Bus))
		}
		for j := range w.Bus {
			if g.Bus[j] != w.Bus[j] {
				t.Fatalf("pattern %d bus %d: %+v vs %+v", i, j, g.Bus[j], w.Bus[j])
			}
		}
	}
}

// TestGreedyBitsetMatchesScalar pins GreedyWith to the scalar
// reference on generated corpora: the default generator mix on every
// benchmark SOC, and a core-local corpus (no bus, no external
// aggressors) in which every pattern cares about one core only.
func TestGreedyBitsetMatchesScalar(t *testing.T) {
	cases := []struct {
		fixture string
		cfg     sifault.GenConfig
	}{
		{"d695", sifault.GenConfig{N: 3000, Seed: 1}},
		{"d695", sifault.GenConfig{N: 3000, Seed: 2}},
		{"d695", sifault.GenConfig{N: 500, Seed: 3}},
		{"d695", sifault.GenConfig{N: 2500, Seed: 7, BusProb: -1, ExternalProb: -1}},
		{"p34392", sifault.GenConfig{N: 2000, Seed: 1}},
		{"p93791", sifault.GenConfig{N: 2000, Seed: 5}},
	}
	for _, tc := range cases {
		if testing.Short() && tc.fixture != "d695" {
			continue
		}
		name := fmt.Sprintf("%s/N=%d/seed=%d", tc.fixture, tc.cfg.N, tc.cfg.Seed)
		s := soc.MustLoadBenchmark(tc.fixture)
		patterns, err := sifault.Generate(s, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		sp := sifault.NewSpace(s)
		ctx := context.Background()
		want, wantStats, wantCut := greedyScalar(ctx, sp, patterns)
		if wantCut {
			t.Fatalf("%s: unexpected scalar cut", name)
		}
		got, gotStats, gotCut := GreedyWith(ctx, sp, patterns, Config{})
		if gotCut {
			t.Fatalf("%s: unexpected cut", name)
		}
		if gotStats != wantStats {
			t.Errorf("%s: stats %+v vs scalar %+v", name, gotStats, wantStats)
		}
		samePatternSets(t, got, want)
	}
}

// TestGreedyCancelledMatchesScalar pins the graceful-degradation path:
// with an already-expired context both implementations pass the whole
// input through unmerged and report the cut.
func TestGreedyCancelledMatchesScalar(t *testing.T) {
	s := soc.MustLoadBenchmark("d695")
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp := sifault.NewSpace(s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, _, gotCut := GreedyWith(ctx, sp, patterns, Config{})
	want, _, wantCut := greedyScalar(ctx, sp, patterns)
	if !gotCut || !wantCut {
		t.Fatalf("cut not reported (bitset %v, scalar %v)", gotCut, wantCut)
	}
	samePatternSets(t, got, want)
	if len(got) != len(patterns) {
		t.Errorf("cancelled run emitted %d patterns, want the full %d pass-through", len(got), len(patterns))
	}
}

// TestBitsetCompatibleMatchesPairwise checks the packed conflict
// formula against the pairwise Compatible predicate over generated
// pattern pairs, including the bus pseudo-word encoding.
func TestBitsetCompatibleMatchesPairwise(t *testing.T) {
	s := soc.MustLoadBenchmark("d695")
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: 300, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sp := sifault.NewSpace(s)
	acc := newBitsetAccumulator(sp.Total(), sp.BusWidth())
	itemsOf := packPatterns(patterns, acc.busBase)
	checked, conflicts := 0, 0
	for i := 0; i < len(patterns); i++ {
		for j := i + 1; j < len(patterns) && j < i+40; j++ {
			acc.reset()
			acc.merge(itemsOf[i])
			got := acc.compatible(itemsOf[j])
			want := Compatible(patterns[i], patterns[j])
			if got != want {
				t.Fatalf("patterns %d,%d: packed compatible = %v, pairwise = %v", i, j, got, want)
			}
			checked++
			if !got {
				conflicts++
			}
		}
	}
	if conflicts == 0 || conflicts == checked {
		t.Fatalf("degenerate corpus: %d/%d conflicts", conflicts, checked)
	}
}

// FuzzGreedyMatchesScalar cross-checks the two greedy implementations
// on generator outputs across fuzzed sizes and seeds.
func FuzzGreedyMatchesScalar(f *testing.F) {
	f.Add(uint16(50), int64(1))
	f.Add(uint16(333), int64(99))
	f.Add(uint16(1), int64(0))
	f.Fuzz(func(t *testing.T, n uint16, seed int64) {
		s := soc.MustLoadBenchmark("d695")
		cfg := sifault.GenConfig{N: int(n%500) + 1, Seed: seed}
		if seed%3 == 0 {
			// A third of the corpus is core-local: no bus, no external
			// aggressors.
			cfg.BusProb = -1
			cfg.ExternalProb = -1
		}
		patterns, err := sifault.Generate(s, cfg)
		if err != nil {
			t.Skip()
		}
		sp := sifault.NewSpace(s)
		ctx := context.Background()
		want, wantStats, _ := greedyScalar(ctx, sp, patterns)
		got, gotStats, _ := GreedyWith(ctx, sp, patterns, Config{})
		if gotStats != wantStats {
			t.Fatalf("stats %+v vs scalar %+v", gotStats, wantStats)
		}
		samePatternSets(t, got, want)
	})
}

// FuzzCorpusSubsetMatchesScalar cross-checks a run over an index list
// into a shared corpus against the scalar reference over the listed
// patterns: one corpus, packed on two goroutines from a mix of the
// default and the core-local generator, and a fuzzed subset in fuzzed
// order. Stats and patterns must match, and so must the pass-through
// of an already-cancelled run.
func FuzzCorpusSubsetMatchesScalar(f *testing.F) {
	s := soc.MustLoadBenchmark("d695")
	mixed, err := sifault.Generate(s, sifault.GenConfig{N: 1500, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	local, err := sifault.Generate(s, sifault.GenConfig{N: 1000, Seed: 4, BusProb: -1, ExternalProb: -1})
	if err != nil {
		f.Fatal(err)
	}
	patterns := append(mixed, local...)
	sp := sifault.NewSpace(s)
	c, err := NewCorpus(sp, patterns, 2)
	if err != nil {
		f.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	f.Add(int64(1), uint16(300))
	f.Add(int64(2), uint16(0))
	f.Add(int64(3), uint16(399))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		perm := rand.New(rand.NewSource(seed)).Perm(len(patterns))[:int(n%400)+1]
		idx := make([]int32, len(perm))
		subset := make([]*sifault.Pattern, len(perm))
		for i, pi := range perm {
			idx[i] = int32(pi)
			subset[i] = patterns[pi]
		}
		for _, ctx := range []context.Context{context.Background(), cancelled} {
			want, wantStats, wantCut := greedyScalar(ctx, sp, subset)
			got, gotStats, gotCut := c.Compact(ctx, idx, Config{})
			if gotStats != wantStats || gotCut != wantCut {
				t.Fatalf("stats %+v cut %v vs scalar %+v cut %v", gotStats, gotCut, wantStats, wantCut)
			}
			samePatternSets(t, got, want)
		}
	})
}
