package compaction

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"sitam/internal/sifault"
	"sitam/internal/soc"
)

func miniSOC() *soc.SOC {
	return &soc.SOC{
		Name:     "mini",
		BusWidth: 4,
		CoreList: []*soc.Core{
			{ID: 1, Inputs: 2, Outputs: 4, Patterns: 1},
			{ID: 2, Inputs: 2, Outputs: 4, Patterns: 1},
			{ID: 3, Inputs: 2, Outputs: 4, Patterns: 1},
		},
	}
}

func pat(weight int32, care []sifault.Care, bus []sifault.BusUse) *sifault.Pattern {
	return &sifault.Pattern{Care: care, Bus: bus, VictimPos: -1, VictimCore: -1, Weight: weight}
}

func TestCompatibleSymbols(t *testing.T) {
	a := pat(1, []sifault.Care{{Pos: 0, Sym: sifault.Rise}, {Pos: 5, Sym: sifault.Zero}}, nil)
	b := pat(1, []sifault.Care{{Pos: 1, Sym: sifault.Fall}, {Pos: 5, Sym: sifault.Zero}}, nil)
	c := pat(1, []sifault.Care{{Pos: 5, Sym: sifault.One}}, nil)
	if !Compatible(a, b) {
		t.Error("a,b should be compatible (disjoint + equal overlap)")
	}
	if Compatible(a, c) {
		t.Error("a,c conflict at position 5 (0 vs 1)")
	}
}

func TestCompatibleBusRule(t *testing.T) {
	// Same line, same driver: compatible. Same line, different driver:
	// not (Section 3's shared-bus rule).
	a := pat(1, []sifault.Care{{Pos: 0, Sym: sifault.Rise}}, []sifault.BusUse{{Line: 2, Driver: 1}})
	b := pat(1, []sifault.Care{{Pos: 1, Sym: sifault.Rise}}, []sifault.BusUse{{Line: 2, Driver: 1}})
	c := pat(1, []sifault.Care{{Pos: 4, Sym: sifault.Rise}}, []sifault.BusUse{{Line: 2, Driver: 2}})
	d := pat(1, []sifault.Care{{Pos: 8, Sym: sifault.Rise}}, []sifault.BusUse{{Line: 3, Driver: 3}})
	if !Compatible(a, b) {
		t.Error("same line same driver should merge")
	}
	if Compatible(a, c) {
		t.Error("same line different driver must not merge")
	}
	if !Compatible(a, d) {
		t.Error("different lines should merge")
	}
}

func TestMerge(t *testing.T) {
	a := pat(2, []sifault.Care{{Pos: 0, Sym: sifault.Rise}, {Pos: 5, Sym: sifault.Zero}},
		[]sifault.BusUse{{Line: 1, Driver: 1}})
	b := pat(3, []sifault.Care{{Pos: 3, Sym: sifault.Fall}, {Pos: 5, Sym: sifault.Zero}},
		[]sifault.BusUse{{Line: 1, Driver: 1}, {Line: 3, Driver: 1}})
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Weight != 5 {
		t.Errorf("Weight = %d, want 5", m.Weight)
	}
	if len(m.Care) != 3 {
		t.Fatalf("Care = %v", m.Care)
	}
	wantCare := []sifault.Care{{Pos: 0, Sym: sifault.Rise}, {Pos: 3, Sym: sifault.Fall}, {Pos: 5, Sym: sifault.Zero}}
	for i, c := range m.Care {
		if c != wantCare[i] {
			t.Errorf("Care[%d] = %v, want %v", i, c, wantCare[i])
		}
	}
	if len(m.Bus) != 2 || m.Bus[0].Line != 1 || m.Bus[1].Line != 3 {
		t.Errorf("Bus = %v", m.Bus)
	}

	c := pat(1, []sifault.Care{{Pos: 0, Sym: sifault.Fall}}, nil)
	if _, err := Merge(a, c); err == nil {
		t.Error("Merge accepted incompatible patterns")
	}
}

func TestGreedySmall(t *testing.T) {
	sp := sifault.NewSpace(miniSOC())
	patterns := []*sifault.Pattern{
		pat(1, []sifault.Care{{Pos: 0, Sym: sifault.Rise}}, nil),
		pat(1, []sifault.Care{{Pos: 1, Sym: sifault.Fall}}, nil),
		pat(1, []sifault.Care{{Pos: 0, Sym: sifault.Fall}}, nil), // conflicts with #0
		pat(1, []sifault.Care{{Pos: 2, Sym: sifault.One}}, nil),
	}
	out, stats := Greedy(sp, patterns)
	if stats.Original != 4 {
		t.Errorf("Original = %d", stats.Original)
	}
	if len(out) != 2 {
		t.Fatalf("Compacted = %d, want 2 (patterns 0,1,3 merge; 2 alone)", len(out))
	}
	if out[0].Weight != 3 || out[1].Weight != 1 {
		t.Errorf("weights = %d,%d, want 3,1", out[0].Weight, out[1].Weight)
	}
	if stats.Ratio() != 2.0 {
		t.Errorf("Ratio = %v", stats.Ratio())
	}
}

func TestGreedyEmpty(t *testing.T) {
	sp := sifault.NewSpace(miniSOC())
	out, stats := Greedy(sp, nil)
	if len(out) != 0 || stats.Original != 0 || stats.Compacted != 0 {
		t.Errorf("Greedy(nil) = %v, %+v", out, stats)
	}
	if stats.Ratio() != 0 {
		t.Errorf("empty Ratio = %v", stats.Ratio())
	}
}

// randomPatterns generates patterns through the real generator for
// property tests.
func randomPatterns(t *testing.T, n int, seed int64) (*sifault.Space, []*sifault.Pattern) {
	t.Helper()
	s := miniSOC()
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return sifault.NewSpace(s), patterns
}

func TestGreedyInvariants(t *testing.T) {
	f := func(seed int64) bool {
		sp, patterns := randomPatterns(t, 60, seed)
		out, stats := Greedy(sp, patterns)
		// Weight conservation.
		var wantW, gotW int64
		for _, p := range patterns {
			wantW += int64(p.Weight)
		}
		for _, p := range out {
			gotW += int64(p.Weight)
			if err := p.Validate(sp); err != nil {
				t.Logf("invalid merged pattern: %v", err)
				return false
			}
		}
		if gotW != wantW || stats.Original != wantW {
			return false
		}
		// Every original pattern is covered by (compatible with, and
		// subsumed by) at least one merged pattern.
		for _, p := range patterns {
			covered := false
			for _, m := range out {
				if subsumes(m, p) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return len(out) <= len(patterns)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// subsumes reports whether merged pattern m determines every care bit of
// p with the same symbol and covers its bus usage.
func subsumes(m, p *sifault.Pattern) bool {
	for _, c := range p.Care {
		if m.SymbolAt(c.Pos) != c.Sym {
			return false
		}
	}
	for _, b := range p.Bus {
		found := false
		for _, mb := range m.Bus {
			if mb.Line == b.Line && mb.Driver == b.Driver {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func TestGreedyIdempotent(t *testing.T) {
	sp, patterns := randomPatterns(t, 200, 11)
	once, s1 := Greedy(sp, patterns)
	twice, s2 := Greedy(sp, once)
	// Merged patterns of one greedy pass are mutually incompatible, so
	// a second pass is a no-op.
	if s2.Compacted != s1.Compacted || len(twice) != len(once) {
		t.Errorf("second pass changed count: %d -> %d", s1.Compacted, s2.Compacted)
	}
}

func TestGreedyOutputMutuallyIncompatible(t *testing.T) {
	sp, patterns := randomPatterns(t, 300, 13)
	out, _ := Greedy(sp, patterns)
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if Compatible(out[i], out[j]) {
				// Greedy guarantees pattern j was incompatible with the
				// accumulated pattern i at the time; the final merged
				// patterns can occasionally be compatible again only if
				// intermediate merges introduced then removed conflicts,
				// which cannot happen (merging only adds constraints).
				t.Errorf("merged patterns %d and %d are still compatible", i, j)
			}
		}
	}
}

func TestDSATURMatchesOrBeatsGreedyOnSmall(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		sp, patterns := randomPatterns(t, 40, seed)
		_, gs := Greedy(sp, patterns)
		_, ds, err := DSATUR(patterns)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Compacted > gs.Compacted+3 {
			t.Errorf("seed %d: DSATUR %d much worse than greedy %d", seed, ds.Compacted, gs.Compacted)
		}
		if ds.Original != gs.Original {
			t.Errorf("seed %d: weight mismatch %d vs %d", seed, ds.Original, gs.Original)
		}
	}
}

func TestExactIsLowerBound(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		sp, patterns := randomPatterns(t, 12, seed)
		_, gs := Greedy(sp, patterns)
		_, ds, err := DSATUR(patterns)
		if err != nil {
			t.Fatal(err)
		}
		_, es, err := Exact(patterns)
		if err != nil {
			t.Fatal(err)
		}
		if es.Compacted > gs.Compacted || es.Compacted > ds.Compacted {
			t.Errorf("seed %d: exact %d worse than greedy %d / DSATUR %d",
				seed, es.Compacted, gs.Compacted, ds.Compacted)
		}
	}
}

func TestExactRejectsLarge(t *testing.T) {
	_, patterns := randomPatterns(t, 30, 1)
	if _, _, err := Exact(patterns); err == nil {
		t.Error("Exact accepted 30 patterns")
	}
}

func TestExactEmpty(t *testing.T) {
	out, stats, err := Exact(nil)
	if err != nil || len(out) != 0 || stats.Compacted != 0 {
		t.Errorf("Exact(nil) = %v, %+v, %v", out, stats, err)
	}
	out, stats, err = DSATUR(nil)
	if err != nil || len(out) != 0 || stats.Compacted != 0 {
		t.Errorf("DSATUR(nil) = %v, %+v, %v", out, stats, err)
	}
}

func TestPairwiseImpliesSetwise(t *testing.T) {
	// The package comment's claim: any pairwise-compatible set merges
	// cleanly. Check on random triples.
	rng := rand.New(rand.NewSource(3))
	sp, patterns := randomPatterns(t, 120, 17)
	_ = sp
	for trial := 0; trial < 2000; trial++ {
		i, j, k := rng.Intn(len(patterns)), rng.Intn(len(patterns)), rng.Intn(len(patterns))
		a, b, c := patterns[i], patterns[j], patterns[k]
		if Compatible(a, b) && Compatible(b, c) && Compatible(a, c) {
			ab, err := Merge(a, b)
			if err != nil {
				t.Fatalf("a,b compatible but Merge failed: %v", err)
			}
			if !Compatible(ab, c) {
				t.Fatalf("pairwise-compatible triple not setwise mergeable (trial %d)", trial)
			}
			if _, err := Merge(ab, c); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPackArenaExactSize pins the corpus's word arena to the packed
// word count: one PackedWord per distinct 64-position word of a care
// list, not one per care position, at one packing goroutine and at
// several.
func TestPackArenaExactSize(t *testing.T) {
	s := soc.MustLoadBenchmark("p93791")
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: 5000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		c, err := NewCorpus(sifault.NewSpace(s), patterns, workers)
		if err != nil {
			t.Fatal(err)
		}
		packedWords, care := 0, 0
		for pi, p := range patterns {
			want := sifault.AppendPackedWords(nil, p)
			words := c.wordsOf(int32(pi))
			if len(words) != len(want) || cap(words) != len(want) {
				t.Fatalf("workers=%d pattern %d: view len %d cap %d, want %d words", workers, pi, len(words), cap(words), len(want))
			}
			for i := range want {
				if words[i] != want[i] {
					t.Fatalf("workers=%d pattern %d word %d: %+v, want %+v", workers, pi, i, words[i], want[i])
				}
			}
			packedWords += len(want)
			care += len(p.Care)
		}
		if len(c.words) != packedWords || cap(c.words) != packedWords {
			t.Errorf("workers=%d: arena len %d cap %d, want %d packed words (care count %d)", workers, len(c.words), cap(c.words), packedWords, care)
		}
		if packedWords*2 > care {
			t.Fatalf("degenerate corpus: %d packed words for %d care positions", packedWords, care)
		}
	}
}

// TestCorpusSameAtAnyWorkerCount pins the chunked packing to the
// serial one: every arena, offset, class and care set is the same
// whatever the number of packing goroutines.
func TestCorpusSameAtAnyWorkerCount(t *testing.T) {
	s := soc.MustLoadBenchmark("p34392")
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: 5000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sp := sifault.NewSpace(s)
	want, err := NewCorpus(sp, patterns, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		got, err := NewCorpus(sp, patterns, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: corpus differs from the serial packing", workers)
		}
	}
	bad := append(append([]*sifault.Pattern(nil), patterns...), pat(1, nil, nil))
	if _, err := NewCorpus(sp, bad, 3); err == nil || !strings.Contains(err.Error(), "pattern 5000") {
		t.Errorf("pattern without care: err = %v, want one naming pattern 5000", err)
	}
}

// TestCorpusCareSets checks the corpus walk's care sets against
// sifault's CareCores: every pattern's care set names its care cores,
// and each set's weight and count add up over its patterns.
func TestCorpusCareSets(t *testing.T) {
	s := soc.MustLoadBenchmark("p93791")
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: 3000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sp := sifault.NewSpace(s)
	c, err := NewCorpus(sp, patterns, 2)
	if err != nil {
		t.Fatal(err)
	}
	sets := c.CareSets()
	weight := make([]int64, len(sets))
	count := make([]int, len(sets))
	for i, p := range patterns {
		set := c.CareSetOf(i)
		weight[set] += int64(p.Weight)
		count[set]++
		var ids []int
		for _, b := range sets[set].Blocks {
			ids = append(ids, sp.CoreOrder()[b])
		}
		if want := p.CareCores(sp); !reflect.DeepEqual(ids, want) {
			t.Fatalf("pattern %d: care set cores %v, CareCores %v", i, ids, want)
		}
	}
	for i, set := range sets {
		if set.Weight != weight[i] || set.Patterns != count[i] {
			t.Errorf("care set %d: weight %d patterns %d, want %d and %d", i, set.Weight, set.Patterns, weight[i], count[i])
		}
	}
}
