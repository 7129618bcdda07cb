package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sitam/internal/obs"
	"sitam/internal/sifault"
	"sitam/internal/soc"
)

func TestBuildGroupsValidation(t *testing.T) {
	s := smallSOC()
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildGroupsCtx(context.Background(), s, patterns, GroupingOptions{Parts: 0}); err == nil {
		t.Error("accepted Parts=0")
	}
	if _, err := BuildGroupsCtx(context.Background(), s, patterns, GroupingOptions{Parts: 99}); err == nil {
		t.Error("accepted Parts > core count")
	}
	// A pattern without care positions has no care core and belongs to
	// no group: an error naming it, at any partition count.
	empty := append(append([]*sifault.Pattern(nil), patterns...), &sifault.Pattern{VictimPos: -1, VictimCore: -1, Weight: 1})
	for _, parts := range []int{1, 2} {
		_, err := BuildGroupsCtx(context.Background(), s, empty, GroupingOptions{Parts: parts})
		if err == nil || !strings.Contains(err.Error(), "pattern 100") {
			t.Errorf("Parts=%d: pattern without care positions: err = %v, want one naming pattern 100", parts, err)
		}
	}
}

func TestBuildGroupsSinglePart(t *testing.T) {
	s := smallSOC()
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: 500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := BuildGroupsCtx(context.Background(), s, patterns, GroupingOptions{Parts: 1, Seed: 2, KeepPatterns: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(gr.Groups) != 1 {
		t.Fatalf("g=1 produced %d groups", len(gr.Groups))
	}
	if gr.CutPatterns != 0 {
		t.Errorf("g=1 has %d residual patterns", gr.CutPatterns)
	}
	if gr.Stats.Original != 500 {
		t.Errorf("Original = %d", gr.Stats.Original)
	}
	if gr.Groups[0].Patterns != int64(len(gr.GroupPatterns[0])) {
		t.Errorf("group pattern count %d != %d", gr.Groups[0].Patterns, len(gr.GroupPatterns[0]))
	}
}

func TestBuildGroupsPartitionInvariants(t *testing.T) {
	s := soc.MustLoadBenchmark("p34392")
	sp := sifault.NewSpace(s)
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: 3000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{2, 4, 8} {
		gr, err := BuildGroupsCtx(context.Background(), s, patterns, GroupingOptions{Parts: parts, Seed: 4, KeepPatterns: true})
		if err != nil {
			t.Fatal(err)
		}
		// Every core assigned to exactly one part in range.
		if len(gr.PartOf) != s.NumCores() {
			t.Fatalf("parts=%d: PartOf covers %d cores", parts, len(gr.PartOf))
		}
		for id, p := range gr.PartOf {
			if p < 0 || p >= parts {
				t.Fatalf("parts=%d: core %d in part %d", parts, id, p)
			}
		}
		// Weight conservation across all groups.
		var weight int64
		for _, ps := range gr.GroupPatterns {
			for _, p := range ps {
				weight += int64(p.Weight)
				if err := p.Validate(sp); err != nil {
					t.Fatalf("parts=%d: %v", parts, err)
				}
			}
		}
		if weight != 3000 {
			t.Errorf("parts=%d: weight %d != 3000", parts, weight)
		}
		// Non-residual groups stay within one part; their care cores
		// are a subset of the group's declared cores.
		for gi, g := range gr.Groups {
			declared := map[int]bool{}
			for _, id := range g.Cores {
				declared[id] = true
			}
			var wantPart = -1
			for _, p := range gr.GroupPatterns[gi] {
				for _, id := range p.CareCores(sp) {
					if !declared[id] {
						t.Fatalf("parts=%d group %s: pattern cares about undeclared core %d", parts, g.Name, id)
					}
					if g.Name != "RES" {
						if wantPart < 0 {
							wantPart = gr.PartOf[id]
						} else if gr.PartOf[id] != wantPart {
							t.Fatalf("parts=%d group %s: spans parts %d and %d", parts, g.Name, wantPart, gr.PartOf[id])
						}
					}
				}
			}
		}
		// Residual (if any) is first and counts match.
		if parts > 1 && len(gr.Groups) > 0 && gr.CutPatterns > 0 {
			if gr.Groups[0].Name != "RES" {
				t.Errorf("parts=%d: first group is %s, want RES", parts, gr.Groups[0].Name)
			}
			var resWeight int64
			for _, p := range gr.GroupPatterns[0] {
				resWeight += int64(p.Weight)
			}
			if resWeight != gr.CutPatterns {
				t.Errorf("parts=%d: residual weight %d != CutPatterns %d", parts, resWeight, gr.CutPatterns)
			}
		}
	}
}

func TestBuildGroupsDeterministic(t *testing.T) {
	s := smallSOC()
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: 800, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	a, err := BuildGroupsCtx(context.Background(), s, patterns, GroupingOptions{Parts: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildGroupsCtx(context.Background(), s, patterns, GroupingOptions{Parts: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCompacted() != b.TotalCompacted() || a.CutPatterns != b.CutPatterns {
		t.Error("BuildGroups not deterministic")
	}
	for id, p := range a.PartOf {
		if b.PartOf[id] != p {
			t.Errorf("core %d part differs", id)
		}
	}
}

func TestGroupingReducesPatternLengthWork(t *testing.T) {
	// The point of horizontal compaction: with g parts, most patterns
	// involve far fewer cores than the whole SOC.
	s := soc.MustLoadBenchmark("p93791")
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: 2000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	gr1, err := BuildGroupsCtx(context.Background(), s, patterns, GroupingOptions{Parts: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	gr4, err := BuildGroupsCtx(context.Background(), s, patterns, GroupingOptions{Parts: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(gr1.Groups[0].Cores) != s.NumCores() {
		t.Errorf("g=1 group involves %d cores, want all %d", len(gr1.Groups[0].Cores), s.NumCores())
	}
	// At least one non-residual g=4 group involves at most half the cores.
	small := false
	for _, g := range gr4.Groups {
		if g.Name != "RES" && len(g.Cores) <= s.NumCores()/2 {
			small = true
		}
	}
	if !small {
		t.Error("g=4 produced no small core groups")
	}
}

// TestBuildGroupsWorkersAgree pins concurrent bucket compaction to the
// serial run: every GroupingResult field, the canonical trace and the
// metrics snapshot are the same at CompactWorkers 1, 2 and 8, for every
// grouping count, on the benchmark SOCs and on a SOC whose core list is
// not in core-ID order. One corpus per case, packed on two goroutines
// and grouped at every count as the sweep groups it, gives the same
// results as the one-shot runs. compact_runs counts every group.
func TestBuildGroupsWorkersAgree(t *testing.T) {
	p93791 := soc.MustLoadBenchmark("p93791")
	permuted := *p93791
	permuted.Name = "p93791-permuted"
	permuted.CoreList = append([]*soc.Core(nil), p93791.CoreList...)
	rand.New(rand.NewSource(5)).Shuffle(len(permuted.CoreList), func(i, j int) {
		permuted.CoreList[i], permuted.CoreList[j] = permuted.CoreList[j], permuted.CoreList[i]
	})
	cases := []struct {
		s  *soc.SOC
		nr int
	}{
		{soc.MustLoadBenchmark("d695"), 2000},
		{soc.MustLoadBenchmark("p34392"), 2500},
		{p93791, 3000},
		{&permuted, 2000},
	}
	ctx := context.Background()
	type run struct {
		name    string
		workers int
		shared  bool // group the case's one corpus, as the sweep does
	}
	runs := []run{{"workers=1", 1, false}, {"workers=2", 2, false}, {"workers=8", 8, false}, {"shared corpus", 1, true}}
	for _, tc := range cases {
		patterns, err := sifault.Generate(tc.s, sifault.GenConfig{N: tc.nr, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		shared, err := NewCorpus(tc.s, patterns, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []int{1, 2, 4, 8} {
			name := fmt.Sprintf("%s/nr%d/g%d", tc.s.Name, tc.nr, g)
			var wantGR *GroupingResult
			var wantTrace []obs.Event
			var wantSnap *obs.Snapshot
			for _, r := range runs {
				tr, reg := obs.NewTracer(), obs.NewRegistry()
				opts := GroupingOptions{
					Parts: g, Seed: 3, Trace: tr, Metrics: reg, CompactWorkers: r.workers, KeepPatterns: true,
				}
				var gr *GroupingResult
				if r.shared {
					gr, err = shared.Group(ctx, opts)
				} else {
					gr, err = BuildGroupsCtx(ctx, tc.s, patterns, opts)
				}
				if err != nil {
					t.Fatalf("%s %s: %v", name, r.name, err)
				}
				var trace []obs.Event
				for _, ev := range tr.Events() {
					trace = append(trace, ev.Canonical())
				}
				snap := reg.Snapshot()
				if got := snap.Counter("compact_runs"); got != int64(len(gr.Groups)) {
					t.Errorf("%s %s: compact_runs = %d, want one per group (%d)", name, r.name, got, len(gr.Groups))
				}
				if wantGR == nil {
					wantGR, wantTrace, wantSnap = gr, trace, snap
					continue
				}
				if !sameGrouping(gr, wantGR) {
					t.Errorf("%s %s: grouping differs from the serial run", name, r.name)
				}
				if !slices.Equal(trace, wantTrace) {
					t.Errorf("%s %s: trace differs from the serial run (%d vs %d events)", name, r.name, len(trace), len(wantTrace))
				}
				if !reflect.DeepEqual(snap, wantSnap) {
					t.Errorf("%s %s: metrics %+v, serial %+v", name, r.name, snap, wantSnap)
				}
			}
		}
	}
}

// sameGrouping compares every field of two groupings, the compacted
// patterns by value.
func sameGrouping(a, b *GroupingResult) bool {
	samePattern := func(p, q *sifault.Pattern) bool {
		return p.VictimPos == q.VictimPos && p.VictimCore == q.VictimCore && p.Weight == q.Weight &&
			slices.Equal(p.Care, q.Care) && slices.Equal(p.Bus, q.Bus)
	}
	samePatterns := func(ps, qs []*sifault.Pattern) bool { return slices.EqualFunc(ps, qs, samePattern) }
	if !slices.EqualFunc(a.GroupPatterns, b.GroupPatterns, samePatterns) {
		return false
	}
	ac, bc := *a, *b
	ac.GroupPatterns, bc.GroupPatterns = nil, nil
	return reflect.DeepEqual(ac, bc)
}

// TestBuildGroupsCountOnly pins count-only grouping to a KeepPatterns
// grouping: the same groups, statistics, residual, partition, anytime
// status and canonical trace, and no patterns. It covers the benchmark
// SOCs at every grouping count, run to completion and cut midway by a
// countdown context.
func TestBuildGroupsCountOnly(t *testing.T) {
	cases := []struct {
		name string
		nr   int
	}{{"d695", 2000}, {"p34392", 2500}, {"p93791", 3000}}
	for _, tc := range cases {
		s := soc.MustLoadBenchmark(tc.name)
		patterns, err := sifault.Generate(s, sifault.GenConfig{N: tc.nr, Seed: 12})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []int{1, 2, 4, 8} {
			polls := &countingCtx{Context: context.Background()}
			if _, err := BuildGroupsCtx(polls, s, patterns, GroupingOptions{Parts: g, Seed: 5, CompactWorkers: 1}); err != nil {
				t.Fatal(err)
			}
			for _, cut := range []bool{false, true} {
				name := fmt.Sprintf("%s/g%d/cut=%v", tc.name, g, cut)
				build := func(keep bool) (*GroupingResult, []obs.Event) {
					var ctx context.Context = context.Background()
					if cut {
						ctx = newCountdown(polls.calls / 2)
					}
					tr := obs.NewTracer()
					gr, err := BuildGroupsCtx(ctx, s, patterns, GroupingOptions{
						Parts: g, Seed: 5, CompactWorkers: 1, Trace: tr, KeepPatterns: keep,
					})
					if err != nil {
						t.Fatalf("%s keep=%v: %v", name, keep, err)
					}
					var trace []obs.Event
					for _, ev := range tr.Events() {
						trace = append(trace, ev.Canonical())
					}
					return gr, trace
				}
				kept, keptTrace := build(true)
				counted, countedTrace := build(false)
				if kept.Partial != cut {
					t.Fatalf("%s: Partial = %v", name, kept.Partial)
				}
				if counted.GroupPatterns != nil {
					t.Errorf("%s: count-only grouping kept %d pattern lists", name, len(counted.GroupPatterns))
				}
				n := 0
				for i, ps := range kept.GroupPatterns {
					n += len(ps)
					if kept.Groups[i].Patterns != int64(len(ps)) {
						t.Errorf("%s: group %s counts %d patterns, holds %d", name, kept.Groups[i].Name, kept.Groups[i].Patterns, len(ps))
					}
				}
				if kept.TotalCompacted() != n || counted.TotalCompacted() != n || counted.Stats.Compacted != n {
					t.Errorf("%s: TotalCompacted %d (count-only %d, Stats %d), kept patterns %d",
						name, kept.TotalCompacted(), counted.TotalCompacted(), counted.Stats.Compacted, n)
				}
				k := *kept
				k.GroupPatterns = nil
				if !reflect.DeepEqual(&k, counted) {
					t.Errorf("%s: count-only grouping differs from the kept one", name)
				}
				if !slices.Equal(countedTrace, keptTrace) {
					t.Errorf("%s: count-only trace differs (%d vs %d events)", name, len(countedTrace), len(keptTrace))
				}
			}
		}
	}
}

// TestGenerateCorpusMatchesNewCorpus is the core half of compaction's
// test of the same name: a corpus drawn straight from the generator
// has the hypergraph, and so the groupings, of NewCorpus over
// GenerateCtx's patterns, on the embedded SOCs under the default
// configuration, the settings that change which blocks are full or
// loose and whether the bus is used, and the smallest counts.
func TestGenerateCorpusMatchesNewCorpus(t *testing.T) {
	configs := []sifault.GenConfig{
		{N: 3000, Seed: 1},
		{N: 3000, Seed: 2, QuiesceProb: 0.5},
		{N: 3000, Seed: 3, QuiesceProb: -1},
		{N: 3000, Seed: 4, BusProb: -1},
		{N: 3000, Seed: 5, ExternalLocality: -1, MaxExternal: -1, ExternalProb: 0.9},
		{N: 0, Seed: 6},
		{N: 1, Seed: 7},
	}
	ctx := context.Background()
	for _, name := range []string{"d695", "p34392", "p93791"} {
		s := soc.MustLoadBenchmark(name)
		for _, cfg := range configs {
			got, cut, err := GenerateCorpus(ctx, s, cfg)
			if err != nil || cut {
				t.Fatalf("%s %+v: GenerateCorpus cut %v, err %v", name, cfg, cut, err)
			}
			patterns, _, err := sifault.GenerateCtx(ctx, s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewCorpus(s, patterns, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != want.Len() || !reflect.DeepEqual(got.h, want.h) {
				t.Fatalf("%s %+v: %d patterns and hypergraph %+v, NewCorpus %d and %+v", name, cfg, got.Len(), got.h, want.Len(), want.h)
			}
			if cfg.N == 0 {
				continue
			}
			opts := GroupingOptions{Parts: 4, Seed: cfg.Seed, CompactWorkers: 1}
			gotGR, err := got.Group(ctx, opts)
			if err != nil {
				t.Fatal(err)
			}
			wantGR, err := want.Group(ctx, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !sameGrouping(gotGR, wantGR) {
				t.Fatalf("%s %+v: grouping differs from NewCorpus's", name, cfg)
			}
		}
	}
}
