package core

import (
	"context"
	"testing"

	"sitam/internal/sifault"
	"sitam/internal/sischedule"
	"sitam/internal/soc"
	"sitam/internal/tam"
)

// Differential harness for the worker count and the cache: for every
// embedded SOC fixture and W_max in {8, 16, 32, 64}, the configured
// engine at workers = 1, 2 and 8 (with memoization on) must return the
// same T_soc and a byte-identical architecture dump as the serial,
// cache-free engine — including the ILS path with fixed seeds. The
// expected objectives are pinned to the values the pre-parallel engine
// produced, so the harness also detects behavioral drift of the serial
// path itself.

const (
	diffNr    = 1200
	diffParts = 3
	diffSeed  = 1
	diffILSW  = 16 // W_max for the ILS differential runs
	ilsKicks  = 4
	ilsSeed   = 7
)

var diffWidths = []int{8, 16, 32, 64}

// diffGolden pins T_soc per fixture and width, plus the ILS objective
// at diffILSW, as produced by the serial engine of the seed revision
// (Nr=1200, Parts=3, seed=1; ILS kicks=4, seed=7).
var diffGolden = map[string]struct {
	tsoc map[int]int64
	ils  int64
}{
	"d695":   {tsoc: map[int]int64{8: 151378, 16: 89481, 32: 44589, 64: 23583}, ils: 86138},
	"p34392": {tsoc: map[int]int64{8: 2121140, 16: 1113639, 32: 583114, 64: 549887}, ils: 1113639},
	"p93791": {tsoc: map[int]int64{8: 4161081, 16: 2200797, 32: 1152459, 64: 594462}, ils: 2200797},
}

// diffGroups builds the shared SI test grouping for a fixture.
func diffGroups(t *testing.T, s *soc.SOC) []*sischedule.Group {
	t.Helper()
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: diffNr, Seed: diffSeed})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := BuildGroupsCtx(context.Background(), s, patterns, GroupingOptions{Parts: diffParts, Seed: diffSeed})
	if err != nil {
		t.Fatal(err)
	}
	return gr.Groups
}

func TestParallelMatchesSerial(t *testing.T) {
	for name, want := range diffGolden {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "p93791" {
				t.Skip("skipping the largest fixture in -short mode")
			}
			s := soc.MustLoadBenchmark(name)
			groups := diffGroups(t, s)
			m := sischedule.DefaultModel()
			for _, w := range diffWidths {
				serial, err := solveSerial(s, w, groups, m)
				if err != nil {
					t.Fatalf("W=%d serial: %v", w, err)
				}
				if got := serial.Breakdown.TimeSOC; got != want.tsoc[w] {
					t.Errorf("W=%d serial T_soc = %d, want %d (serial engine drifted)", w, got, want.tsoc[w])
				}
				dump := serial.Architecture.String()
				for _, workers := range []int{1, 2, 8} {
					res, err := TAMOptimizationWith(context.Background(), s, w, groups, m,
						ParallelConfig{Workers: workers})
					if err != nil {
						t.Fatalf("W=%d workers=%d: %v", w, workers, err)
					}
					if res.Breakdown.TimeSOC != serial.Breakdown.TimeSOC {
						t.Errorf("W=%d workers=%d: T_soc = %d, serial = %d",
							w, workers, res.Breakdown.TimeSOC, serial.Breakdown.TimeSOC)
					}
					if got := res.Architecture.String(); got != dump {
						t.Errorf("W=%d workers=%d: architecture differs from serial\nparallel:\n%s\nserial:\n%s",
							w, workers, got, dump)
					}
					if st := res.Cache; st.Hits+st.Misses == 0 {
						t.Errorf("W=%d workers=%d: cache saw no lookups", w, workers)
					}
					// The acceptance bar for the memoization layer: at
					// workers=1 the hit/miss split is deterministic, and
					// on the largest fixture at the widest sweep point at
					// least half of all evaluations must come from cache.
					if name == "p93791" && w == 64 && workers == 1 {
						if hr := res.Cache.HitRate(); hr < 0.50 {
							t.Errorf("p93791 W=64: cache hit rate %.1f%%, want >= 50%%", 100*hr)
						}
					}
				}
			}
		})
	}
}

func TestParallelILSMatchesSerial(t *testing.T) {
	for name, want := range diffGolden {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "p93791" {
				t.Skip("skipping the largest fixture in -short mode")
			}
			s := soc.MustLoadBenchmark(name)
			groups := diffGroups(t, s)
			m := sischedule.DefaultModel()
			eng, err := NewEngine(s, diffILSW, &SIEvaluator{Groups: groups, Model: m})
			if err != nil {
				t.Fatal(err)
			}
			serialArch, serialObj, err := optimizeILS(eng, ilsKicks, ilsSeed)
			if err != nil {
				t.Fatal(err)
			}
			if serialObj != want.ils {
				t.Errorf("serial ILS objective = %d, want %d (serial engine drifted)", serialObj, want.ils)
			}
			dump := serialArch.String()
			for _, workers := range []int{1, 2, 8} {
				peng, err := parallelEngine(s, diffILSW, &SIEvaluator{Groups: groups, Model: m},
					ParallelConfig{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				arch, obj, err := optimizeILS(peng, ilsKicks, ilsSeed)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if obj != serialObj {
					t.Errorf("workers=%d: ILS objective = %d, serial = %d", workers, obj, serialObj)
				}
				if got := arch.String(); got != dump {
					t.Errorf("workers=%d: ILS architecture differs from serial\nparallel:\n%s\nserial:\n%s",
						workers, got, dump)
				}
			}
		})
	}
}

// TestParallelILSRestartsDeterministic checks that multi-restart ILS
// picks the same winner at any worker count and never loses to the
// single-restart run (restart 0 reproduces it exactly).
func TestParallelILSRestartsDeterministic(t *testing.T) {
	s := soc.MustLoadBenchmark("d695")
	groups := diffGroups(t, s)
	m := sischedule.DefaultModel()
	var baseObj int64
	var baseDump string
	for i, workers := range []int{1, 2, 8} {
		eng, err := parallelEngine(s, diffILSW, &SIEvaluator{Groups: groups, Model: m},
			ParallelConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		arch, obj, err := optimizeILSRestarts(eng, ilsKicks, 3, ilsSeed)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			baseObj, baseDump = obj, arch.String()
			single, singleObj, err := optimizeILS(eng, ilsKicks, ilsSeed)
			if err != nil {
				t.Fatal(err)
			}
			_ = single
			if obj > singleObj {
				t.Errorf("3 restarts objective %d worse than 1 restart %d", obj, singleObj)
			}
			continue
		}
		if obj != baseObj || arch.String() != baseDump {
			t.Errorf("workers=%d: restarts result differs from workers=1 (obj %d vs %d)", workers, obj, baseObj)
		}
	}
	if _, _, err := optimizeILSRestarts(mustEngine(t, s, groups, m), ilsKicks, 0, ilsSeed); err == nil {
		t.Error("restarts=0 accepted")
	}
}

func mustEngine(t *testing.T, s *soc.SOC, groups []*sischedule.Group, m sischedule.Model) *Engine {
	t.Helper()
	eng, err := NewEngine(s, diffILSW, &SIEvaluator{Groups: groups, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestCopyFrom pins the scratch-reset semantics scoreCandidates relies
// on: CopyFrom must produce a deep, independent copy whatever the
// previous shape of the destination.
func TestCopyFrom(t *testing.T) {
	src := &tam.Architecture{Rails: []*tam.Rail{
		{Cores: []int{1, 2}, Width: 4, TimeIn: 10, TimeSI: 5},
		{Cores: []int{3}, Width: 2, TimeIn: 7, TimeSI: 1},
	}}
	for _, dst := range []*tam.Architecture{
		{}, // empty
		{Rails: []*tam.Rail{{Cores: []int{9, 9, 9}, Width: 1}}},                    // shorter
		{Rails: []*tam.Rail{{}, {}, {Cores: []int{8}, Width: 3}, {Width: 1}}},      // longer
		{Rails: []*tam.Rail{{Cores: []int{5}, Width: 9}, {Cores: []int{6, 7, 8}}}}, // same length
	} {
		dst.CopyFrom(src)
		if len(dst.Rails) != len(src.Rails) {
			t.Fatalf("CopyFrom: %d rails, want %d", len(dst.Rails), len(src.Rails))
		}
		for i, r := range src.Rails {
			d := dst.Rails[i]
			if d.Width != r.Width || d.TimeIn != r.TimeIn || d.TimeSI != r.TimeSI {
				t.Errorf("rail %d: copied fields differ: %+v vs %+v", i, d, r)
			}
			if len(d.Cores) != len(r.Cores) {
				t.Fatalf("rail %d: %d cores, want %d", i, len(d.Cores), len(r.Cores))
			}
			for j := range r.Cores {
				if d.Cores[j] != r.Cores[j] {
					t.Errorf("rail %d core %d: %d != %d", i, j, d.Cores[j], r.Cores[j])
				}
			}
		}
		// Mutating the copy must not leak into the source.
		dst.Rails[0].Cores[0] = 99
		dst.Rails[0].Width = 99
		if src.Rails[0].Cores[0] != 1 || src.Rails[0].Width != 4 {
			t.Fatal("CopyFrom aliases the source rails")
		}
		src.Rails[0].Cores[0], src.Rails[0].Width = 1, 4
	}
}
