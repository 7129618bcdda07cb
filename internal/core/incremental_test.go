package core

import (
	"context"
	"testing"

	"sitam/internal/sischedule"
	"sitam/internal/soc"
	"sitam/internal/tam"
	"sitam/internal/wrapper"
)

// Differential harness for the incremental evaluation layer: the
// IncrementalSIEvaluator (dirty-rail InTest refresh + per-rail SI
// composition memo) must be byte-identical to the from-scratch
// SIEvaluator on every fixture, width and worker count, through the
// full pipeline, the ILS path with restarts, and partial deadline or
// budget exits. Both evaluators run with the architecture cache
// disabled so the comparison exercises the evaluators themselves.

func incrEngines(t *testing.T, s *soc.SOC, w int, groups []*sischedule.Group, m sischedule.Model, workers int) (scratch, incr *Engine) {
	t.Helper()
	se, err := parallelEngine(s, w, &SIEvaluator{Groups: groups, Model: m},
		ParallelConfig{Workers: workers, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	ie, err := parallelEngine(s, w, NewIncrementalSIEvaluator(groups, m, nil),
		ParallelConfig{Workers: workers, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	return se, ie
}

func TestIncrementalMatchesScratch(t *testing.T) {
	for name, want := range diffGolden {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "p93791" {
				t.Skip("skipping the largest fixture in -short mode")
			}
			s := soc.MustLoadBenchmark(name)
			groups := diffGroups(t, s)
			m := sischedule.DefaultModel()
			for _, w := range diffWidths {
				scratch, _ := incrEngines(t, s, w, groups, m, 1)
				sArch, sObj, err := optimize(scratch)
				if err != nil {
					t.Fatalf("W=%d scratch: %v", w, err)
				}
				if sObj != want.tsoc[w] {
					t.Errorf("W=%d scratch T_soc = %d, want %d (scratch evaluator drifted)", w, sObj, want.tsoc[w])
				}
				dump := sArch.String()
				for _, workers := range []int{1, 2, 8} {
					_, incr := incrEngines(t, s, w, groups, m, workers)
					iArch, iObj, err := optimize(incr)
					if err != nil {
						t.Fatalf("W=%d workers=%d incremental: %v", w, workers, err)
					}
					if iObj != sObj {
						t.Errorf("W=%d workers=%d: incremental T_soc = %d, scratch = %d", w, workers, iObj, sObj)
					}
					if got := iArch.String(); got != dump {
						t.Errorf("W=%d workers=%d: incremental architecture differs from scratch\nincremental:\n%s\nscratch:\n%s",
							w, workers, got, dump)
					}
				}
			}
		})
	}
}

func TestIncrementalILSMatchesScratch(t *testing.T) {
	for name, want := range diffGolden {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "p93791" {
				t.Skip("skipping the largest fixture in -short mode")
			}
			s := soc.MustLoadBenchmark(name)
			groups := diffGroups(t, s)
			m := sischedule.DefaultModel()
			scratch, _ := incrEngines(t, s, diffILSW, groups, m, 1)
			sArch, sObj, err := optimizeILS(scratch, ilsKicks, ilsSeed)
			if err != nil {
				t.Fatal(err)
			}
			if sObj != want.ils {
				t.Errorf("scratch ILS objective = %d, want %d (scratch evaluator drifted)", sObj, want.ils)
			}
			dump := sArch.String()
			for _, workers := range []int{1, 2, 8} {
				_, incr := incrEngines(t, s, diffILSW, groups, m, workers)
				_, iObj, err := optimizeILSRestarts(incr, ilsKicks, 2, ilsSeed)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				// Restart 0 reproduces the single ILS run; extra restarts
				// may only improve the objective.
				if iObj > sObj {
					t.Errorf("workers=%d: incremental ILS(2 restarts) objective = %d worse than scratch single run %d",
						workers, iObj, sObj)
				}
				sIArch, sIObj, err := optimizeILS(incr, ilsKicks, ilsSeed)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if sIObj != sObj {
					t.Errorf("workers=%d: incremental ILS objective = %d, scratch = %d", workers, sIObj, sObj)
				}
				if got := sIArch.String(); got != dump {
					t.Errorf("workers=%d: incremental ILS architecture differs from scratch\nincremental:\n%s\nscratch:\n%s",
						workers, got, dump)
				}
			}
		})
	}
}

// TestIncrementalDeadlineMatchesScratch sweeps a deterministic
// countdown deadline across every interruption point of the pipeline
// and the ILS path: at each cut the incremental engine must surface
// the same partial objective, architecture, status and error as the
// from-scratch engine.
func TestIncrementalDeadlineMatchesScratch(t *testing.T) {
	s := soc.MustLoadBenchmark("d695")
	groups := diffGroups(t, s)
	m := sischedule.DefaultModel()
	for n := 0; n <= 40; n += 4 {
		scratch, incr := incrEngines(t, s, diffILSW, groups, m, 1)
		sArch, sObj, sStatus, sErr := scratch.OptimizeCtx(newCountdown(n))
		iArch, iObj, iStatus, iErr := incr.OptimizeCtx(newCountdown(n))
		if (sErr == nil) != (iErr == nil) {
			t.Fatalf("countdown=%d: scratch err %v, incremental err %v", n, sErr, iErr)
		}
		if sErr != nil {
			continue
		}
		if iObj != sObj || iStatus != sStatus {
			t.Errorf("countdown=%d: incremental (obj %d, %+v) vs scratch (obj %d, %+v)", n, iObj, iStatus, sObj, sStatus)
		}
		if sArch != nil && iArch != nil && iArch.String() != sArch.String() {
			t.Errorf("countdown=%d: partial architectures differ", n)
		}

		scratch, incr = incrEngines(t, s, diffILSW, groups, m, 1)
		sArch, sObj, sStatus, sErr = scratch.OptimizeILSCtx(newCountdown(n), ilsKicks, 1, ilsSeed)
		iArch, iObj, iStatus, iErr = incr.OptimizeILSCtx(newCountdown(n), ilsKicks, 1, ilsSeed)
		if (sErr == nil) != (iErr == nil) {
			t.Fatalf("ILS countdown=%d: scratch err %v, incremental err %v", n, sErr, iErr)
		}
		if sErr != nil {
			continue
		}
		if iObj != sObj || iStatus != sStatus {
			t.Errorf("ILS countdown=%d: incremental (obj %d, %+v) vs scratch (obj %d, %+v)", n, iObj, iStatus, sObj, sStatus)
		}
		if sArch != nil && iArch != nil && iArch.String() != sArch.String() {
			t.Errorf("ILS countdown=%d: partial architectures differ", n)
		}
	}
}

// TestIncrementalBudgetMatchesScratch does the same for evaluation
// budget exhaustion (Engine.MaxEvals).
func TestIncrementalBudgetMatchesScratch(t *testing.T) {
	s := soc.MustLoadBenchmark("d695")
	groups := diffGroups(t, s)
	m := sischedule.DefaultModel()
	for _, budget := range []int64{1, 5, 25, 100, 400} {
		scratch, incr := incrEngines(t, s, diffILSW, groups, m, 1)
		scratch.MaxEvals = budget
		incr.MaxEvals = budget
		sArch, sObj, sStatus, sErr := scratch.OptimizeCtx(context.Background())
		iArch, iObj, iStatus, iErr := incr.OptimizeCtx(context.Background())
		if (sErr == nil) != (iErr == nil) {
			t.Fatalf("budget=%d: scratch err %v, incremental err %v", budget, sErr, iErr)
		}
		if sErr != nil {
			continue
		}
		if iObj != sObj || iStatus != sStatus {
			t.Errorf("budget=%d: incremental (obj %d, %+v) vs scratch (obj %d, %+v)", budget, iObj, iStatus, sObj, sStatus)
		}
		if sArch != nil && iArch != nil && iArch.String() != sArch.String() {
			t.Errorf("budget=%d: partial architectures differ", budget)
		}
	}
}

// TestIncrementalStatsAccount checks the recompute accounting: a
// full pipeline run must serve a substantial share of rail cost
// profiles from the composition memo, and the totals must be
// internally consistent.
func TestIncrementalStatsAccount(t *testing.T) {
	s := soc.MustLoadBenchmark("d695")
	groups := diffGroups(t, s)
	m := sischedule.DefaultModel()
	eval := NewIncrementalSIEvaluator(groups, m, nil)
	eng, err := parallelEngine(s, 32, eval, ParallelConfig{Workers: 1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := optimize(eng); err != nil {
		t.Fatal(err)
	}
	st := eval.Stats()
	if st.Evals == 0 {
		t.Fatal("no evaluations recorded")
	}
	if st.RailsMemoized == 0 {
		t.Error("no rail cost profile was served from the memo")
	}
	if st.RailsRecomputed == 0 {
		t.Error("no rail cost profile was ever computed")
	}
	if st.GroupsMemoized+st.GroupsRecomputed == 0 {
		t.Error("no group accounting recorded")
	}
	if memoShare := float64(st.RailsMemoized) / float64(st.RailsMemoized+st.RailsRecomputed); memoShare < 0.5 {
		t.Errorf("rail memo share %.1f%%, want >= 50%%", 100*memoShare)
	}
}

// FuzzIncrementalMutations drives a random mutation sequence through
// the tam mutation API and cross-checks, after every step, the
// incremental evaluator against a from-scratch evaluation of a fresh
// clone, the maintained composition hash against a rebuilt
// architecture's, and the cached InTestTime against a direct maximum.
func FuzzIncrementalMutations(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{3, 200, 7, 1, 0, 0, 2, 9, 9, 3, 1, 4})
	f.Add([]byte{1, 1, 1, 2, 2, 2, 0, 0, 0, 3, 3, 3, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := smallSOC()
		groups := smallGroups()
		m := sischedule.DefaultModel()
		const wmax = 8
		tt, err := wrapper.NewTimeTable(s, wmax)
		if err != nil {
			t.Fatal(err)
		}
		a := tam.New(s, tt)
		for _, c := range s.Cores() {
			a.AddRail([]int{c.ID}, 1)
		}
		incr := NewIncrementalSIEvaluator(groups, m, nil)
		scratch := &SIEvaluator{Groups: groups, Model: m}

		check := func(step int) {
			got, err := incr.Evaluate(a)
			if err != nil {
				t.Fatalf("step %d: incremental: %v", step, err)
			}
			want, err := scratch.Evaluate(a.Clone())
			if err != nil {
				t.Fatalf("step %d: scratch: %v", step, err)
			}
			if got != want {
				t.Fatalf("step %d: incremental T_soc = %d, scratch = %d\n%s", step, got, want, a)
			}
			// The maintained hash must equal the hash of the same
			// composition built from nothing.
			fresh := tam.New(s, tt)
			for _, r := range a.Rails {
				fresh.AddRail(r.Cores, r.Width)
			}
			if a.Hash() != fresh.Hash() {
				t.Fatalf("step %d: maintained hash %#x != rebuilt hash %#x\n%s", step, a.Hash(), fresh.Hash(), a)
			}
			var mx int64
			for _, r := range a.Rails {
				if r.TimeIn > mx {
					mx = r.TimeIn
				}
			}
			if a.InTestTime() != mx {
				t.Fatalf("step %d: InTestTime %d != max rail TimeIn %d", step, a.InTestTime(), mx)
			}
		}

		check(-1)
		for i := 0; i+2 < len(data); i += 3 {
			op, x, y := data[i]%4, int(data[i+1]), int(data[i+2])
			switch op {
			case 0: // SetWidth
				ri := x % len(a.Rails)
				a.SetWidth(ri, 1+y%wmax)
			case 1: // MoveCore
				from := x % len(a.Rails)
				if len(a.Rails[from].Cores) < 2 {
					continue // keep rails non-empty
				}
				to := y % len(a.Rails)
				id := a.Rails[from].Cores[y%len(a.Rails[from].Cores)]
				a.MoveCore(from, to, id)
			case 2: // CarveCore
				from := x % len(a.Rails)
				r := a.Rails[from]
				if len(r.Cores) < 2 || r.Width < 2 {
					continue
				}
				a.CarveCore(from, r.Cores[y%len(r.Cores)])
			case 3: // MergeRails
				if len(a.Rails) < 2 {
					continue
				}
				dst := x % len(a.Rails)
				src := y % len(a.Rails)
				if dst == src {
					continue
				}
				w := a.Rails[dst].Width + a.Rails[src].Width
				if w > wmax {
					w = wmax
				}
				a.MergeRails(dst, src, w)
			}
			// Evaluate only every other mutation so the evaluator also
			// sees multi-mutation dirty batches.
			if i%2 == 0 {
				check(i)
			}
		}
		check(len(data))
	})
}

// TestDirtyRailsCountedThroughCache: the cache refreshes an
// architecture's stale rails to key it, so the incremental evaluator
// behind it must count the rails that were stale when the evaluation
// began. A cache miss sees the same stale rails as the same evaluation
// of the uncached run, and hits are not counted, so a single-worker
// Solve counts 0 < eval_dirty_rails(cached) <= eval_dirty_rails(uncached).
func TestDirtyRailsCountedThroughCache(t *testing.T) {
	s := soc.MustLoadBenchmark("d695")
	p := Problem{SOC: s, Wmax: 32, Groups: diffGroups(t, s), Model: sischedule.DefaultModel()}
	dirty := map[int]int64{}
	for _, cache := range []int{0, -1} {
		res, err := Solve(context.Background(), p, Options{ParallelConfig: ParallelConfig{Workers: 1, CacheSize: cache}})
		if err != nil {
			t.Fatal(err)
		}
		dirty[cache] = res.Metrics.Counter("eval_dirty_rails")
	}
	if on, off := dirty[0], dirty[-1]; on <= 0 || on > off {
		t.Errorf("eval_dirty_rails = %d cached, %d uncached; want 0 < cached <= uncached", on, off)
	}
}
