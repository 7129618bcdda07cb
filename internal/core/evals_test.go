package core

import (
	"context"
	"testing"

	"sitam/internal/sischedule"
	"sitam/internal/soc"
)

// The evaluation count is part of a run's output (Result.Metrics'
// "evals", recorded per width by the benchmark's reference), so it must
// not depend on the worker count, on memoization, or on how the
// engine materializes its trial architectures.

const evalsW = 32 // W_max of the evaluation-count runs

// evalsGolden pins the evaluation count per fixture and method at
// evalsW (diffGroups; ILS with ilsKicks kicks, 2 restarts, seed
// ilsSeed), as the engine counted it when every widening trial of
// distributeFreeWires ran on a copy of the architecture.
var evalsGolden = map[string]map[Method]int64{
	"d695":   {MethodSI: 3074, MethodBaseline: 2166, MethodILS: 9656},
	"p34392": {MethodSI: 6155, MethodBaseline: 6977, MethodILS: 17532},
}

func TestEvalsIndependentOfWorkersAndCache(t *testing.T) {
	for name, want := range evalsGolden {
		t.Run(name, func(t *testing.T) {
			s := soc.MustLoadBenchmark(name)
			p := Problem{SOC: s, Wmax: evalsW, Groups: diffGroups(t, s), Model: sischedule.DefaultModel()}
			for _, method := range []Method{MethodSI, MethodBaseline, MethodILS} {
				var ref *Result
				for _, workers := range []int{1, 2, 8} {
					for _, cache := range []int{-1, 0} {
						res, err := Solve(context.Background(), p, Options{
							Method: method, Kicks: ilsKicks, Restarts: 2, Seed: ilsSeed,
							ParallelConfig: ParallelConfig{Workers: workers, CacheSize: cache},
						})
						if err != nil {
							t.Fatalf("%s workers=%d cache=%d: %v", method, workers, cache, err)
						}
						if got := res.Metrics.Counter("evals"); got != want[method] {
							t.Errorf("%s workers=%d cache=%d: evals = %d, want %d", method, workers, cache, got, want[method])
						}
						if ref == nil {
							ref = res
							continue
						}
						if res.Breakdown != ref.Breakdown || res.Architecture.String() != ref.Architecture.String() {
							t.Errorf("%s workers=%d cache=%d: %+v\n%s\nserial uncached: %+v\n%s", method, workers, cache,
								res.Breakdown, res.Architecture, ref.Breakdown, ref.Architecture)
						}
					}
				}
			}
		})
	}
}

// budgetStopArch is d695's architecture at W_max 16 when a budget of
// 25 evaluations runs out during the start solution's third free wire
// (one start evaluation, then ten widening trials per wire), as the
// copy-based trials left it.
const budgetStopArch = `architecture: 10 rails, total width 12, T_in=121016
  TAM1 rail(w=1 cores=[1] tIn=428 tSI=12005)
  TAM2 rail(w=1 cores=[2] tIn=15292 tSI=38073)
  TAM3 rail(w=1 cores=[3] tIn=5134 tSI=1840)
  TAM4 rail(w=1 cores=[4] tIn=26602 tSI=4074)
  TAM5 rail(w=2 cores=[5] tIn=95881 tSI=57040)
  TAM6 rail(w=2 cores=[6] tIn=94894 tSI=29072)
  TAM7 rail(w=1 cores=[7] tIn=66262 tSI=56304)
  TAM8 rail(w=1 cores=[8] tIn=22427 tSI=17836)
  TAM9 rail(w=1 cores=[9] tIn=26351 tSI=110789)
  TAM10 rail(w=1 cores=[10] tIn=121016 tSI=37387)
`

// TestBudgetStopInWireDistribution stops a run inside the start
// solution's wire distribution: the partial architecture must carry
// exactly the wires placed before the stop, at every worker count and
// with or without the cache, so a widening trial left in place on the
// stop path fails it.
func TestBudgetStopInWireDistribution(t *testing.T) {
	s := soc.MustLoadBenchmark("d695")
	p := Problem{SOC: s, Wmax: 16, Groups: diffGroups(t, s), Model: sischedule.DefaultModel()}
	for _, workers := range []int{1, 2, 8} {
		for _, cache := range []int{-1, 0} {
			res, err := Solve(context.Background(), p, Options{ParallelConfig: ParallelConfig{Workers: workers, CacheSize: cache, MaxEvals: 25}})
			if err != nil {
				t.Fatalf("workers=%d cache=%d: %v", workers, cache, err)
			}
			if !res.Partial || res.Cause != CauseBudget || res.Reason != "evaluation budget exhausted during start solution" {
				t.Errorf("workers=%d cache=%d: partial=%v cause=%v reason=%q, want a budget stop in the start solution",
					workers, cache, res.Partial, res.Cause, res.Reason)
			}
			if got := res.Architecture.String(); got != budgetStopArch {
				t.Errorf("workers=%d cache=%d: partial architecture\n%s\nwant\n%s", workers, cache, got, budgetStopArch)
			}
		}
	}
}
