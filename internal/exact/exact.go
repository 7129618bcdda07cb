// Package exact provides a brute-force reference optimizer for Problem
// P_SI_opt on tiny SOCs: it enumerates every partition of the cores
// into TestRails and every distribution of the TAM width budget over
// the rails, evaluating the full objective (InTest time plus the
// Algorithm 1 SI schedule) for each candidate. Exponential in the core
// count — the package refuses SOCs with more than 8 cores — it exists
// to bound the optimality gap of the heuristic TAM_Optimization engine
// in tests and ablations, not for production use.
package exact

import (
	"context"
	"fmt"

	"sitam/internal/core"
	"sitam/internal/sischedule"
	"sitam/internal/soc"
	"sitam/internal/tam"
	"sitam/internal/wrapper"
)

// MaxCores bounds the instance size Optimize accepts. Bell(8)·C(W-1,7)
// evaluations is already hundreds of thousands at W=12.
const MaxCores = 8

// Result is the optimum found by exhaustive search.
type Result struct {
	Architecture *tam.Architecture
	Objective    int64 // T_soc = T_in + T_si
	Evaluated    int   // number of candidate architectures scored
}

// Optimize exhaustively solves P_SI_opt for s at total width wmax over
// the given SI test groups. Pass no groups to optimize InTest time
// only (the TR-Architect objective). Cancellation or an expired
// deadline aborts the enumeration with an error wrapping ctx.Err():
// unlike the heuristic engine there is no degraded result, because a
// partially enumerated search cannot certify an optimum.
func Optimize(ctx context.Context, s *soc.SOC, wmax int, groups []*sischedule.Group, m sischedule.Model) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := s.NumCores()
	if n > MaxCores {
		return nil, fmt.Errorf("exact: %d cores exceeds the limit of %d", n, MaxCores)
	}
	if wmax < 1 {
		return nil, fmt.Errorf("exact: wmax must be >= 1, got %d", wmax)
	}
	times, err := wrapper.NewTimeTable(s, wmax)
	if err != nil {
		return nil, err
	}
	ids := make([]int, n)
	for i, c := range s.Cores() {
		ids[i] = c.ID
	}

	best := &Result{}
	// Enumerate set partitions of the cores via restricted growth
	// strings: block[i] in [0, max(block[0..i-1])+1].
	block := make([]int, n)
	var enumerate func(i, maxBlock int) error
	enumerate = func(i, maxBlock int) error {
		if i == n {
			// One check per complete partition: the width enumeration and
			// scoring below it are the expensive part of each node.
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("exact: search interrupted after %d candidates: %w", best.Evaluated, err)
			}
			k := maxBlock + 1
			if k > wmax {
				return nil // not enough wires for one per rail
			}
			railCores := make([][]int, k)
			for v, b := range block {
				railCores[b] = append(railCores[b], ids[v])
			}
			return distributeWidths(s, times, railCores, wmax, groups, m, best)
		}
		for b := 0; b <= maxBlock+1; b++ {
			block[i] = b
			nb := maxBlock
			if b > maxBlock {
				nb = b
			}
			if err := enumerate(i+1, nb); err != nil {
				return err
			}
		}
		return nil
	}
	if err := enumerate(0, -1); err != nil {
		return nil, err
	}
	if best.Architecture == nil {
		return nil, fmt.Errorf("exact: no feasible architecture at wmax=%d", wmax)
	}
	return best, nil
}

// distributeWidths enumerates compositions of wmax into len(railCores)
// positive parts and scores each resulting architecture.
func distributeWidths(s *soc.SOC, times *wrapper.TimeTable, railCores [][]int, wmax int,
	groups []*sischedule.Group, m sischedule.Model, best *Result) error {
	k := len(railCores)
	widths := make([]int, k)
	var compose func(i, left int) error
	compose = func(i, left int) error {
		if i == k-1 {
			widths[i] = left
			return score(s, times, railCores, widths, groups, m, best)
		}
		// Leave at least 1 wire for each remaining rail. Widths above
		// what any core can use still matter for SI shift time, so the
		// full range is enumerated.
		for w := 1; w <= left-(k-1-i); w++ {
			widths[i] = w
			if err := compose(i+1, left-w); err != nil {
				return err
			}
		}
		return nil
	}
	return compose(0, wmax)
}

func score(s *soc.SOC, times *wrapper.TimeTable, railCores [][]int, widths []int,
	groups []*sischedule.Group, m sischedule.Model, best *Result) error {
	a := tam.New(s, times)
	for i, cores := range railCores {
		a.AddRail(cores, widths[i])
	}
	obj := a.InTestTime()
	if len(groups) > 0 {
		sched, err := sischedule.ScheduleSITest(a, groups, m)
		if err != nil {
			return err
		}
		obj += sched.TotalSI
	}
	best.Evaluated++
	if best.Architecture == nil || obj < best.Objective {
		best.Architecture = a
		best.Objective = obj
	}
	return nil
}

// Gap runs both the exact search and the heuristic engine on the same
// instance and returns (heuristic-optimal)/optimal. Intended for tests
// and ablation reporting.
func Gap(s *soc.SOC, wmax int, groups []*sischedule.Group, m sischedule.Model) (float64, error) {
	opt, err := Optimize(context.Background(), s, wmax, groups, m)
	if err != nil {
		return 0, err
	}
	method := core.MethodSI
	if len(groups) == 0 {
		method = core.MethodBaseline
	}
	res, err := core.Solve(context.Background(), core.Problem{SOC: s, Wmax: wmax, Groups: groups, Model: m},
		core.Options{Method: method, ParallelConfig: core.ParallelConfig{Workers: 1, CacheSize: -1}})
	if err != nil {
		return 0, err
	}
	heur := res.Breakdown.TimeSOC
	if heur < opt.Objective {
		return 0, fmt.Errorf("exact: heuristic %d beat the exhaustive optimum %d — enumeration bug", heur, opt.Objective)
	}
	return float64(heur-opt.Objective) / float64(opt.Objective), nil
}
