// Package trarchitect provides the paper's baseline: the TR-Architect
// algorithm of Goel and Marinissen ("Effective and Efficient Test
// Architecture Design for SOCs", ITC 2002), which designs a TestRail
// architecture minimizing the core-internal test time only, oblivious to
// core-external interconnect SI tests.
//
// It runs core.Solve with core.MethodBaseline, the shared optimization
// engine under the InTest-only objective, so the baseline and the
// paper's SI-aware Algorithm 2 differ in exactly one thing — the
// objective function — mirroring the comparison made in the paper's
// Tables 2 and 3: T_[8] (MethodBaseline) versus T_g_i (MethodSI).
package trarchitect

import (
	"context"

	"sitam/internal/core"
	"sitam/internal/soc"
	"sitam/internal/tam"
	"sitam/internal/wrapper"
)

// OptimizeWithCtx designs a TestRail architecture of total width wmax
// for s minimizing the SOC internal test time T_soc_in: core.Solve with
// core.MethodBaseline and no SI groups. It returns the architecture,
// its InTest time and the anytime status. It is kept, with its
// signature, because the benchmark module e2ebench calls it.
func OptimizeWithCtx(ctx context.Context, s *soc.SOC, wmax int, cfg core.ParallelConfig) (*tam.Architecture, int64, core.Status, error) {
	res, err := core.Solve(ctx, core.Problem{SOC: s, Wmax: wmax}, core.Options{Method: core.MethodBaseline, ParallelConfig: cfg})
	if err != nil {
		return nil, 0, core.Status{}, err
	}
	return res.Architecture, res.Breakdown.TimeIn, core.Status{Partial: res.Partial, Reason: res.Reason, Cause: res.Cause}, nil
}

// LowerBound returns a lower bound on the achievable SOC internal test
// time at total TAM width wmax, after Goel and Marinissen: no schedule
// can beat either the largest single-core test time at full width (a
// core cannot use more wires than exist) or the total test data volume
// spread perfectly over all wires (width-1 test time approximates each
// core's volume in wire-cycles).
func LowerBound(s *soc.SOC, wmax int) (int64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	times, err := wrapper.NewTimeTable(s, wmax)
	if err != nil {
		return 0, err
	}
	var maxCore, volume int64
	for _, c := range s.Cores() {
		t := times.Time(c.ID, wmax)
		if t > maxCore {
			maxCore = t
		}
		volume += times.Time(c.ID, 1)
	}
	area := (volume + int64(wmax) - 1) / int64(wmax)
	if maxCore > area {
		return maxCore, nil
	}
	return area, nil
}
