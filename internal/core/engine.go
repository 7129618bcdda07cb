package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"sitam/internal/obs"
	"sitam/internal/soc"
	"sitam/internal/tam"
	"sitam/internal/wrapper"
)

// Engine runs the TAM_Optimization procedure of Fig. 6 over a given SOC
// with a given objective.
type Engine struct {
	SOC   *soc.SOC
	Wmax  int
	Times *wrapper.TimeTable
	Eval  Evaluator

	// Trace receives the structured search-trace events of the run
	// (see internal/obs). nil — the default — disables tracing at the
	// cost of one branch per emission site. Candidate events are
	// emitted in candidate order, so the trace is deterministic for a
	// fixed seed at any worker count.
	Trace obs.Sink

	// Metrics receives the run's counters and phase-duration
	// histograms. nil disables metric collection.
	Metrics *obs.Registry

	// MaxEvals bounds the number of objective evaluations the run may
	// spend; 0 means unlimited. When the budget runs out the search
	// stops exactly like a cancelled context: the incumbent comes back
	// as a partial result with CauseBudget. With ILS restarts the
	// bound applies to each restart independently.
	MaxEvals int64

	// cache is the memoization layer configure wrapped around Eval;
	// nil when the engine evaluates uncached.
	cache *CachedEvaluator

	// workers is how many ILS restarts OptimizeILSCtx runs at once,
	// resolved from ParallelConfig.Workers by configure. The NewEngine
	// default, 0, runs them one after another like 1, so an engine
	// shares its Evaluator across goroutines only when configured to.
	workers int

	// evals counts objective evaluations. A pointer so that the
	// shallow engine copies the ILS restart fan-out makes share one
	// total (each restart still counts into its own — see
	// OptimizeILSCtx).
	evals *atomic.Int64
}

// Phase names used by Status.Reason, the search trace and the
// phase-duration metrics.
const (
	phaseStartSol  = "start solution"
	phaseBottomUp  = "bottom-up merge"
	phaseTopDown   = "top-down merge"
	phaseSweep     = "remaining-rails sweep"
	phaseReshuffle = "core reshuffle"
	phaseILS       = "ILS"
	phaseILSLocal  = "ILS local search"
	phaseGenerate  = "pattern generation" // Run's first stage
)

// Status reports how an anytime optimization run ended: a complete run
// has the zero Status, while a run cut short by context cancellation,
// deadline expiry or budget exhaustion that still produced a usable
// architecture has Partial set, Cause classifying the interruption and
// Reason describing where the run was interrupted.
type Status struct {
	Partial bool
	Reason  string
	Cause   StopCause
}

// statusOf builds the partial Status for an interruption during phase.
func statusOf(err error, phase string) Status {
	return Status{Partial: true, Reason: stopReason(err, phase), Cause: CauseOf(err)}
}

// NewEngine builds a serial, uncached engine over a given objective,
// precomputing the per-core InTest time table up to Wmax. Solve is the
// production entry point; NewEngine remains for objectives Solve does
// not offer (custom evaluators in tests, the Test-Bus ablation).
func NewEngine(s *soc.SOC, wmax int, eval Evaluator) (*Engine, error) {
	if wmax < 1 {
		return nil, fmt.Errorf("core: Wmax must be >= 1, got %d", wmax)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	tt, err := wrapper.NewTimeTable(s, wmax)
	if err != nil {
		return nil, err
	}
	return &Engine{SOC: s, Wmax: wmax, Times: tt, Eval: eval, evals: new(atomic.Int64)}, nil
}

// eval scores one candidate, counting the evaluation and enforcing the
// budget: once MaxEvals evaluations have been spent, every further
// call fails with ErrBudgetExhausted, which the optimization loops
// treat exactly like a done context.
func (e *Engine) eval(a *tam.Architecture) (int64, error) {
	if e.evals != nil {
		n := e.evals.Add(1)
		if e.MaxEvals > 0 && n > e.MaxEvals {
			return 0, ErrBudgetExhausted
		}
	}
	return e.Eval.Evaluate(a)
}

// evalCount returns the evaluations spent so far.
func (e *Engine) evalCount() int64 {
	if e.evals == nil {
		return 0
	}
	return e.evals.Load()
}

// phase opens a trace/metrics span for one optimization phase. The
// returned close function emits the matching PhaseEnd — wall-clock
// duration, evaluations spent inside the span, incumbent objective —
// and feeds the duration histogram. When both trace and metrics are
// off it is a no-op and takes no timestamps.
func (e *Engine) phase(name string) func(best int64) {
	if e.Trace == nil && e.Metrics == nil {
		return func(int64) {}
	}
	start := time.Now() // feeds only PhaseEnd.DurNS and the duration histogram, never the objective
	n0 := e.evalCount()
	if e.Trace != nil {
		e.Trace.Emit(obs.Event{Type: obs.PhaseStart, Phase: name})
	}
	return func(best int64) {
		dur := int64(time.Since(start))
		if e.Trace != nil {
			e.Trace.Emit(obs.Event{
				Type: obs.PhaseEnd, Phase: name,
				Best: best, N: e.evalCount() - n0, DurNS: dur,
			})
		}
		e.Metrics.Histogram("phase_ns_" + strings.ReplaceAll(name, " ", "_")).Observe(dur)
	}
}

// stopEvent records an anytime interruption in the trace.
func (e *Engine) stopEvent(err error, phase string, kick int) {
	if e.Trace != nil {
		e.Trace.Emit(obs.Event{Type: obs.DeadlineHit, Phase: phase, Kick: kick, Cause: CauseOf(err).Label()})
	}
}

// scoreCandidates scores n candidate architectures derived from base,
// in index order, and returns their objectives. job receives one
// scratch architecture, reset to a copy of base before every
// candidate, plus the candidate index; it must mutate only the
// scratch. The context is checked before every candidate, and the
// first error ends the batch with a nil result.
func scoreCandidates(ctx context.Context, base *tam.Architecture, n int, job func(cand *tam.Architecture, i int) (int64, error)) ([]int64, error) {
	scratch := &tam.Architecture{}
	objs := make([]int64, n)
	for i := range objs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		scratch.CopyFrom(base)
		obj, err := job(scratch, i)
		if err != nil {
			return nil, err
		}
		objs[i] = obj
	}
	return objs, nil
}

// rebuild reconstructs the winning candidate: jobs only score
// candidates into the batch's scratch, so the selected architecture
// is rebuilt once from the base — one clone per improving batch
// instead of one per candidate. With a memoized evaluator the
// re-evaluation inside job is a cache hit.
func rebuild(base *tam.Architecture, i int, job func(cand *tam.Architecture, i int) (int64, error)) (*tam.Architecture, error) {
	cand := base.Clone()
	if _, err := job(cand, i); err != nil {
		return nil, err
	}
	return cand, nil
}

// emitCandidates reports one scored batch to the trace in candidate
// order, after the batch completes.
func (e *Engine) emitCandidates(phase string, objs []int64) {
	if e.Trace == nil {
		return
	}
	for i, obj := range objs {
		e.Trace.Emit(obs.Event{Type: obs.CandidateEvaluated, Phase: phase, Cand: i, Obj: obj})
	}
}

// OptimizeCtx runs the full procedure: start solution, bottom-up
// merging, top-down merging, the remaining-rails sweep, and core
// reshuffling. It returns the best architecture found and its
// objective value. It is an anytime algorithm: the procedure checks
// ctx between candidate evaluations, and when the context is cancelled
// or its deadline expires mid-run (or the evaluation budget runs out)
// it returns the best architecture found so far with Status.Partial set
// and a nil error. The incumbent objective only improves as the run
// progresses, so a partial result is always a valid, schedulable
// architecture whose objective is at least the value a complete run
// would reach. A context that is already done before any feasible
// architecture exists yields the context's error.
func (e *Engine) OptimizeCtx(ctx context.Context) (*tam.Architecture, int64, Status, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, Status{}, err
	}
	end := e.phase(phaseStartSol)
	a, obj, err := e.startSolution(ctx)
	if err != nil {
		if isStop(err) && a != nil {
			// Interrupted while distributing free wires: the
			// architecture is feasible, just under-provisioned. The
			// re-score calls the evaluator directly — it spends no
			// fresh search effort, so it bypasses the budget.
			if o, eerr := e.Eval.Evaluate(a); eerr == nil {
				e.stopEvent(err, phaseStartSol, 0)
				end(o)
				return a, o, statusOf(err, phaseStartSol), nil
			}
		}
		return nil, 0, Status{}, err
	}
	end(obj)

	// fail folds a loop error into the anytime contract: interruptions
	// close the phase span and return the incumbent as a partial
	// result, hard errors propagate. a and obj are captured by
	// reference, so it always sees the current incumbent.
	fail := func(err error, phase string, end func(int64)) (*tam.Architecture, int64, Status, error) {
		if !isStop(err) {
			return nil, 0, Status{}, err
		}
		e.stopEvent(err, phase, 0)
		end(obj)
		return a, obj, statusOf(err, phase), nil
	}

	// Optimize bottom-up (Lines 17-23): repeatedly try to merge the
	// rail with the smallest utilized time.
	end = e.phase(phaseBottomUp)
	for improved := true; improved && len(a.Rails) > 1; {
		sortByTimeUsed(a)
		last := len(a.Rails) - 1
		a2, obj2, err := e.mergeTAMs(ctx, a, obj, last, phaseBottomUp)
		if err != nil {
			return fail(err, phaseBottomUp, end)
		}
		improved = obj2 < obj
		a, obj = a2, obj2
	}
	end(obj)

	// Optimize top-down (Lines 24-30): try to merge the rail with the
	// largest utilized time.
	end = e.phase(phaseTopDown)
	for improved := true; improved && len(a.Rails) > 1; {
		sortByTimeUsed(a)
		a2, obj2, err := e.mergeTAMs(ctx, a, obj, 0, phaseTopDown)
		if err != nil {
			return fail(err, phaseTopDown, end)
		}
		improved = obj2 < obj
		a, obj = a2, obj2
	}
	end(obj)

	// Sweep the remaining rails (Lines 31-36): keep trying the
	// largest-time rail not yet known to be unmergeable.
	end = e.phase(phaseSweep)
	skip := map[string]bool{}
	if len(a.Rails) > 0 {
		sortByTimeUsed(a)
		skip[a.Rails[0].Key()] = true // top-down loop just failed on it
	}
	for {
		sortByTimeUsed(a)
		pick := -1
		for i, r := range a.Rails {
			if !skip[r.Key()] {
				pick = i
				break
			}
		}
		if pick < 0 {
			break
		}
		a2, obj2, err := e.mergeTAMs(ctx, a, obj, pick, phaseSweep)
		if err != nil {
			return fail(err, phaseSweep, end)
		}
		if obj2 < obj {
			a, obj = a2, obj2
		} else {
			skip[a.Rails[pick].Key()] = true
		}
	}
	end(obj)

	// Core reshuffle (Line 37): move single cores off bottleneck rails.
	end = e.phase(phaseReshuffle)
	a2, obj2, err := e.coreReshuffle(ctx, a, obj, phaseReshuffle)
	if err != nil {
		return fail(err, phaseReshuffle, end)
	}
	end(obj2)
	return a2, obj2, Status{}, nil
}

// startSolution implements Lines 1-16 of Fig. 6: one single-wire rail
// per core, then merge down to Wmax rails or distribute leftover wires.
// It returns the architecture together with its evaluated objective.
//
// On interruption it returns the stop error; the returned architecture
// is non-nil only when it is feasible despite the interruption (total
// width within Wmax, every core assigned) — the objective is not
// meaningful in that case and the caller re-scores.
func (e *Engine) startSolution(ctx context.Context) (*tam.Architecture, int64, error) {
	a := tam.New(e.SOC, e.Times)
	for _, c := range e.SOC.Cores() {
		a.AddRail([]int{c.ID}, 1)
	}
	obj, err := e.eval(a)
	if err != nil {
		return nil, 0, err
	}

	if e.Wmax < len(a.Rails) {
		for len(a.Rails) > e.Wmax {
			if err := ctx.Err(); err != nil {
				// More rails than wires: not a feasible architecture.
				return nil, 0, err
			}
			sortByTimeUsed(a)
			// Merge rail Wmax (0-indexed: the first rail beyond the
			// budget) into whichever of the first Wmax rails minimizes
			// the objective. Start-solution rails all have width 1 and
			// stay width 1.
			victim := e.Wmax
			objs, err := scoreCandidates(ctx, a, e.Wmax, func(cand *tam.Architecture, i int) (int64, error) {
				cand.MergeRails(i, victim, 1)
				return e.eval(cand)
			})
			if err != nil {
				// Stop errors included: mid-merge-down the
				// architecture is not feasible yet.
				return nil, 0, err
			}
			e.emitCandidates(phaseStartSol, objs)
			best := -1
			var bestObj int64
			for i, o := range objs {
				if best < 0 || o < bestObj {
					best, bestObj = i, o
				}
			}
			a.MergeRails(best, victim, 1)
			if obj, err = e.eval(a); err != nil {
				return nil, 0, err
			}
		}
	} else if free := e.Wmax - len(a.Rails); free > 0 {
		if obj, err = e.distributeFreeWires(ctx, a, free, e.Trace); err != nil {
			if isStop(err) {
				// a is feasible with some wires undistributed.
				return a, 0, err
			}
			return nil, 0, err
		}
	}
	return a, obj, nil
}

// distributeFreeWires implements the paper's distributeFreeWires: each
// free wire goes, one at a time, to the rail whose widening minimizes
// the objective — the bottleneck-rail criterion generalized to the
// combined objective. Ties keep the wire on the rail with the largest
// utilized time. It returns the objective of the final widened
// architecture.
//
// Each widening is tried on a itself and undone right after its
// evaluation, before any error returns, so a trial costs one rail's
// refresh instead of a copy of the architecture, and an interruption
// leaves a holding exactly the wires already placed. A trial evaluates
// the composition a copy would have, so objectives, tie-breaks and
// evaluation counts do not depend on it; the per-rail bookkeeping a
// trial leaves on a is overwritten by the closing evaluation. The
// context is checked before every wire and every trial. Only the
// start solution's call passes a sink: the per-candidate calls in
// mergeTAMs trace nothing, because their batch reports one
// candidate_evaluated event per merge candidate.
func (e *Engine) distributeFreeWires(ctx context.Context, a *tam.Architecture, free int, sink obs.Sink) (int64, error) {
	var objs []int64 // one wire's trial objectives, kept only for the sink
	for ; free > 0; free-- {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		best := -1
		var bestObj, bestUsed int64
		objs = objs[:0]
		for i, r := range a.Rails {
			if r.Width >= e.Wmax {
				continue
			}
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			a.SetWidth(i, r.Width+1)
			o, err := e.eval(a)
			used := r.TimeUsed()
			a.SetWidth(i, r.Width-1)
			if err != nil {
				return 0, err
			}
			if sink != nil {
				objs = append(objs, o)
			}
			if best < 0 || o < bestObj || (o == bestObj && used > bestUsed) {
				best, bestObj, bestUsed = i, o, used
			}
		}
		if best < 0 {
			break // every rail already at Wmax
		}
		for i, o := range objs {
			sink.Emit(obs.Event{Type: obs.CandidateEvaluated, Phase: phaseStartSol, Cand: i, Obj: o})
		}
		a.SetWidth(best, a.Rails[best].Width+1)
	}
	return e.eval(a)
}

// mergeTAMs implements the paper's mergeTAMs procedure: given the rail
// at index r1, enumerate every other rail and every merged width in
// [max(w1,wi), w1+wi], distributing leftover wires, and return the best
// resulting architecture if it beats the current objective; otherwise
// the original architecture. The context is checked before every
// candidate evaluation; an interruption aborts the enumeration and
// propagates the stop error, leaving the caller's incumbent intact.
// phase labels the batch's trace events.
func (e *Engine) mergeTAMs(ctx context.Context, a *tam.Architecture, curObj int64, r1 int, phase string) (*tam.Architecture, int64, error) {
	w1 := a.Rails[r1].Width
	type mergeSpec struct{ ri, w int }
	var specs []mergeSpec
	for ri := range a.Rails {
		if ri == r1 {
			continue
		}
		wi := a.Rails[ri].Width
		lo := w1
		if wi > lo {
			lo = wi
		}
		hi := w1 + wi
		if hi > e.Wmax {
			hi = e.Wmax
		}
		for w := lo; w <= hi; w++ {
			specs = append(specs, mergeSpec{ri, w})
		}
	}
	build := func(cand *tam.Architecture, i int) (int64, error) {
		sp := specs[i]
		wi := cand.Rails[sp.ri].Width
		dst, src := sp.ri, r1
		if dst > src {
			// MergeRails removes src; keep indices valid by always
			// merging the higher index into the lower.
			dst, src = src, dst
		}
		cand.MergeRails(dst, src, sp.w)
		if leftover := w1 + wi - sp.w; leftover > 0 {
			if _, err := e.distributeFreeWires(ctx, cand, leftover, nil); err != nil {
				return 0, err
			}
		}
		return e.eval(cand)
	}
	objs, err := scoreCandidates(ctx, a, len(specs), build)
	if err != nil {
		return nil, 0, err
	}
	e.emitCandidates(phase, objs)
	best, bestObj := -1, curObj
	for i, o := range objs {
		if o < bestObj {
			best, bestObj = i, o
		}
	}
	if best < 0 {
		if e.Trace != nil && len(specs) > 0 {
			e.Trace.Emit(obs.Event{Type: obs.MergeRejected, Phase: phase, Obj: curObj, N: int64(len(specs))})
		}
		return a, curObj, nil
	}
	winner, err := rebuild(a, best, build)
	if err != nil {
		return nil, 0, err
	}
	if e.Trace != nil {
		e.Trace.Emit(obs.Event{
			Type: obs.MergeAccepted, Phase: phase,
			Cand: best, Obj: bestObj, Best: bestObj,
			Rails: len(winner.Rails), N: int64(len(specs)),
		})
	}
	return winner, bestObj, nil
}

// coreReshuffle implements Line 37: iteratively move one core from a
// bottleneck rail (a rail critical to the objective) to another rail
// while that reduces the objective. phase labels the trace events.
func (e *Engine) coreReshuffle(ctx context.Context, a *tam.Architecture, curObj int64, phase string) (*tam.Architecture, int64, error) {
	for {
		sources := bottleneckRails(a)
		type cmove struct {
			coreID   int
			from, to int
		}
		var specs []cmove
		for _, from := range sources {
			if len(a.Rails[from].Cores) <= 1 {
				continue
			}
			for _, id := range a.Rails[from].Cores {
				for to := range a.Rails {
					if to != from {
						specs = append(specs, cmove{id, from, to})
					}
				}
			}
		}
		build := func(cand *tam.Architecture, i int) (int64, error) {
			mv := specs[i]
			cand.MoveCore(mv.from, mv.to, mv.coreID)
			return e.eval(cand)
		}
		objs, err := scoreCandidates(ctx, a, len(specs), build)
		if err != nil {
			return nil, 0, err
		}
		e.emitCandidates(phase, objs)
		best, bestObj := -1, curObj
		for i, o := range objs {
			if o < bestObj {
				best, bestObj = i, o
			}
		}
		if best < 0 {
			if e.Trace != nil && len(specs) > 0 {
				e.Trace.Emit(obs.Event{Type: obs.MergeRejected, Phase: phase, Obj: curObj, N: int64(len(specs))})
			}
			return a, curObj, nil
		}
		winner, err := rebuild(a, best, build)
		if err != nil {
			return nil, 0, err
		}
		if e.Trace != nil {
			e.Trace.Emit(obs.Event{
				Type: obs.MergeAccepted, Phase: phase,
				Cand: best, Obj: bestObj, Best: bestObj,
				Rails: len(winner.Rails), N: int64(len(specs)),
			})
		}
		a, curObj = winner, bestObj
	}
}

// bottleneckRails returns the indices of rails that currently determine
// the objective: the rail(s) with maximal InTest time plus any rail with
// non-zero SI utilization equal to the maximum SI utilization. For the
// InTest-only objective the second set is empty.
func bottleneckRails(a *tam.Architecture) []int {
	var maxIn, maxSI int64
	for _, r := range a.Rails {
		if r.TimeIn > maxIn {
			maxIn = r.TimeIn
		}
		if r.TimeSI > maxSI {
			maxSI = r.TimeSI
		}
	}
	var out []int
	for i, r := range a.Rails {
		if r.TimeIn == maxIn || (maxSI > 0 && r.TimeSI == maxSI) {
			out = append(out, i)
		}
	}
	return out
}

// sortByTimeUsed sorts rails by non-increasing utilized time, the order
// the paper's loops operate on. Ties break by core-ID signature for
// determinism (Rail.Key caches the signature, so the comparisons do not
// allocate).
func sortByTimeUsed(a *tam.Architecture) {
	sort.SliceStable(a.Rails, func(i, j int) bool {
		ti, tj := a.Rails[i].TimeUsed(), a.Rails[j].TimeUsed()
		if ti != tj {
			return ti > tj
		}
		return a.Rails[i].Key() < a.Rails[j].Key()
	})
}
