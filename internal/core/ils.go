package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"

	"sitam/internal/obs"
	"sitam/internal/tam"
)

// This file extends the paper's deterministic TAM_Optimization with
// iterated local search (ILS): after the greedy optimization converges,
// the architecture is "kicked" by a small random perturbation (moving
// random cores between rails and shifting a wire) and re-optimized by
// the same merge/distribute/reshuffle machinery; the best architecture
// seen wins. The paper stops at the greedy fixed point; ILS is the
// natural next step its Section 6 leaves open, and the ablation bench
// quantifies what it buys.

// ils runs one search of OptimizeILSCtx: OptimizeCtx, then `kicks`
// perturbation rounds seeded by seed, checking the context before and
// during every round.
func (e *Engine) ils(ctx context.Context, kicks int, seed int64) (*tam.Architecture, int64, Status, error) {
	if kicks < 0 {
		return nil, 0, Status{}, fmt.Errorf("core: negative kick count %d", kicks)
	}
	best, bestObj, st, err := e.OptimizeCtx(ctx)
	if err != nil || st.Partial || kicks == 0 {
		return best, bestObj, st, err
	}
	rng := rand.New(rand.NewSource(seed))
	cur, curObj := best, bestObj
	end := e.phase(phaseILS)
	partial := func(err error, reason string, kick int) (*tam.Architecture, int64, Status, error) {
		e.stopEvent(err, phaseILS, kick)
		end(bestObj)
		return best, bestObj, Status{Partial: true, Reason: stopReason(err, reason), Cause: CauseOf(err)}, nil
	}
	for k := 0; k < kicks; k++ {
		if cerr := ctx.Err(); cerr != nil {
			return partial(cerr, fmt.Sprintf("ILS kick %d/%d", k+1, kicks), k+1)
		}
		cand := cur.Clone()
		e.kick(cand, rng)
		obj, err := e.eval(cand)
		if err != nil {
			if isStop(err) {
				return partial(err, fmt.Sprintf("ILS kick %d/%d", k+1, kicks), k+1)
			}
			return nil, 0, Status{}, err
		}
		cand, obj, err = e.localSearch(ctx, cand, obj)
		if err != nil {
			if isStop(err) {
				return partial(err, fmt.Sprintf("ILS local search, kick %d/%d", k+1, kicks), k+1)
			}
			return nil, 0, Status{}, err
		}
		// Accept improvements; otherwise restart the walk from the
		// incumbent (classic better-acceptance ILS).
		if obj < curObj {
			cur, curObj = cand, obj
		}
		if curObj < bestObj {
			best, bestObj = cur, curObj
		}
		if e.Trace != nil {
			e.Trace.Emit(obs.Event{Type: obs.ILSKick, Phase: phaseILS, Kick: k + 1, Seed: seed, Obj: obj, Best: bestObj})
		}
	}
	end(bestObj)
	return best, bestObj, Status{}, nil
}

// OptimizeILSCtx runs `restarts` independent iterated-local-search
// runs with seeds seed, seed+1, ..., seed+restarts-1 and returns the
// best architecture found. Each run is OptimizeCtx followed by `kicks`
// perturbation rounds; with kicks == 0 it is exactly OptimizeCtx.
// Restarts are mutually independent, so a configured engine runs up to
// its resolved worker count of them at once, each scoring its
// candidates serially; the reduction picks the smallest objective,
// ties broken by the lowest seed, so the outcome is byte-identical at
// any worker count.
//
// It is an anytime algorithm: cancellation, deadline expiry or budget
// exhaustion mid-search returns the best architecture any restart
// found so far with Status.Partial set and a nil error. The
// best-so-far objective is monotonically non-increasing, so a partial
// result is never better than what the complete run would return. The
// context's error comes back only when no restart produced anything.
//
// Each restart traces into its own buffer, drained into the engine's
// sink in restart order once all restarts finish, and counts
// evaluations into its own counter (folded into the engine total), so
// the trace and the per-phase counts are deterministic at any worker
// count. MaxEvals bounds each restart independently.
func (e *Engine) OptimizeILSCtx(ctx context.Context, kicks, restarts int, seed int64) (*tam.Architecture, int64, Status, error) {
	if restarts < 1 {
		return nil, 0, Status{}, fmt.Errorf("core: restart count %d < 1", restarts)
	}
	if restarts == 1 {
		return e.ils(ctx, kicks, seed)
	}
	type outcome struct {
		a   *tam.Architecture
		obj int64
		st  Status
		err error
	}
	res := make([]outcome, restarts)
	var locals []*obs.Local
	if e.Trace != nil {
		locals = make([]*obs.Local, restarts)
		for i := range locals {
			locals[i] = obs.NewLocal()
		}
	}
	counters := make([]*atomic.Int64, restarts)
	run := func(i int) {
		inner := *e
		inner.evals = new(atomic.Int64)
		counters[i] = inner.evals
		if locals != nil {
			inner.Trace = locals[i]
		}
		r := &res[i]
		r.a, r.obj, r.st, r.err = inner.ils(ctx, kicks, seed+int64(i))
	}
	if e.workers > 1 {
		ParallelFor(e.workers, restarts, run)
	} else {
		for i := 0; i < restarts; i++ {
			run(i)
		}
	}
	if e.evals != nil {
		for _, c := range counters {
			if c != nil {
				e.evals.Add(c.Load())
			}
		}
	}
	if locals != nil {
		obs.Drain(e.Trace, locals...)
	}
	best := -1
	partial := Status{}
	for i := range res {
		r := &res[i]
		if r.err != nil {
			if isStop(r.err) {
				partial = statusOf(r.err, fmt.Sprintf("ILS restart %d/%d", i+1, restarts))
				continue
			}
			return nil, 0, Status{}, r.err
		}
		if r.st.Partial {
			partial = r.st
		}
		if best < 0 || r.obj < res[best].obj {
			best = i
		}
	}
	if best < 0 {
		return nil, 0, Status{}, ctx.Err()
	}
	return res[best].a, res[best].obj, partial, nil
}

// localSearch re-runs the polishing loops of Optimize on an existing
// architecture: bottom-up merges, then reshuffle.
func (e *Engine) localSearch(ctx context.Context, a *tam.Architecture, obj int64) (*tam.Architecture, int64, error) {
	for improved := true; improved && len(a.Rails) > 1; {
		sortByTimeUsed(a)
		a2, obj2, err := e.mergeTAMs(ctx, a, obj, len(a.Rails)-1, phaseILSLocal)
		if err != nil {
			return nil, 0, err
		}
		improved = obj2 < obj
		a, obj = a2, obj2
	}
	return e.coreReshuffle(ctx, a, obj, phaseILSLocal)
}

// kick applies a random perturbation in place: move 1-2 random cores to
// random rails (possibly new single-wire rails carved out of a wide
// one) and, when possible, shift one wire between two random rails.
func (e *Engine) kick(a *tam.Architecture, rng *rand.Rand) {
	moves := 1 + rng.Intn(2)
	for m := 0; m < moves; m++ {
		from := rng.Intn(len(a.Rails))
		if len(a.Rails[from].Cores) <= 1 {
			continue
		}
		id := a.Rails[from].Cores[rng.Intn(len(a.Rails[from].Cores))]
		if len(a.Rails) > 1 && (rng.Intn(3) > 0 || a.Rails[from].Width < 2) {
			// Move to another existing rail.
			to := rng.Intn(len(a.Rails) - 1)
			if to >= from {
				to++
			}
			a.MoveCore(from, to, id)
		} else {
			// Carve a new single-wire rail out of the source rail.
			a.CarveCore(from, id)
		}
	}
	// Shift one wire between two random rails.
	if len(a.Rails) > 1 {
		from := rng.Intn(len(a.Rails))
		to := rng.Intn(len(a.Rails) - 1)
		if to >= from {
			to++
		}
		if a.Rails[from].Width > 1 {
			a.SetWidth(from, a.Rails[from].Width-1)
			a.SetWidth(to, a.Rails[to].Width+1)
		}
	}
}
