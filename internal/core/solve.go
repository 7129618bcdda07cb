package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"

	"sitam/internal/obs"
	"sitam/internal/sifault"
	"sitam/internal/sischedule"
	"sitam/internal/soc"
	"sitam/internal/tam"
)

// Method selects the optimizer Solve runs. Its values are the algo
// strings of the daemon's job JSON.
type Method string

// The methods Solve runs. The zero Method is MethodSI.
const (
	// MethodSI is the paper's SI-aware TAM_Optimization (Algorithm 2).
	MethodSI Method = "si"
	// MethodBaseline is the SI-oblivious TR-Architect baseline: the
	// same engine under the InTest-only objective, with the SI groups
	// scheduled on its architecture afterwards (the paper's T_[8]).
	MethodBaseline Method = "baseline"
	// MethodILS is MethodSI followed by Options.Kicks iterated-local-
	// search rounds in each of Options.Restarts independent searches.
	MethodILS Method = "ils"
)

// Validate rejects a method Solve does not know.
func (m Method) Validate() error {
	switch m {
	case "", MethodSI, MethodBaseline, MethodILS:
		return nil
	}
	return fmt.Errorf("core: unknown method %q (want si, baseline or ils)", string(m))
}

// Problem is one TAM optimization instance: an SOC, its total TAM
// width, the SI test groups to schedule and their cost model. Nil
// Groups optimize and report the InTest time alone.
type Problem struct {
	SOC    *soc.SOC
	Wmax   int
	Groups []*sischedule.Group
	Model  sischedule.Model
}

// Options selects how Solve optimizes a Problem. Kicks, Restarts and
// Seed apply to MethodILS only; Restarts 0 means one search. The
// embedded ParallelConfig sets concurrency, memoization, budget and
// observability; every setting of it yields the same architecture.
type Options struct {
	Method   Method
	Kicks    int
	Restarts int
	Seed     int64
	ParallelConfig
}

// Solve optimizes p with the method o selects and returns the
// architecture with its time breakdown and SI schedule. The SOC's
// optional Constraints stanza is compiled here, once, against the
// groups: constraints travel on the SOC, so no signature names them.
// Solve is an anytime algorithm: on cancellation, deadline expiry or
// budget exhaustion mid-search the best architecture found so far
// comes back with Result.Partial set and a nil error. The context's
// error comes back only when no valid architecture was produced.
func Solve(ctx context.Context, p Problem, o Options) (*Result, error) {
	if err := o.Method.Validate(); err != nil {
		return nil, err
	}
	cons, err := sischedule.CompileConstraints(p.SOC, p.SOC.Constraints, p.Groups)
	if err != nil {
		return nil, err
	}
	var eval Evaluator = InTestEvaluator{}
	if o.Method != MethodBaseline {
		eval = NewIncrementalSIEvaluator(p.Groups, p.Model, cons)
	}
	eng, err := NewEngine(p.SOC, p.Wmax, eval)
	if err != nil {
		return nil, err
	}
	eng.configure(o.ParallelConfig, fingerprint(o.Method, p))
	var arch *tam.Architecture
	var st Status
	if o.Method == MethodILS {
		restarts := o.Restarts
		if restarts == 0 {
			restarts = 1
		}
		arch, _, st, err = eng.OptimizeILSCtx(ctx, o.Kicks, restarts, o.Seed)
	} else {
		arch, _, st, err = eng.OptimizeCtx(ctx)
	}
	if err != nil {
		return nil, err
	}
	return eng.Finish(arch, st, p.Groups, p.Model, cons)
}

// Cell is one cell of the paper's evaluation (Section 5): an SOC at
// total TAM width Wmax, Nr random SI patterns drawn from Seed, and
// Parts, the g groups the partitioner (seeded with Seed too) splits
// the cores into.
type Cell struct {
	SOC   *soc.SOC
	Wmax  int
	Nr    int
	Parts int
	Seed  int64
}

// Run is the pipeline of one cell: it draws c.Nr SI patterns straight
// into a corpus (GenerateCorpus), groups it into c.Parts groups and
// solves the cell with o under the default cost model. o.Workers also
// bounds the compaction goroutines, o.Trace also receives the "pattern
// generation" span, which covers the packing too, and the grouping's
// events, and o.Metrics the grouping's counters.
//
// A cut generation ends the run: Run emits its deadline_hit inside the
// "pattern generation" span, which counts the patterns drawn, and
// returns the context's error, because grouping would refuse the done
// context anyway. Past generation Run is anytime like its stages: when
// a done context cut grouping or the search short, the Result's
// Partial, Reason and Cause describe the first such stage. The error
// is non-nil only when a stage produced nothing usable; the grouping
// comes back whenever it was built, even when Solve then fails.
func Run(ctx context.Context, c Cell, o Options) (*Result, *GroupingResult, error) {
	var sink obs.Sink
	if o.Trace != nil {
		sink = o.Trace // never a nil *Tracer in a non-nil Sink
	}
	span := obs.Span(sink, phaseGenerate)
	corpus, cut, err := GenerateCorpus(ctx, c.SOC, sifault.GenConfig{N: c.Nr, Seed: c.Seed})
	if err != nil {
		return nil, nil, err
	}
	if cut {
		err = ctx.Err()
		if sink != nil {
			sink.Emit(obs.Event{Type: obs.DeadlineHit, Phase: phaseGenerate, Cause: CauseOf(err).Label()})
		}
		span.End(0, int64(corpus.Len()))
		return nil, nil, err
	}
	span.End(0, int64(corpus.Len()))

	gr, err := corpus.Group(ctx, GroupingOptions{
		Parts: c.Parts, Seed: c.Seed, Trace: sink, CompactWorkers: o.Workers, Metrics: o.Metrics,
	})
	if err != nil {
		return nil, nil, err
	}
	res, err := Solve(ctx, Problem{SOC: c.SOC, Wmax: c.Wmax, Groups: gr.Groups, Model: sischedule.DefaultModel()}, o)
	if err != nil {
		return nil, gr, err
	}
	if gr.Partial {
		res.Partial, res.Reason, res.Cause = true, gr.Reason, gr.Cause
	}
	return res, gr, nil
}

// TAMOptimizationWith is Solve with MethodSI. It is kept, with its
// signature, because the benchmark module e2ebench calls it.
func TAMOptimizationWith(ctx context.Context, s *soc.SOC, wmax int, groups []*sischedule.Group, m sischedule.Model, cfg ParallelConfig) (*Result, error) {
	return Solve(ctx, Problem{SOC: s, Wmax: wmax, Groups: groups, Model: m}, Options{ParallelConfig: cfg})
}

// fingerprint hashes every input the objective of method m reads: the
// objective kind, the SOC's cores and constraint stanza (in the
// canonical form soc.Write prints), and for the SI objective the
// groups in order and the cost model. Mixed into every cache key, it
// keeps a cache file shared across problems from answering one
// problem with another's cost.
func fingerprint(m Method, p Problem) uint64 {
	h := fnv.New64a()
	_ = soc.Write(h, p.SOC) // writes to a hash never fail
	if m == MethodBaseline {
		fmt.Fprint(h, "objective intest")
		return h.Sum64()
	}
	fmt.Fprintf(h, "objective si %d %d", p.Model.Bypass, p.Model.Overhead)
	for _, g := range p.Groups {
		fmt.Fprintf(h, "\ngroup %d %v", g.Patterns, g.Cores)
	}
	return h.Sum64()
}

// configure wires cfg onto the engine: a memoization cache whose keys
// mix in fp (none when cfg.CacheSize is negative), the ILS restart
// worker count (0 = GOMAXPROCS, negative = 1), the evaluation budget,
// the trace and metrics sinks, and the persistent cache file.
func (e *Engine) configure(cfg ParallelConfig, fp uint64) {
	if cfg.CacheSize >= 0 {
		c := NewCachedEvaluator(e.Eval, cfg.CacheSize)
		c.salt = fp
		c.AttachPersistent(cfg.Persist)
		e.Eval = c
	}
	e.workers = cfg.Workers
	switch {
	case cfg.Workers == 0:
		e.workers = runtime.GOMAXPROCS(0)
	case cfg.Workers < 0:
		e.workers = 1
	}
	e.MaxEvals = cfg.MaxEvals
	if cfg.Trace != nil {
		e.Trace = cfg.Trace // never a nil *Tracer in a non-nil Sink
	}
	e.Metrics = cfg.Metrics
}
