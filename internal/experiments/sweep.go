package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sitam/internal/core"
	"sitam/internal/soc"
	"sitam/internal/tam"
)

// RunTableCtx reproduces one of the paper's tables for SOC s, with
// graceful degradation under a done context.
//
// The sweep is one task list: a pattern generation per N_r, a grouping
// per (N_r, g), a TR-Architect baseline per W_max shared by every N_r
// block (it reads no SI groups; each block scores it against its own
// groupings for T_[8]), and an SI-aware solve per (N_r, W_max, g). The
// tasks run on core.ParallelFor under the resolved Parallel.Workers,
// each solve at one worker and each grouping on one compaction worker,
// and every task waits only on tasks listed before it, so one worker
// runs the same list serially. A walk over the steps in table order
// assembles the cells and writes the progress lines as they become
// ready, so the table and the lines do not depend on the worker count.
//
// On cancellation or deadline expiry the cells completed in table order
// before the first interrupted step come back in a Table marked Partial
// with a nil error — a cell whose optimization was interrupted is
// discarded rather than reported with degraded numbers, so every cell
// present is exact. Only when no cell completed does the context's
// error come back. Otherwise the error of the first failed step in
// table order is returned.
func RunTableCtx(ctx context.Context, s *soc.SOC, cfg TableConfig) (*Table, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	workers, par := budget(cfg)
	sw := newSweep(ctx, s, cfg, par)
	core.ParallelFor(workers, len(sw.tasks), sw.runTask)

	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.walk()
	sw.tbl.Elapsed = time.Since(start)
	switch {
	case sw.err != nil:
		return nil, sw.err
	case sw.stage == "":
		return sw.tbl, nil
	case len(sw.tbl.Cells) == 0:
		return nil, ctx.Err()
	}
	sw.tbl.Partial = true
	sw.tbl.Reason = fmt.Sprintf("stopped during %s: %v", sw.stage, ctx.Err())
	sw.logf("%s: %s; returning %d completed cells", s.Name, sw.tbl.Reason, len(sw.tbl.Cells))
	return sw.tbl, nil
}

// budget resolves TableConfig.Parallel into the sweep's task budget
// and the configuration every solve runs with. The zero value selects
// one worker without a cache, the historical serial behavior.
// Otherwise Workers 0 means GOMAXPROCS and a negative count one
// worker, as for core.ParallelConfig; the solves themselves run at one
// worker.
func budget(cfg TableConfig) (int, core.ParallelConfig) {
	par := cfg.Parallel
	if par == (core.ParallelConfig{}) {
		par = core.ParallelConfig{Workers: 1, CacheSize: -1}
	}
	workers := par.Workers
	switch {
	case workers == 0:
		workers = runtime.GOMAXPROCS(0)
	case workers < 0:
		workers = 1
	}
	par.Workers = 1
	return workers, par
}

// outcome is how a task ended.
type outcome uint8

const (
	pending outcome = iota // not finished (or panicked)
	done                   // finished; its output is in place
	stopped                // cut short by a done context, or skipped
	failed                 // failed with task.err
)

// task is one node of the sweep graph.
type task struct {
	step int   // the task's first step in table order
	dep  *task // the task it reads, listed before it; nil for none
	run  func() (cut bool, err error)

	// finished is closed when the task returns, after its outcome is
	// set, and also when it panics, so a failing or panicking task
	// still releases the task that reads it.
	finished chan struct{}
	out      outcome // guarded by sweep.mu; stable once finished is closed
	err      error
}

// stepKind names what a step of the table walk consumes.
type stepKind uint8

const (
	genStep stepKind = iota
	groupStep
	baseStep
	solveStep
	cellStep
)

// step is one position of the table walk. Per N_r block, table order
// is the generation, the groupings, and per width the baseline, the
// SI-aware solves and the finished cell.
type step struct {
	kind       stepKind
	ni, wi, gi int   // indices into Nr, Widths and Groupings
	task       *task // nil for cellStep
}

// sweep is one RunTableCtx call: the task list, the tasks' outputs and
// the table walk.
type sweep struct {
	ctx context.Context
	s   *soc.SOC
	cfg TableConfig
	par core.ParallelConfig

	tasks []*task // list order: the order ParallelFor hands them out
	steps []step  // table order

	// Task outputs, each written by its task before it finishes. A
	// block's generation draws its patterns straight into its corpus;
	// its last grouping to finish drops the corpus.
	corpora []*core.Corpus // by N_r
	readers []atomic.Int32 // by N_r: groupings yet to read the corpus
	groups  [][]*core.GroupingResult
	bases   []*tam.Architecture
	solves  [][][]core.Breakdown

	// failAt is the lowest step of a task that did not finish; a task
	// whose first step lies beyond it cannot reach the table and is
	// skipped.
	failAt atomic.Int64

	mu    sync.Mutex // guards the walk state below and every task's out
	next  int        // the first step the walk has not passed
	tbl   *Table
	cell  Cell   // the cell being assembled
	stage string // where the walk stopped on a stop
	err   error  // what the walk stopped on, on a failure
}

func newSweep(ctx context.Context, s *soc.SOC, cfg TableConfig, par core.ParallelConfig) *sweep {
	nNr, nW, nG := len(cfg.Nr), len(cfg.Widths), len(cfg.Groupings)
	sw := &sweep{
		ctx: ctx, s: s, cfg: cfg, par: par,
		corpora: make([]*core.Corpus, nNr),
		readers: make([]atomic.Int32, nNr),
		groups:  make([][]*core.GroupingResult, nNr),
		bases:   make([]*tam.Architecture, nW),
		solves:  make([][][]core.Breakdown, nNr),
		tbl: &Table{
			SOC:             s.Name,
			Groupings:       append([]int(nil), cfg.Groupings...),
			CompactionStats: make(map[int]map[int]GroupingStat),
		},
	}
	sw.failAt.Store(math.MaxInt64)
	newTask := func(run func() (bool, error), dep *task) *task {
		return &task{run: run, dep: dep, finished: make(chan struct{}), step: -1}
	}

	// The tasks, and the steps that consume them in table order.
	gens := make([]*task, nNr)
	groups := make([][]*task, nNr)
	bases := make([]*task, nW)
	solves := make([][][]*task, nNr)
	for wi := range bases {
		bases[wi] = newTask(sw.baseline(wi), nil)
	}
	for ni := range cfg.Nr {
		gens[ni] = newTask(sw.generate(ni), nil)
		sw.readers[ni].Store(int32(nG))
		sw.groups[ni] = make([]*core.GroupingResult, nG)
		sw.solves[ni] = make([][]core.Breakdown, nW)
		groups[ni] = make([]*task, nG)
		for gi := range groups[ni] {
			groups[ni][gi] = newTask(sw.group(ni, gi), gens[ni])
		}
		solves[ni] = make([][]*task, nW)
		for wi := range solves[ni] {
			sw.solves[ni][wi] = make([]core.Breakdown, nG)
			solves[ni][wi] = make([]*task, nG)
			for gi := range solves[ni][wi] {
				solves[ni][wi][gi] = newTask(sw.solve(ni, wi, gi), groups[ni][gi])
			}
		}
	}
	add := func(st step) {
		if st.task != nil && st.task.step < 0 {
			st.task.step = len(sw.steps)
		}
		sw.steps = append(sw.steps, st)
	}
	for ni := range cfg.Nr {
		add(step{kind: genStep, ni: ni, task: gens[ni]})
		for gi := range cfg.Groupings {
			add(step{kind: groupStep, ni: ni, gi: gi, task: groups[ni][gi]})
		}
		for wi := range cfg.Widths {
			add(step{kind: baseStep, ni: ni, wi: wi, task: bases[wi]})
			for gi := range cfg.Groupings {
				add(step{kind: solveStep, ni: ni, wi: wi, gi: gi, task: solves[ni][wi][gi]})
			}
			add(step{kind: cellStep, ni: ni, wi: wi})
		}
	}

	// List order. The generations come first, largest N_r first, since
	// the largest corpus feeds the longest groupings; the baselines
	// next. Then block by block, smallest N_r first, the groupings and
	// the solves, so that a worker free before the large corpus exists
	// finds the small blocks' work rather than waiting on it.
	byNr := make([]int, nNr)
	for ni := range byNr {
		byNr[ni] = ni
	}
	sort.SliceStable(byNr, func(a, b int) bool { return cfg.Nr[byNr[a]] > cfg.Nr[byNr[b]] })
	for _, ni := range byNr {
		sw.tasks = append(sw.tasks, gens[ni])
	}
	sw.tasks = append(sw.tasks, bases...)
	for i := len(byNr) - 1; i >= 0; i-- {
		ni := byNr[i]
		sw.tasks = append(sw.tasks, groups[ni]...)
		for wi := range cfg.Widths {
			sw.tasks = append(sw.tasks, solves[ni][wi]...)
		}
	}
	return sw
}

// generate is the pattern generation task of block ni: it draws the
// block's patterns straight into its corpus (core.GenerateCorpus).
func (sw *sweep) generate(ni int) func() (bool, error) {
	return func() (bool, error) {
		gen := sw.cfg.Gen
		gen.N = sw.cfg.Nr[ni]
		gen.Seed = sw.cfg.Seed + int64(gen.N)
		c, cut, err := core.GenerateCorpus(sw.ctx, sw.s, gen)
		sw.corpora[ni] = c
		return cut, err
	}
}

// group is the grouping task of block ni at Groupings[gi]. The last
// grouping of a block to finish drops the block's corpus.
func (sw *sweep) group(ni, gi int) func() (bool, error) {
	return func() (bool, error) {
		gr, err := sw.corpora[ni].Group(sw.ctx, core.GroupingOptions{
			Parts: sw.cfg.Groupings[gi], Seed: sw.cfg.Seed, CompactWorkers: 1,
		})
		if sw.readers[ni].Add(-1) == 0 {
			sw.corpora[ni] = nil
		}
		if err != nil {
			return false, err
		}
		sw.groups[ni][gi] = gr
		return gr.Partial, nil
	}
}

// baseline is the TR-Architect baseline task at Widths[wi].
func (sw *sweep) baseline(wi int) func() (bool, error) {
	return func() (bool, error) {
		res, err := core.Solve(sw.ctx, core.Problem{SOC: sw.s, Wmax: sw.cfg.Widths[wi]},
			core.Options{Method: core.MethodBaseline, ParallelConfig: sw.par})
		if err != nil {
			return false, err
		}
		sw.bases[wi] = res.Architecture
		return res.Partial, nil
	}
}

// solve is the SI-aware solve task of block ni at Widths[wi] and
// Groupings[gi].
func (sw *sweep) solve(ni, wi, gi int) func() (bool, error) {
	return func() (bool, error) {
		res, err := core.Solve(sw.ctx, core.Problem{
			SOC: sw.s, Wmax: sw.cfg.Widths[wi], Groups: sw.groups[ni][gi].Groups, Model: sw.cfg.Model,
		}, core.Options{ParallelConfig: sw.par})
		if err != nil {
			return false, err
		}
		sw.solves[ni][wi][gi] = res.Breakdown
		return res.Partial, nil
	}
}

// runTask is the ParallelFor body: it waits for the task that task i
// reads, runs task i unless it can no longer reach the table, records
// the outcome and walks the table as far as the finished tasks allow.
func (sw *sweep) runTask(i int) {
	t := sw.tasks[i]
	defer close(t.finished)
	out, err := stopped, error(nil)
	if sw.ready(t) {
		var cut bool
		cut, err = t.run()
		switch {
		case err != nil && sw.ctx.Err() != nil && errors.Is(err, sw.ctx.Err()):
			// The layer saw the done context before it started.
			out, err = stopped, nil
		case err != nil:
			out = failed
		case !cut:
			out = done
		}
	}
	if out != done {
		sw.fail(t.step)
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	t.out, t.err = out, err
	sw.walk()
}

// ready waits for the task t reads and reports whether t can still
// reach the table: that task finished and no task before t's first
// step has failed or stopped.
func (sw *sweep) ready(t *task) bool {
	if t.dep != nil {
		<-t.dep.finished
		if t.dep.out != done {
			return false
		}
	}
	return int64(t.step) < sw.failAt.Load()
}

// fail lowers failAt to step.
func (sw *sweep) fail(step int) {
	for {
		cur := sw.failAt.Load()
		if int64(step) >= cur || sw.failAt.CompareAndSwap(cur, int64(step)) {
			return
		}
	}
}

// walk advances over the steps whose tasks have finished, in table
// order: it writes each step's progress line, fills CompactionStats
// and assembles the cells. It stops for good at the first step whose
// task failed or stopped. Called with sw.mu held, which is also what
// keeps the Progress writes in table order and on one goroutine at a
// time.
func (sw *sweep) walk() {
	for sw.stage == "" && sw.err == nil && sw.next < len(sw.steps) {
		st := sw.steps[sw.next]
		if st.task != nil {
			switch st.task.out {
			case pending:
				return
			case failed:
				sw.err = st.task.err
				return
			case stopped:
				sw.stage = sw.stageOf(st)
				if st.kind == groupStep {
					delete(sw.tbl.CompactionStats, sw.cfg.Nr[st.ni])
				}
				return
			}
		}
		if err := sw.take(st); err != nil {
			sw.err = err
			return
		}
		sw.next++
	}
}

// take applies one finished step to the table.
func (sw *sweep) take(st step) error {
	name, nr := sw.s.Name, sw.cfg.Nr[st.ni]
	switch st.kind {
	case genStep:
		sw.logf("%s: generated %d SI patterns (seed %d)", name, nr, sw.cfg.Seed+int64(nr))
		sw.tbl.CompactionStats[nr] = make(map[int]GroupingStat)
	case groupStep:
		g, gr := sw.cfg.Groupings[st.gi], sw.groups[st.ni][st.gi]
		sw.logf("%s: Nr=%d g=%d: %d -> %d patterns (%.1fx), %d residual",
			name, nr, g, gr.Stats.Original, gr.TotalCompacted(), gr.Stats.Ratio(), gr.CutPatterns)
		sw.tbl.CompactionStats[nr][g] = GroupingStat{
			Original:  gr.Stats.Original,
			Compacted: gr.TotalCompacted(),
			Residual:  gr.CutPatterns,
			Groups:    len(gr.Groups),
		}
	case baseStep:
		// T_[8]: the InTest-only architecture with the SI tests of the
		// block's best grouping for it, so the baseline is not
		// penalized by the grouping choice.
		sw.cell = Cell{Wmax: sw.cfg.Widths[st.wi], Nr: nr}
		for _, gr := range sw.groups[st.ni] {
			bd, _, err := core.EvaluateBreakdown(sw.bases[st.wi], gr.Groups, sw.cfg.Model)
			if err != nil {
				return err
			}
			if sw.cell.T8 == 0 || bd.TimeSOC < sw.cell.T8 {
				sw.cell.T8 = bd.TimeSOC
				sw.cell.InTest8 = bd.TimeIn
			}
		}
	case solveStep:
		bd := sw.solves[st.ni][st.wi][st.gi]
		sw.logf("%s: Nr=%d W=%d g=%d: T_soc=%d (T_in=%d, T_si=%d)",
			name, nr, sw.cfg.Widths[st.wi], sw.cfg.Groupings[st.gi], bd.TimeSOC, bd.TimeIn, bd.TimeSI)
		sw.cell.Tg = append(sw.cell.Tg, bd.TimeSOC)
		if sw.cell.Tmin == 0 || bd.TimeSOC < sw.cell.Tmin {
			sw.cell.Tmin = bd.TimeSOC
			sw.cell.InTestMin = bd.TimeIn
		}
	case cellStep:
		c := sw.cell
		sw.logf("%s: Nr=%d W=%d: T_[8]=%d T_min=%d ΔT_[8]=%.2f%% ΔT_g=%.2f%%",
			name, nr, c.Wmax, c.T8, c.Tmin, c.DeltaT8(), c.DeltaTg())
		sw.tbl.Cells = append(sw.tbl.Cells, c)
	}
	return nil
}

// stageOf names the stage of a stopped step for Table.Reason.
func (sw *sweep) stageOf(st step) string {
	nr := sw.cfg.Nr[st.ni]
	switch st.kind {
	case genStep:
		return fmt.Sprintf("pattern generation (Nr=%d)", nr)
	case groupStep:
		return fmt.Sprintf("compaction (Nr=%d, g=%d)", nr, sw.cfg.Groupings[st.gi])
	case baseStep:
		return fmt.Sprintf("baseline optimization (Nr=%d, W=%d)", nr, sw.cfg.Widths[st.wi])
	}
	return fmt.Sprintf("SI-aware optimization (Nr=%d, W=%d, g=%d)", nr, sw.cfg.Widths[st.wi], sw.cfg.Groupings[st.gi])
}

// logf writes one progress line. Called with sw.mu held.
func (sw *sweep) logf(format string, a ...any) {
	if sw.cfg.Progress != nil {
		fmt.Fprintf(sw.cfg.Progress, format+"\n", a...)
	}
}
