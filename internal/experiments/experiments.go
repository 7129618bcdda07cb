// Package experiments regenerates the evaluation artifacts of the paper:
// Tables 2 and 3 (overall SOC test time for p34392 and p93791 under the
// SI-oblivious baseline and the SI-aware optimizer at several SI test
// grouping counts), the Section 2 motivation estimates, and the ablation
// sweeps called out in DESIGN.md.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"sitam/internal/core"
	"sitam/internal/sifault"
	"sitam/internal/sischedule"
	"sitam/internal/soc"
)

// TableConfig parameterizes one table run (the paper's Table 2/3 setup).
type TableConfig struct {
	// Widths is the set of W_max values. Nil defaults to 8..64 step 8.
	Widths []int

	// Nr is the set of initial SI pattern counts. Nil defaults to
	// {10000, 100000}.
	Nr []int

	// Groupings is the set of SI partition counts g. Nil defaults to
	// {1, 2, 4, 8}.
	Groupings []int

	// Seed drives pattern generation and partitioning.
	Seed int64

	// Gen overrides the pattern generator defaults (N and Seed are set
	// per run and ignored here).
	Gen sifault.GenConfig

	// Model is the SI shift cost model; the zero value selects
	// sischedule.DefaultModel.
	Model sischedule.Model

	// Progress, when non-nil, receives one line per completed cell.
	Progress io.Writer

	// Parallel configures candidate-evaluation concurrency and
	// memoization for every optimization in the sweep. The zero value
	// runs serially without a cache, matching the historical behavior;
	// any setting yields byte-identical table numbers.
	Parallel core.ParallelConfig
}

func (c TableConfig) withDefaults() TableConfig {
	if c.Widths == nil {
		c.Widths = []int{8, 16, 24, 32, 40, 48, 56, 64}
	}
	if c.Nr == nil {
		c.Nr = []int{10000, 100000}
	}
	if c.Groupings == nil {
		c.Groupings = []int{1, 2, 4, 8}
	}
	if c.Model == (sischedule.Model{}) {
		c.Model = sischedule.DefaultModel()
	}
	return c
}

// Cell is one table entry: the outcomes at a single (Nr, Wmax).
type Cell struct {
	Wmax int
	Nr   int

	// T8 is the SI-oblivious result: architecture optimized for InTest
	// only, SI tests then scheduled on it (best grouping).
	T8 int64

	// Tg[i] is the SI-aware result with Groupings[i] parts.
	Tg []int64

	// Tmin is min over Tg.
	Tmin int64

	// InTest8 and InTestMin are the InTest components of T8 and Tmin
	// (reported for shape analysis; not a paper column).
	InTest8   int64
	InTestMin int64
}

// DeltaT8 returns (T8-Tmin)/T8 in percent — the paper's ΔT_[8].
func (c Cell) DeltaT8() float64 {
	if c.T8 == 0 {
		return 0
	}
	return float64(c.T8-c.Tmin) / float64(c.T8) * 100
}

// DeltaTg returns (Tg1-Tmin)/Tg1 in percent — the paper's ΔT_g, the
// benefit of two-dimensional compaction over count-only compaction.
func (c Cell) DeltaTg() float64 {
	if len(c.Tg) == 0 || c.Tg[0] == 0 {
		return 0
	}
	return float64(c.Tg[0]-c.Tmin) / float64(c.Tg[0]) * 100
}

// Table is the outcome of a full table run for one SOC.
type Table struct {
	SOC       string
	Groupings []int
	Cells     []Cell
	Elapsed   time.Duration

	// CompactionStats[nr][g] records the 2-D compaction outcome used
	// for the cells with that Nr and grouping count.
	CompactionStats map[int]map[int]GroupingStat

	// Partial reports that the run was cut short by a done context.
	// Cells holds only the fully computed cells — a cell whose
	// optimization was interrupted is discarded, never reported with a
	// degraded number, so every value present is exact.
	Partial bool

	// Reason describes where the run stopped when Partial is set.
	Reason string
}

// GroupingStat summarizes one (Nr, g) compaction.
type GroupingStat struct {
	Original  int64
	Compacted int
	Residual  int64
	Groups    int
}

// parCfg resolves TableConfig.Parallel: the zero value selects the
// historical serial, cache-free path; anything else passes through
// (with core's own zero-value conventions: Workers 0 = GOMAXPROCS,
// CacheSize 0 = DefaultCacheSize).
func parCfg(cfg TableConfig) core.ParallelConfig {
	if cfg.Parallel == (core.ParallelConfig{}) {
		return core.ParallelConfig{Workers: 1, CacheSize: -1}
	}
	return cfg.Parallel
}

// compactWorkers is the sweep's one worker budget applied to grouping:
// the resolved Parallel.Workers, so the zero TableConfig and Workers 1
// group serially and Workers 0 groups on GOMAXPROCS, as the engine
// evaluates. Negative Workers evaluate serially, so they group
// serially too.
func compactWorkers(cfg TableConfig) int {
	if w := parCfg(cfg).Workers; w >= 0 {
		return w
	}
	return 1
}

// RunTableCtx reproduces one of the paper's tables for SOC s, with
// graceful degradation under a done context. The table is built cell
// by cell; on cancellation or deadline expiry the run stops and the
// cells completed so far come back in a Table marked Partial with a nil
// error — a cell whose optimization was interrupted is discarded rather
// than reported with degraded numbers, so every cell present is exact.
// Only when the context fires before the first cell completed does the
// context's error come back.
func RunTableCtx(ctx context.Context, s *soc.SOC, cfg TableConfig) (*Table, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	tbl := &Table{
		SOC:             s.Name,
		Groupings:       append([]int(nil), cfg.Groupings...),
		CompactionStats: make(map[int]map[int]GroupingStat),
	}
	logf := func(format string, a ...any) {
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, format+"\n", a...)
		}
	}
	// finish marks the table partial at the given stage and returns it,
	// or surfaces the context error when nothing was completed.
	finish := func(stage string) (*Table, error) {
		tbl.Elapsed = time.Since(start)
		if len(tbl.Cells) == 0 {
			return nil, ctx.Err()
		}
		tbl.Partial = true
		tbl.Reason = fmt.Sprintf("stopped during %s: %v", stage, ctx.Err())
		logf("%s: %s; returning %d completed cells", s.Name, tbl.Reason, len(tbl.Cells))
		return tbl, nil
	}

	for _, nr := range cfg.Nr {
		gen := cfg.Gen
		gen.N = nr
		gen.Seed = cfg.Seed + int64(nr)
		patterns, cut, err := sifault.GenerateCtx(ctx, s, gen)
		if err != nil {
			return nil, err
		}
		if cut {
			// A truncated pattern set would make the Nr label a lie;
			// drop the whole block instead.
			return finish(fmt.Sprintf("pattern generation (Nr=%d)", nr))
		}
		logf("%s: generated %d SI patterns (seed %d)", s.Name, nr, gen.Seed)

		// One 2-D compaction per grouping count, shared across widths.
		groupsByG := make(map[int][]*sischedule.Group, len(cfg.Groupings))
		tbl.CompactionStats[nr] = make(map[int]GroupingStat)
		for _, g := range cfg.Groupings {
			gr, err := core.BuildGroupsCtx(ctx, s, patterns, core.GroupingOptions{Parts: g, Seed: cfg.Seed, CompactWorkers: compactWorkers(cfg)})
			if err != nil {
				return nil, err
			}
			if gr.Partial {
				delete(tbl.CompactionStats, nr)
				return finish(fmt.Sprintf("compaction (Nr=%d, g=%d)", nr, g))
			}
			groupsByG[g] = gr.Groups
			tbl.CompactionStats[nr][g] = GroupingStat{
				Original:  gr.Stats.Original,
				Compacted: gr.TotalCompacted(),
				Residual:  gr.CutPatterns,
				Groups:    len(gr.Groups),
			}
			logf("%s: Nr=%d g=%d: %d -> %d patterns (%.1fx), %d residual",
				s.Name, nr, g, gr.Stats.Original, gr.TotalCompacted(), gr.Stats.Ratio(), gr.CutPatterns)
		}

		for _, w := range cfg.Widths {
			cell := Cell{Wmax: w, Nr: nr}

			// Baseline: InTest-only architecture, then the SI tests
			// (best grouping for that fixed architecture, so the
			// baseline is not penalized by the grouping choice).
			base, err := core.Solve(ctx, core.Problem{SOC: s, Wmax: w},
				core.Options{Method: core.MethodBaseline, ParallelConfig: parCfg(cfg)})
			if err != nil {
				return nil, err
			}
			if base.Partial {
				return finish(fmt.Sprintf("baseline optimization (Nr=%d, W=%d)", nr, w))
			}
			for _, g := range cfg.Groupings {
				bd, _, err := core.EvaluateBreakdown(base.Architecture, groupsByG[g], cfg.Model)
				if err != nil {
					return nil, err
				}
				if cell.T8 == 0 || bd.TimeSOC < cell.T8 {
					cell.T8 = bd.TimeSOC
					cell.InTest8 = bd.TimeIn
				}
			}

			// SI-aware optimization per grouping count.
			for _, g := range cfg.Groupings {
				res, err := core.Solve(ctx, core.Problem{SOC: s, Wmax: w, Groups: groupsByG[g], Model: cfg.Model},
					core.Options{ParallelConfig: parCfg(cfg)})
				if err != nil {
					return nil, err
				}
				if res.Partial {
					return finish(fmt.Sprintf("SI-aware optimization (Nr=%d, W=%d, g=%d)", nr, w, g))
				}
				cell.Tg = append(cell.Tg, res.Breakdown.TimeSOC)
				if cell.Tmin == 0 || res.Breakdown.TimeSOC < cell.Tmin {
					cell.Tmin = res.Breakdown.TimeSOC
					cell.InTestMin = res.Breakdown.TimeIn
				}
				logf("%s: Nr=%d W=%d g=%d: T_soc=%d (T_in=%d, T_si=%d)",
					s.Name, nr, w, g, res.Breakdown.TimeSOC, res.Breakdown.TimeIn, res.Breakdown.TimeSI)
			}
			logf("%s: Nr=%d W=%d: T_[8]=%d T_min=%d ΔT_[8]=%.2f%% ΔT_g=%.2f%%",
				s.Name, nr, w, cell.T8, cell.Tmin, cell.DeltaT8(), cell.DeltaTg())
			tbl.Cells = append(tbl.Cells, cell)
		}
	}
	tbl.Elapsed = time.Since(start)
	return tbl, nil
}

// Format renders the table in the layout of the paper's Tables 2 and 3:
// one block per Nr, one row per Wmax.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SOC %s (elapsed %v)\n", t.SOC, t.Elapsed.Round(time.Millisecond))
	byNr := map[int][]Cell{}
	var nrOrder []int
	for _, c := range t.Cells {
		if _, ok := byNr[c.Nr]; !ok {
			nrOrder = append(nrOrder, c.Nr)
		}
		byNr[c.Nr] = append(byNr[c.Nr], c)
	}
	for _, nr := range nrOrder {
		fmt.Fprintf(&b, "\nN_r = %d\n", nr)
		fmt.Fprintf(&b, "%-6s %12s", "Wmax", "T_[8](cc)")
		for _, g := range t.Groupings {
			fmt.Fprintf(&b, " %12s", fmt.Sprintf("T_g%d(cc)", g))
		}
		fmt.Fprintf(&b, " %12s %9s %9s\n", "T_min(cc)", "ΔT_[8]%", "ΔT_g%")
		for _, c := range byNr[nr] {
			fmt.Fprintf(&b, "%-6d %12d", c.Wmax, c.T8)
			for _, tg := range c.Tg {
				fmt.Fprintf(&b, " %12d", tg)
			}
			fmt.Fprintf(&b, " %12d %9.2f %9.2f\n", c.Tmin, c.DeltaT8(), c.DeltaTg())
		}
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavored markdown table, one
// section per Nr.
func (t *Table) Markdown() string {
	var b strings.Builder
	byNr := map[int][]Cell{}
	var nrOrder []int
	for _, c := range t.Cells {
		if _, ok := byNr[c.Nr]; !ok {
			nrOrder = append(nrOrder, c.Nr)
		}
		byNr[c.Nr] = append(byNr[c.Nr], c)
	}
	for _, nr := range nrOrder {
		fmt.Fprintf(&b, "\n#### %s, N_r = %d\n\n", t.SOC, nr)
		b.WriteString("| Wmax | T_[8] (cc) |")
		for _, g := range t.Groupings {
			fmt.Fprintf(&b, " T_g%d (cc) |", g)
		}
		b.WriteString(" T_min (cc) | ΔT_[8] (%) | ΔT_g (%) |\n")
		b.WriteString("|---|---|")
		for range t.Groupings {
			b.WriteString("---|")
		}
		b.WriteString("---|---|---|\n")
		for _, c := range byNr[nr] {
			fmt.Fprintf(&b, "| %d | %d |", c.Wmax, c.T8)
			for _, tg := range c.Tg {
				fmt.Fprintf(&b, " %d |", tg)
			}
			fmt.Fprintf(&b, " %d | %.2f | %.2f |\n", c.Tmin, c.DeltaT8(), c.DeltaTg())
		}
	}
	return b.String()
}
