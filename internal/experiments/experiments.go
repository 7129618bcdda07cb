// Package experiments regenerates the evaluation artifacts of the paper:
// Tables 2 and 3 (overall SOC test time for p34392 and p93791 under the
// SI-oblivious baseline and the SI-aware optimizer at several SI test
// grouping counts), the Section 2 motivation estimates, and the ablation
// sweeps called out in DESIGN.md.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"sitam/internal/core"
	"sitam/internal/sifault"
	"sitam/internal/sischedule"
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

	// Progress, when non-nil, receives the sweep's progress lines in
	// table order: one per pattern generation, per grouping, per
	// SI-aware solve and per completed cell. Each line is written as
	// soon as it and every earlier line are ready, by one goroutine at
	// a time.
	Progress io.Writer

	// Parallel configures the sweep. Workers is its task budget: the
	// generations, groupings and solves run on that many goroutines
	// (0 = GOMAXPROCS, 1 = serially), and each task runs on one of
	// them: a solve scores its candidates serially and a grouping
	// compacts its buckets one after another. The other fields apply
	// to every solve; a Trace receives the events of concurrent solves
	// interleaved (no front end sets one). The zero value runs
	// serially without a cache, matching the historical behavior; any
	// setting yields byte-identical table numbers.
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
