package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"time"

	"sitam/internal/core"
	"sitam/internal/experiments"
	"sitam/internal/obs"
	"sitam/internal/sifault"
	"sitam/internal/sischedule"
	"sitam/internal/soc"
	"sitam/internal/trarchitect"
)

// paper-tables is the Tables 2/3 sweep exactly as socbench runs it:
// experiments.RunTableCtx per SOC, Workers = GOMAXPROCS, default cache.

type tablesSize struct {
	socs                  []string
	nr, widths, groupings []int
}

func tablesSizeFor(toy bool) tablesSize {
	if toy {
		return tablesSize{socs: []string{"d695"}, nr: []int{2000}, widths: []int{16}, groupings: []int{1, 2, 4, 8}}
	}
	return tablesSize{
		socs:      []string{"p34392", "p93791"},
		nr:        []int{10000, 100000},
		widths:    []int{8, 16, 24, 32, 40, 48, 56, 64},
		groupings: []int{1, 2, 4, 8},
	}
}

// tableCell is one cell of a table as the reference records it.
type tableCell struct {
	SOC       string  `json:"soc"`
	Nr        int     `json:"nr"`
	Wmax      int     `json:"w"`
	T8        int64   `json:"t8"`
	Tg        []int64 `json:"tg"`
	Tmin      int64   `json:"tmin"`
	InTest8   int64   `json:"in8"`
	InTestMin int64   `json:"inmin"`
}

// stampWriter is the sweep's Progress writer. RunTableCtx prints a line
// after every SI-aware optimization ("... T_soc=..."); the time since
// the previous progress line is that optimization's latency (the first
// optimization of a cell also carries the cell's TR-Architect baseline).
type stampWriter struct {
	last time.Time
	jobs []float64
}

func (w *stampWriter) Write(p []byte) (int, error) {
	now := time.Now()
	if bytes.Contains(p, []byte("T_soc=")) {
		w.jobs = append(w.jobs, ms(now.Sub(w.last)))
	}
	w.last = now
	return len(p), nil
}

func loadSOCs(names []string) ([]*soc.SOC, error) {
	socs := make([]*soc.SOC, len(names))
	for i, name := range names {
		s, err := soc.LoadBenchmark(name)
		if err != nil {
			return nil, err
		}
		socs[i] = s
	}
	return socs, nil
}

// runTables runs one sweep on input seed inputSeed(sp.Seed+sp.Unit):
// untraced through RunTableCtx, or traced through tracedTables. A nil
// ref skips the check (recording).
func runTables(sp spec, ref reference) (*unitResult, error) {
	z := tablesSizeFor(sp.Toy)
	seed := inputSeed(sp.Seed + int64(sp.Unit))
	res := &unitResult{Props: map[string]any{}}
	if sp.Traced {
		if err := tracedTables(sp, z, seed, res); err != nil {
			return nil, err
		}
	} else if err := untracedTables(z, seed, res); err != nil {
		return nil, err
	}
	if ref != nil {
		checkCells(ref, sp, seed, res)
	}
	return res, nil
}

func untracedTables(z tablesSize, seed int64, res *unitResult) error {
	stamps := &stampWriter{last: time.Now()}
	start := stamps.last
	socs, err := loadSOCs(z.socs)
	if err != nil {
		return err
	}
	for _, s := range socs {
		tbl, err := experiments.RunTableCtx(context.Background(), s, experiments.TableConfig{
			Widths: z.widths, Nr: z.nr, Groupings: z.groupings, Seed: seed, Progress: stamps,
			Parallel: core.ParallelConfig{CacheSize: core.DefaultCacheSize},
		})
		if err != nil {
			res.fail("%s: RunTableCtx: %v", s.Name, err)
			continue
		}
		if tbl.Partial {
			res.fail("%s: partial table: %s", s.Name, tbl.Reason)
		}
		for _, c := range tbl.Cells {
			res.Cells = append(res.Cells, tableCell{s.Name, c.Nr, c.Wmax, c.T8, c.Tg, c.Tmin, c.InTest8, c.InTestMin})
		}
		for nr, byG := range tbl.CompactionStats {
			for g, st := range byG {
				res.Props[fmt.Sprintf("s%d %s/nr%d/g%d patterns", seed, s.Name, nr, g)] = fmt.Sprintf("%d -> %d", st.Original, st.Compacted)
			}
		}
	}
	res.Walls = []float64{since(start)}
	res.JobsMS = stamps.jobs
	if want := len(z.socs) * len(z.nr) * len(z.widths) * len(z.groupings); len(stamps.jobs) != want {
		res.fail("progress stamped %d optimizations, want %d (did the RunTableCtx progress format change?)", len(stamps.jobs), want)
	}
	return nil
}

// checkCells counts each cell as one operation and each cell that is
// missing or differs from the reference as one failure.
func checkCells(ref reference, sp spec, seed int64, res *unitResult) {
	var want []tableCell
	key := fmt.Sprintf("paper-tables/%s/%d", size(sp.Toy), seed)
	if err := ref.get(key, &want); err != nil {
		res.Attempted++
		res.fail("%v", err)
		return
	}
	res.Attempted += len(want)
	for i, w := range want {
		if i >= len(res.Cells) {
			res.fail("%s: cell %s nr=%d w=%d missing", key, w.SOC, w.Nr, w.Wmax)
		} else if !reflect.DeepEqual(res.Cells[i], w) {
			res.fail("%s: cell %+v, reference %+v", key, res.Cells[i], w)
		}
	}
}

// tracedTables walks the sweep the way RunTableCtx does — generation,
// grouping, the TR-Architect baseline, SI-aware optimization — with a
// span around every call into a layer and the counters each call
// exposes. The parent checks that its cells equal the untraced ones,
// so the walk cannot drift from experiments unnoticed.
func tracedTables(sp spec, z tablesSize, seed int64, res *unitResult) error {
	ctx := context.Background()
	model := sischedule.DefaultModel()
	par := func(reg *obs.Registry) core.ParallelConfig {
		return core.ParallelConfig{CacheSize: core.DefaultCacheSize, Metrics: reg}
	}
	tr := newTracer()
	before := readRuntime()
	start := time.Now()
	sweep := tr.begin("sweep", fmt.Sprintf("seed%d", seed), 0)
	for _, name := range z.socs {
		id := tr.begin("soc.load", name, sweep)
		s, err := soc.LoadBenchmark(name)
		tr.end(id, nil)
		if err != nil {
			return err
		}
		for _, nr := range z.nr {
			unit := fmt.Sprintf("%s/nr%d", name, nr)
			id := tr.begin("sifault.generate", unit, sweep)
			patterns, cut, err := sifault.GenerateCtx(ctx, s, sifault.GenConfig{N: nr, Seed: seed + int64(nr)})
			tr.end(id, map[string]int64{"patterns": int64(len(patterns))})
			if err != nil || cut {
				return fmt.Errorf("%s: generation failed (cut=%v): %v", unit, cut, err)
			}
			groups := make(map[int][]*sischedule.Group)
			for _, g := range z.groupings {
				otr, reg := obs.NewTracer(), obs.NewRegistry()
				id := tr.begin("core.group", fmt.Sprintf("%s/g%d", unit, g), sweep)
				gr, err := core.BuildGroupsCtx(ctx, s, patterns, core.GroupingOptions{Parts: g, Seed: seed, Trace: otr, Metrics: reg})
				if err != nil || gr.Partial {
					return fmt.Errorf("%s g=%d: grouping failed: %v", unit, g, err)
				}
				tr.end(id, groupAttrs(gr, otr, reg))
				groups[g] = gr.Groups
			}
			for _, w := range z.widths {
				cell := tableCell{SOC: name, Nr: nr, Wmax: w}
				cu := fmt.Sprintf("%s/w%d", unit, w)
				reg := obs.NewRegistry()
				id := tr.begin("trarchitect.baseline", cu, sweep)
				arch, _, st, err := trarchitect.OptimizeWithCtx(ctx, s, w, par(reg))
				if err != nil || st.Partial {
					return fmt.Errorf("%s: baseline failed: %v", cu, err)
				}
				for _, g := range z.groupings {
					bd, _, err := core.EvaluateBreakdown(arch, groups[g], model)
					if err != nil {
						return fmt.Errorf("%s g=%d: baseline breakdown: %w", cu, g, err)
					}
					if cell.T8 == 0 || bd.TimeSOC < cell.T8 {
						cell.T8, cell.InTest8 = bd.TimeSOC, bd.TimeIn
					}
				}
				tr.end(id, poolAttrs(reg.Snapshot(), nil))
				for _, g := range z.groupings {
					id := tr.begin("core.optimize", fmt.Sprintf("%s/g%d", cu, g), sweep)
					r, err := core.TAMOptimizationWith(ctx, s, w, groups[g], model, par(obs.NewRegistry()))
					if err != nil || r.Partial {
						return fmt.Errorf("%s g=%d: optimization failed: %v", cu, g, err)
					}
					tr.end(id, engineAttrs(r))
					cell.Tg = append(cell.Tg, r.Breakdown.TimeSOC)
					if cell.Tmin == 0 || r.Breakdown.TimeSOC < cell.Tmin {
						cell.Tmin, cell.InTestMin = r.Breakdown.TimeSOC, r.Breakdown.TimeIn
					}
				}
				res.Cells = append(res.Cells, cell)
			}
		}
	}
	tr.end(sweep, nil)
	res.Walls = []float64{since(start)}
	res.Layers = layerMap()
	addRuntime(res.Layers, before)
	libraryLayers(tr, res.Layers)
	res.reconcile(tr, "sweep", 1)
	return tr.write(spansPath(sp))
}
