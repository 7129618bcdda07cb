package main

import (
	"context"
	"fmt"
	"time"

	"sitam"
)

// ils-search is iterated local search through the sitam facade, as
// library and tamopt users call it. Grouping is set-up; the timed
// passes run only the engine stack.

type ilsSize struct {
	soc                        string
	nr, parts, kicks, restarts int
	widths                     []int
}

func ilsSizeFor(toy bool) ilsSize {
	if toy {
		return ilsSize{soc: "d695", nr: 2000, parts: 2, kicks: 20, restarts: 2, widths: []int{16}}
	}
	return ilsSize{soc: "p93791", nr: 10000, parts: 8, kicks: 300, restarts: 2, widths: []int{16, 32, 48, 64}}
}

// ilsOutcome is one width's result as the reference records it.
type ilsOutcome struct {
	Wmax    int   `json:"w"`
	TimeSOC int64 `json:"tsoc"`
	TimeIn  int64 `json:"tin"`
	TimeSI  int64 `json:"tsi"`
	Rails   int   `json:"rails"`
	Evals   int64 `json:"evals"`
}

// runILS runs passes over the widths until they measure for at least
// sp.Seconds (one pass at least). Pass k runs inputSeed(sp.Seed+k) after
// building its groups, the set-up; so a run covers several inputs and
// its medians do not follow one input's cost. A traced child runs one
// pass with spans and metrics registries.
func runILS(sp spec, ref reference) (*unitResult, error) {
	z := ilsSizeFor(sp.Toy)
	res := &unitResult{Props: map[string]any{}}
	var tr *tracer
	if sp.Traced {
		tr = newTracer()
		res.Layers = layerMap()
	}
	before := readRuntime()
	for pass, passes := 0, 1; pass < passes; pass++ {
		seed := inputSeed(sp.Seed + int64(pass))
		t0 := time.Now()
		s, gr, err := ilsSetup(z, seed, tr)
		if err != nil {
			return nil, err
		}
		res.Setups = append(res.Setups, since(t0))
		res.Props[fmt.Sprintf("s%d patterns", seed)] = fmt.Sprintf("%d -> %d in %d groups", z.nr, gr.TotalCompacted(), len(gr.Groups))
		var want []ilsOutcome
		key := fmt.Sprintf("ils-search/%s/%d", size(sp.Toy), seed)
		if ref != nil {
			if err := ref.get(key, &want); err != nil {
				return nil, err
			}
		}
		t0 = time.Now()
		lane := tr.begin("pass", key, 0)
		for i, w := range z.widths {
			var cfg sitam.ParallelConfig
			if tr != nil {
				cfg.Metrics = sitam.NewMetricsRegistry()
			}
			c0 := time.Now()
			id := tr.begin("core.optimize", fmt.Sprintf("%s/w%d", z.soc, w), lane)
			r, err := sitam.OptimizeILSWith(context.Background(), s, w, gr.Groups, sitam.DefaultModel(), z.kicks, z.restarts, seed, cfg)
			res.JobsMS = append(res.JobsMS, ms(time.Since(c0)))
			res.Attempted++
			if err != nil || r.Partial {
				tr.end(id, nil)
				res.fail("%s w=%d: OptimizeILSWith: err=%v partial=%v", key, w, err, r != nil && r.Partial)
				continue
			}
			if tr != nil {
				tr.end(id, engineAttrs(r))
			}
			got := ilsOutcome{w, r.Breakdown.TimeSOC, r.Breakdown.TimeIn, r.Breakdown.TimeSI, len(r.Architecture.Rails), r.Metrics.Counter("evals")}
			res.ILS = append(res.ILS, got)
			res.Props[fmt.Sprintf("s%d w%d evals", seed, w)] = got.Evals
			res.Props[fmt.Sprintf("s%d w%d cache_hit_ratio", seed, w)] = r.Cache.HitRate()
			if ref != nil && (i >= len(want) || got != want[i]) {
				res.fail("%s w=%d: got %+v, reference %+v", key, w, got, want)
			}
		}
		tr.end(lane, nil)
		res.Walls = append(res.Walls, since(t0))
		if pass == 0 && !sp.Traced {
			passes = unitsFor(sp.Seconds, res.Walls[0])
		}
	}
	if tr == nil {
		return res, nil
	}
	addRuntime(res.Layers, before)
	libraryLayers(tr, res.Layers)
	res.reconcile(tr, "pass", 1)
	return res, tr.write(spansPath(sp))
}

// ilsSetup loads the SOC, generates the patterns and builds the groups
// through the facade, with a span around each call when traced.
func ilsSetup(z ilsSize, seed int64, tr *tracer) (*sitam.SOC, *sitam.GroupingResult, error) {
	root := tr.begin("setup", z.soc, 0)
	defer tr.end(root, nil)
	id := tr.begin("soc.load", z.soc, root)
	s, err := sitam.LoadBenchmark(z.soc)
	tr.end(id, nil)
	if err != nil {
		return nil, nil, err
	}
	unit := fmt.Sprintf("%s/nr%d", z.soc, z.nr)
	id = tr.begin("sifault.generate", unit, root)
	patterns, err := sitam.GeneratePatterns(s, sitam.GenConfig{N: z.nr, Seed: seed})
	tr.end(id, map[string]int64{"patterns": int64(len(patterns))})
	if err != nil {
		return nil, nil, err
	}
	opts := sitam.GroupingOptions{Parts: z.parts, Seed: seed}
	otr, reg := sitam.NewTracer(), sitam.NewMetricsRegistry()
	if tr != nil {
		opts.Trace, opts.Metrics = otr, reg
	}
	id = tr.begin("core.group", fmt.Sprintf("%s/g%d", unit, z.parts), root)
	gr, err := sitam.BuildGroups(s, patterns, opts)
	if err != nil {
		tr.end(id, nil)
		return nil, nil, err
	}
	if tr != nil {
		tr.end(id, groupAttrs(gr, otr, reg))
	}
	return s, gr, nil
}
