package main

import (
	"strings"

	"sitam/internal/core"
	"sitam/internal/obs"
)

// groupAttrs collects what one BuildGroupsCtx call exposes: the
// partition and compaction spans it traced, its GroupingResult counts,
// and the compaction shard-plan gauge. The gauge keeps the plan of the
// call's last compacted group only.
func groupAttrs(gr *core.GroupingResult, otr *obs.Tracer, reg *obs.Registry) map[string]int64 {
	a := map[string]int64{
		"patterns_in":  gr.Stats.Original,
		"patterns_out": int64(gr.TotalCompacted()),
		"cut_patterns": gr.CutPatterns,
		"shards":       reg.Snapshot().Gauges["compact_shards"],
	}
	for _, ev := range otr.Events() {
		if ev.Type == obs.PhaseEnd && (ev.Phase == "partition" || ev.Phase == "compaction") {
			a[ev.Phase+"_ns"] += ev.DurNS
		}
	}
	return a
}

// engineAttrs collects the counters an engine Result carries: evals,
// phase-duration histograms, cache and incremental-evaluator totals,
// and the worker-pool busy/wall counters.
func engineAttrs(r *core.Result) map[string]int64 {
	m := r.Metrics
	a := map[string]int64{
		"evals":          m.Counter("evals"),
		"cache_hits":     r.Cache.Hits,
		"cache_misses":   r.Cache.Misses,
		"rails_memoized": m.Counter("eval_rails_memoized"),
		"rails_computed": m.Counter("eval_rails_recomputed"),
	}
	for name, h := range m.Histograms {
		if p, ok := strings.CutPrefix(name, "phase_ns_"); ok {
			a["phase_"+phaseKey(p)+"_ns"] += h.Sum
		}
	}
	return poolAttrs(m, a)
}

// poolAttrs adds the worker pool's busy time and capacity (wall ×
// workers) from a metrics snapshot to a.
func poolAttrs(m *obs.Snapshot, a map[string]int64) map[string]int64 {
	if a == nil {
		a = map[string]int64{}
	}
	a["pool_busy_ns"] = m.Counter("pool_busy_ns")
	a["pool_capacity_ns"] = m.Counter("pool_wall_ns") * m.Gauges["pool_workers"]
	return a
}

// phaseKey turns a phase label ("bottom-up merge", "ILS") into its
// metric-name form ("bottom_up_merge", "ils").
func phaseKey(label string) string {
	return strings.ToLower(strings.NewReplacer(" ", "_", "-", "_").Replace(label))
}

// libraryLayers fills the per-layer metrics of the library layers from
// the spans around their calls.
func libraryLayers(tr *tracer, l map[string]float64) {
	group := tr.seconds("core.group")
	part := float64(tr.attr("core.group", "partition_ns")) / 1e9
	comp := float64(tr.attr("core.group", "compaction_ns")) / 1e9
	l["soc.load_s"] = tr.seconds("soc.load")
	l["sifault.generate_s"] = tr.seconds("sifault.generate")
	l["sifault.patterns"] = float64(tr.attr("sifault.generate", "patterns"))
	l["core.group_s"] = group
	l["core.group_self_s"] = group - part - comp
	l["hypergraph.partition_s"] = part
	l["hypergraph.cut_patterns"] = float64(tr.attr("core.group", "cut_patterns"))
	l["compaction.compact_s"] = comp
	l["compaction.patterns_in"] = float64(tr.attr("core.group", "patterns_in"))
	l["compaction.patterns_out"] = float64(tr.attr("core.group", "patterns_out"))
	l["compaction.shards"] = float64(tr.attr("core.group", "shards"))
	l["trarchitect.baseline_s"] = tr.seconds("trarchitect.baseline")
	l["core.optimize_s"] = tr.seconds("core.optimize")
	for _, p := range enginePhases {
		l["core.phase."+p+"_s"] = float64(tr.attr("core.optimize", "phase_"+p+"_ns")) / 1e9
	}
	l["core.evals"] = float64(tr.attr("core.optimize", "evals"))
	hits, misses := float64(tr.attr("core.optimize", "cache_hits")), float64(tr.attr("core.optimize", "cache_misses"))
	l["core.cache_hit_ratio"] = ratio(hits, hits+misses)
	memo, computed := float64(tr.attr("core.optimize", "rails_memoized")), float64(tr.attr("core.optimize", "rails_computed"))
	l["core.eval_rails_memoized_ratio"] = ratio(memo, memo+computed)
	busy := tr.attr("core.optimize", "pool_busy_ns") + tr.attr("trarchitect.baseline", "pool_busy_ns")
	capacity := tr.attr("core.optimize", "pool_capacity_ns") + tr.attr("trarchitect.baseline", "pool_capacity_ns")
	l["core.pool_util"] = ratio(float64(busy), float64(capacity))
}
