package compaction

import (
	"context"
	"testing"

	"sitam/internal/sifault"
	"sitam/internal/soc"
)

// Benchmark_CompactionBitset compares the word-parallel bitset greedy
// clique cover against the scalar per-care-position reference on a
// production-scale pattern set (the paper's N_r=100 000 working point
// on p93791). Both paths produce byte-identical output (see the
// differential tests), so the comparison is pure wall-clock; the
// acceptance bar is a >= 4x bitset speedup.
func Benchmark_CompactionBitset(b *testing.B) {
	s := soc.MustLoadBenchmark("p93791")
	patterns, err := sifault.Generate(s, sifault.GenConfig{N: 100000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sp := sifault.NewSpace(s)
	ctx := context.Background()
	b.Run("bitset", func(b *testing.B) {
		var compacted int
		for i := 0; i < b.N; i++ {
			_, stats, _ := GreedyWith(ctx, sp, patterns, Config{})
			compacted = stats.Compacted
		}
		b.ReportMetric(float64(compacted), "patterns")
	})
	b.Run("scalar", func(b *testing.B) {
		var compacted int
		for i := 0; i < b.N; i++ {
			_, stats, _ := greedyScalar(ctx, sp, patterns)
			compacted = stats.Compacted
		}
		b.ReportMetric(float64(compacted), "patterns")
	})
}
