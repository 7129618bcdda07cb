package compaction

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"sitam/internal/sifault"
	"sitam/internal/soc"
)

// sameSlice compares two arenas by length and content, not capacity:
// GenerateCorpus sizes its arenas from the draw's limits.
func sameSlice[T comparable](name string, got, want []T) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
	return nil
}

// corpusDiff returns the first difference between two corpora: every
// arena and offset list, every block's classes and every care set.
func corpusDiff(got, want *Corpus) error {
	if got.nPos != want.nPos || got.nBus != want.nBus {
		return fmt.Errorf("space %d/%d, want %d/%d", got.nPos, got.nBus, want.nPos, want.nBus)
	}
	for _, err := range []error{
		sameSlice("blockStart", got.blockStart, want.blockStart),
		sameSlice("blockLen", got.blockLen, want.blockLen),
		sameSlice("words", got.words, want.words),
		sameSlice("wordOff", got.wordOff, want.wordOff),
		sameSlice("fulls", got.fulls, want.fulls),
		sameSlice("fullOff", got.fullOff, want.fullOff),
		sameSlice("looses", got.looses, want.looses),
		sameSlice("looseOff", got.looseOff, want.looseOff),
		sameSlice("bus", got.bus, want.bus),
		sameSlice("busOff", got.busOff, want.busOff),
		sameSlice("weight", got.weight, want.weight),
		sameSlice("victim", got.victim, want.victim),
		sameSlice("careSet", got.careSet, want.careSet),
		sameSlice("nCls", got.nCls, want.nCls),
	} {
		if err != nil {
			return err
		}
	}
	if len(got.content) != len(want.content) {
		return fmt.Errorf("content: %d blocks, want %d", len(got.content), len(want.content))
	}
	for b := range want.content {
		if err := sameSlice(fmt.Sprintf("content[%d]", b), got.content[b], want.content[b]); err != nil {
			return err
		}
	}
	if len(got.sets) != len(want.sets) {
		return fmt.Errorf("%d care sets, want %d", len(got.sets), len(want.sets))
	}
	for i, set := range want.sets {
		g := got.sets[i]
		if g.Weight != set.Weight || g.Patterns != set.Patterns {
			return fmt.Errorf("care set %d: weight %d patterns %d, want %d and %d", i, g.Weight, g.Patterns, set.Weight, set.Patterns)
		}
		if err := sameSlice(fmt.Sprintf("sets[%d].Blocks", i), g.Blocks, set.Blocks); err != nil {
			return err
		}
	}
	return nil
}

// capSink is GenerateCorpus's drawSink recording the capacity Start
// gave each arena.
type capSink struct {
	drawSink
	caps []int
}

func (s *capSink) Start(n int, lim sifault.Limits) {
	s.drawSink.Start(n, lim)
	s.caps = arenaCaps(&s.ch)
}

func arenaCaps(ch *corpusChunk) []int {
	return []int{cap(ch.words), cap(ch.fulls), cap(ch.contents), cap(ch.looses), cap(ch.bus), cap(ch.setKeys), cap(ch.setEnd)}
}

// checkGenerateCorpus requires GenerateCorpus to build the corpus
// NewCorpus builds from GenerateCtx's patterns at one worker, and the
// arenas its sink sizes from the draw's limits to hold every pattern
// drawn: an arena that grew means a limit is wrong.
func checkGenerateCorpus(t *testing.T, s *soc.SOC, cfg sifault.GenConfig) {
	t.Helper()
	sp := sifault.NewSpace(s)
	got, cut, err := GenerateCorpus(context.Background(), sp, cfg)
	if err != nil || cut {
		t.Fatalf("%s %+v: GenerateCorpus cut %v, err %v", s.Name, cfg, cut, err)
	}
	sink := capSink{drawSink: drawSink{sp: sp}}
	if _, _, err := sifault.Draw(context.Background(), sp, cfg, &sink); err != nil {
		t.Fatal(err)
	}
	if caps := arenaCaps(&sink.ch); sameSlice("arena capacities", caps, sink.caps) != nil {
		t.Fatalf("%s %+v: arenas (words, fulls, contents, looses, bus, setKeys, setEnd) grew from %v to %v", s.Name, cfg, sink.caps, caps)
	}
	patterns, _, err := sifault.GenerateCtx(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewCorpus(sp, patterns, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := corpusDiff(got, want); err != nil {
		t.Fatalf("%s %+v: %v", s.Name, cfg, err)
	}
}

// TestGenerateCorpusMatchesNewCorpus holds the generator's corpus to
// NewCorpus over the generated patterns on the embedded SOCs, under the
// default configuration, the settings that change which blocks are
// full or loose and whether the bus is used, and the smallest counts.
func TestGenerateCorpusMatchesNewCorpus(t *testing.T) {
	configs := []sifault.GenConfig{
		{N: 3000, Seed: 1},
		{N: 3000, Seed: 2, QuiesceProb: 0.5},
		{N: 3000, Seed: 3, QuiesceProb: -1},
		{N: 3000, Seed: 4, BusProb: -1},
		{N: 3000, Seed: 5, ExternalLocality: -1, MaxExternal: -1, ExternalProb: 0.9},
		{N: 0, Seed: 6},
		{N: 1, Seed: 7},
	}
	for _, name := range []string{"d695", "p34392", "p93791"} {
		s := soc.MustLoadBenchmark(name)
		for _, cfg := range configs {
			checkGenerateCorpus(t, s, cfg)
		}
	}
}

// flipCtx is a context that reports Canceled from its (k+1)-th Err
// call on: a cancellation that lands after k polls, at the same draw
// in every generator that polls alike.
type flipCtx struct {
	context.Context
	k     int64
	calls atomic.Int64
}

func (c *flipCtx) Err() error {
	if c.calls.Add(1) > c.k {
		return context.Canceled
	}
	return nil
}

// TestGenerateCorpusCancelled requires GenerateCorpus to stop where
// GenerateCtx stops: the same error before the first draw, and after a
// cancellation mid-run the same cut flag and pattern count, with the
// corpus of the prefix drawn.
func TestGenerateCorpusCancelled(t *testing.T) {
	s := soc.MustLoadBenchmark("p93791")
	sp := sifault.NewSpace(s)
	cfg := sifault.GenConfig{N: 5000, Seed: 3}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, cut, err := GenerateCorpus(ctx, sp, cfg)
	patterns, partial, wantErr := sifault.GenerateCtx(ctx, s, cfg)
	if err != wantErr || c != nil || cut != partial || patterns != nil {
		t.Fatalf("pre-cancelled: corpus %v cut %v err %v, GenerateCtx %d patterns partial %v err %v", c, cut, err, len(patterns), partial, wantErr)
	}

	for _, k := range []int64{1, 2, 5} {
		c, cut, err := GenerateCorpus(&flipCtx{Context: context.Background(), k: k}, sp, cfg)
		patterns, partial, wantErr := sifault.GenerateCtx(&flipCtx{Context: context.Background(), k: k}, s, cfg)
		if err != nil || wantErr != nil || !cut || !partial {
			t.Fatalf("cancelled after %d polls: cut %v err %v, GenerateCtx partial %v err %v", k, cut, err, partial, wantErr)
		}
		if c.Len() != len(patterns) {
			t.Fatalf("cancelled after %d polls: %d patterns, GenerateCtx %d", k, c.Len(), len(patterns))
		}
		want, err := NewCorpus(sp, patterns, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := corpusDiff(c, want); err != nil {
			t.Fatalf("cancelled after %d polls: %v", k, err)
		}
	}
}

// FuzzGenerateCorpusMatchesNewCorpus is TestGenerateCorpusMatchesNewCorpus
// over FuzzGenerateMatchesOracle's inputs: small SOCs with 1 to 8 cores
// of 0 to 12 WOCs each, in descending ID order, and every knob of
// GenConfig.
func FuzzGenerateCorpusMatchesNewCorpus(f *testing.F) {
	f.Add(int64(1), uint16(1000), uint8(0), uint8(0), int8(0), int8(0), uint8(64), uint8(64), uint8(64), uint8(4), []byte{12, 1})
	f.Add(int64(7), uint16(300), uint8(1), uint8(9), int8(-1), int8(1), uint8(128), uint8(0), uint8(192), uint8(2), []byte{0, 5, 1, 0, 9})
	f.Add(int64(3), uint16(200), uint8(3), uint8(2), int8(3), int8(-1), uint8(100), uint8(150), uint8(255), uint8(0), []byte{1, 1, 1, 1})
	f.Add(int64(9), uint16(50), uint8(2), uint8(4), int8(4), int8(2), uint8(10), uint8(200), uint8(80), uint8(8), []byte{12, 0, 3, 7, 1, 2, 11, 4})
	prob := func(b uint8) float64 { return float64(int(b)-64) / 128 }
	f.Fuzz(func(t *testing.T, seed int64, n uint16, minAggr, spanAggr uint8, maxExt, locality int8,
		quiesce, bus, external, busWidth uint8, shape []byte) {
		if len(shape) == 0 {
			return
		}
		s := &soc.SOC{Name: "fuzz", BusWidth: int(busWidth % 9)}
		for i, b := range shape[:min(len(shape), 8)] {
			s.CoreList = append(s.CoreList, &soc.Core{ID: 8 - i, Inputs: 1, Outputs: int(b % 13), Patterns: 1})
		}
		cfg := sifault.GenConfig{
			N:                int(n % 1500),
			Seed:             seed,
			MinAggressors:    int(minAggr % 6),
			MaxExternal:      int(maxExt % 5),
			ExternalLocality: int(locality % 5),
			QuiesceProb:      prob(quiesce),
			BusProb:          prob(bus),
			ExternalProb:     prob(external),
		}
		if cfg.MinAggressors > 0 {
			cfg.MaxAggressors = cfg.MinAggressors + int(spanAggr%10)
		}
		if _, err := sifault.Generate(s, sifault.GenConfig{MinAggressors: cfg.MinAggressors, MaxAggressors: cfg.MaxAggressors}); err != nil {
			return // fewer than two WOCs or bad aggressor bounds
		}
		checkGenerateCorpus(t, s, cfg)
	})
}
