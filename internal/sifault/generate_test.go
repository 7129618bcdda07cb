package sifault

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"sitam/internal/scenario"
	"sitam/internal/soc"
)

// fewExternalsSOC is a top module, a 12-output core and a 1-output
// core: a victim on the wide core has room for every internal
// aggressor, but only one WOC in reach for up to two external ones.
const fewExternalsSOC = `SocName fewext
TotalModules 3
Module 0
  Name top
  Inputs 4
  Outputs 4
Module 1
  Name wide
  Inputs 4
  Outputs 12
  Patterns 5
Module 2
  Name narrow
  Inputs 2
  Outputs 1
  Patterns 3
`

// limitSink checks every pattern Draw hands it against the limits
// Start announced.
type limitSink struct {
	t   *testing.T
	sp  *Space
	lim Limits
}

func (k *limitSink) Start(_ int, lim Limits) { k.lim = lim }

func (k *limitSink) Add(p *Pattern) {
	start, n := k.sp.Range(int(p.VictimCore))
	inside := 0
	for _, c := range p.Care {
		if int(c.Pos) >= start && int(c.Pos) < start+n {
			inside++
		}
	}
	if len(p.Care) > k.lim.Care || len(p.Care)-inside > k.lim.Outside || len(p.Bus) > k.lim.Bus || k.lim.FullCore && inside != n {
		k.t.Fatalf("pattern with %d care (%d in its %d-WOC core), %d bus uses exceeds %+v", len(p.Care), inside, n, len(p.Bus), k.lim)
	}
}

// checkMatchesOracle requires Generate and the oracle to return equal
// corpora for s under cfg, and every pattern drawn to keep within the
// limits Draw announces to its sink.
func checkMatchesOracle(t *testing.T, s *soc.SOC, cfg GenConfig) {
	t.Helper()
	sp := NewSpace(s)
	if _, _, err := Draw(context.Background(), sp, cfg, &limitSink{t: t, sp: sp}); err != nil {
		t.Fatalf("%s %+v: %v", s.Name, cfg, err)
	}
	got, err := Generate(s, cfg)
	if err != nil {
		t.Fatalf("%s %+v: %v", s.Name, cfg, err)
	}
	want := generateOracle(s, cfg)
	if len(got) != len(want) {
		t.Fatalf("%s %+v: %d patterns, oracle %d", s.Name, cfg, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s %+v: pattern %d = %+v, oracle %+v", s.Name, cfg, i, got[i], want[i])
		}
	}
}

// TestGenerateMatchesOracle holds the generator to the oracle's corpora
// on the embedded SOCs, a scenario SOC and a SOC whose core list is out
// of ID order, under the default configuration and each setting that
// changes which draws a pattern makes.
func TestGenerateMatchesOracle(t *testing.T) {
	socs := []*soc.SOC{
		soc.MustLoadBenchmark("d695"),
		soc.MustLoadBenchmark("p34392"),
		soc.MustLoadBenchmark("p93791"),
		scenario.Generate(3).SOC,
		permutedSOC(soc.MustLoadBenchmark("p93791"), 1),
	}
	configs := []GenConfig{
		{},
		{QuiesceProb: 0.5},
		{QuiesceProb: -1},
		{ExternalLocality: -1},
		{ExternalLocality: 1, ExternalProb: 1},
		{MaxExternal: -1, MaxAggressors: 12},
		{BusProb: -1},
	}
	for _, s := range socs {
		for _, cfg := range configs {
			for _, seed := range []int64{1, 7, 42} {
				cfg.N, cfg.Seed = 600, seed
				checkMatchesOracle(t, s, cfg)
			}
		}
	}
}

// TestGenerateReturnsWithFewExternalsInReach pins the end of every
// pattern when the cores near the victim's hold fewer WOCs than the
// drawn external aggressor count: the count is clamped to the
// positions in reach instead of redrawing forever.
func TestGenerateReturnsWithFewExternalsInReach(t *testing.T) {
	s, err := soc.Parse(strings.NewReader(fewExternalsSOC))
	if err != nil {
		t.Fatal(err)
	}
	sp := NewSpace(s)
	cfg := GenConfig{N: 1000, Seed: 1}
	done := make(chan []*Pattern, 1)
	go func() {
		patterns, err := Generate(s, cfg)
		if err != nil {
			t.Error(err)
		}
		done <- patterns
	}()
	var patterns []*Pattern
	select {
	case patterns = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Generate did not return")
	}
	external := 0
	for i, p := range patterns {
		if err := p.Validate(sp); err != nil {
			t.Fatalf("pattern %d: %v", i, err)
		}
		for _, c := range p.Care {
			if sp.CoreAt(c.Pos) != int(p.VictimCore) {
				external++
			}
		}
	}
	if external == 0 {
		t.Error("no pattern has an external aggressor")
	}
	checkMatchesOracle(t, s, cfg)
}

// TestGenerateAllocs bounds the allocations per generated pattern on
// p93791. Patterns, care lists and bus lists are carved from chunks of
// a thousand or more, so a pattern costs a small fraction of one
// allocation: about 0.02 with the pattern pointer list.
func TestGenerateAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector changes allocation counts")
	}
	s := soc.MustLoadBenchmark("p93791")
	const n = 10000
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Generate(s, GenConfig{N: n, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / n; per > 0.1 {
		t.Errorf("%.3f allocations per pattern, want at most 0.1", per)
	}
}

// TestGeneratedSlicesDoNotAlias appends to every generated pattern's
// care and bus lists, which share chunks with their neighbours': each
// append must reallocate, so that every pattern keeps its own contents.
// Half quiescing leaves most care lists shorter than the room reserved
// for them.
func TestGeneratedSlicesDoNotAlias(t *testing.T) {
	s := soc.MustLoadBenchmark("p93791")
	for _, cfg := range []GenConfig{{N: 3000, Seed: 5}, {N: 3000, Seed: 5, QuiesceProb: 0.5}} {
		patterns, err := Generate(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]*Pattern, len(patterns))
		for i, p := range patterns {
			want[i] = p.Clone()
		}
		for i, p := range patterns {
			p.Care = append(p.Care, Care{Pos: int32(i), Sym: Rise})
			if p.Bus != nil {
				p.Bus = append(p.Bus, BusUse{Line: int32(i), Driver: -1})
			}
		}
		bus := 0
		for i, p := range patterns {
			w := want[i]
			if !reflect.DeepEqual(p.Care[:len(w.Care)], w.Care) || p.Care[len(w.Care)] != (Care{Pos: int32(i), Sym: Rise}) {
				t.Fatalf("%+v: pattern %d: care list changed by an append to another pattern", cfg, i)
			}
			if len(w.Bus) > 0 {
				bus++
				if !reflect.DeepEqual(p.Bus[:len(w.Bus)], w.Bus) || p.Bus[len(w.Bus)] != (BusUse{Line: int32(i), Driver: -1}) {
					t.Fatalf("%+v: pattern %d: bus list changed by an append to another pattern", cfg, i)
				}
			}
		}
		if bus == 0 {
			t.Fatalf("%+v: no pattern uses the bus", cfg)
		}
	}
}

// FuzzGenerateMatchesOracle is TestGenerateMatchesOracle over small
// SOCs with 1 to 8 cores of 0 to 12 WOCs each, and over every knob of
// GenConfig. Probabilities run from below 0 (off) through 0 (the
// default) to above 1.
func FuzzGenerateMatchesOracle(f *testing.F) {
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
			// Descending IDs: position order is not ID order.
			s.CoreList = append(s.CoreList, &soc.Core{ID: 8 - i, Inputs: 1, Outputs: int(b % 13), Patterns: 1})
		}
		cfg := GenConfig{
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
		if _, err := Generate(s, GenConfig{MinAggressors: cfg.MinAggressors, MaxAggressors: cfg.MaxAggressors}); err != nil {
			return // fewer than two WOCs or bad aggressor bounds
		}
		checkMatchesOracle(t, s, cfg)
	})
}
