package sifault

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sitam/internal/scenario"
	"sitam/internal/soc"
)

func twoCoreSOC() *soc.SOC {
	return &soc.SOC{
		Name:     "mini",
		BusWidth: 4,
		CoreList: []*soc.Core{
			{ID: 1, Inputs: 2, Outputs: 3, Patterns: 1},
			{ID: 2, Inputs: 2, Outputs: 5, Patterns: 1},
		},
	}
}

func TestSymbolCompatibility(t *testing.T) {
	symbols := []Symbol{X, Zero, One, Rise, Fall}
	for _, a := range symbols {
		for _, b := range symbols {
			want := a == X || b == X || a == b
			if got := a.CompatibleWith(b); got != want {
				t.Errorf("CompatibleWith(%v,%v) = %v, want %v", a, b, got, want)
			}
			if got, want2 := a.CompatibleWith(b), b.CompatibleWith(a); got != want2 {
				t.Errorf("CompatibleWith not symmetric for %v,%v", a, b)
			}
		}
	}
}

func TestSymbolIntersect(t *testing.T) {
	if got := X.Intersect(Rise); got != Rise {
		t.Errorf("X∩↑ = %v", got)
	}
	if got := Fall.Intersect(X); got != Fall {
		t.Errorf("↓∩X = %v", got)
	}
	if got := One.Intersect(One); got != One {
		t.Errorf("1∩1 = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Intersect(0,1) did not panic")
		}
	}()
	Zero.Intersect(One)
}

func TestSymbolString(t *testing.T) {
	for sym, want := range map[Symbol]string{X: "x", Zero: "0", One: "1", Rise: "↑", Fall: "↓"} {
		if got := sym.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", sym, got, want)
		}
	}
	if got := Symbol(99).String(); !strings.Contains(got, "99") {
		t.Errorf("invalid symbol String() = %q", got)
	}
}

func TestSpaceLayout(t *testing.T) {
	sp := NewSpace(twoCoreSOC())
	if sp.Total() != 8 {
		t.Fatalf("Total = %d, want 8", sp.Total())
	}
	if sp.BusWidth() != 4 {
		t.Errorf("BusWidth = %d, want 4", sp.BusWidth())
	}
	start, n := sp.Range(1)
	if start != 0 || n != 3 {
		t.Errorf("Range(1) = (%d,%d), want (0,3)", start, n)
	}
	start, n = sp.Range(2)
	if start != 3 || n != 5 {
		t.Errorf("Range(2) = (%d,%d), want (3,5)", start, n)
	}
	for pos := int32(0); pos < 3; pos++ {
		if sp.CoreAt(pos) != 1 {
			t.Errorf("CoreAt(%d) = %d, want 1", pos, sp.CoreAt(pos))
		}
	}
	for pos := int32(3); pos < 8; pos++ {
		if sp.CoreAt(pos) != 2 {
			t.Errorf("CoreAt(%d) = %d, want 2", pos, sp.CoreAt(pos))
		}
	}
	if sp.WOCOf(2) != 5 {
		t.Errorf("WOCOf(2) = %d", sp.WOCOf(2))
	}
}

func TestSpacePanics(t *testing.T) {
	sp := NewSpace(twoCoreSOC())
	for name, f := range map[string]func(){
		"CoreAt negative": func() { sp.CoreAt(-1) },
		"CoreAt past end": func() { sp.CoreAt(8) },
		"Range unknown":   func() { sp.Range(42) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestPatternSymbolAtAndCareCores(t *testing.T) {
	sp := NewSpace(twoCoreSOC())
	p := &Pattern{
		Care:   []Care{{Pos: 1, Sym: Rise}, {Pos: 4, Sym: Zero}},
		Weight: 1,
	}
	if got := p.SymbolAt(1); got != Rise {
		t.Errorf("SymbolAt(1) = %v", got)
	}
	if got := p.SymbolAt(2); got != X {
		t.Errorf("SymbolAt(2) = %v, want x", got)
	}
	cc := p.CareCores(sp)
	if len(cc) != 2 || cc[0] != 1 || cc[1] != 2 {
		t.Errorf("CareCores = %v, want [1 2]", cc)
	}
	if err := p.Validate(sp); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// careCoresOracle is CareCores as it was before the dense position
// table: a binary search over the core blocks per care position, a
// map for the distinct cores, then a sort.
func careCoresOracle(sp *Space, p *Pattern) []int {
	seen := make(map[int]struct{}, 4)
	for _, c := range p.Care {
		i := sort.Search(len(sp.starts), func(i int) bool { return sp.starts[i] > int(c.Pos) })
		seen[sp.order[i-1]] = struct{}{}
	}
	out := make([]int, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// permutedSOC returns a copy of s with its core list shuffled, so
// position order is not core-ID order.
func permutedSOC(s *soc.SOC, seed int64) *soc.SOC {
	c := *s
	c.Name = s.Name + "-permuted"
	c.CoreList = append([]*soc.Core(nil), s.CoreList...)
	rand.New(rand.NewSource(seed)).Shuffle(len(c.CoreList), func(i, j int) {
		c.CoreList[i], c.CoreList[j] = c.CoreList[j], c.CoreList[i]
	})
	return &c
}

// TestCareCoresMatchesOracle pins the table-driven CareCores and
// CoreAtPos to the binary-search oracle on generated patterns and on
// random care lists spanning many cores, for every embedded SOC, a
// scenario SOC and a SOC whose core list is not in ID order.
func TestCareCoresMatchesOracle(t *testing.T) {
	var socs []*soc.SOC
	for _, name := range soc.Benchmarks() {
		socs = append(socs, soc.MustLoadBenchmark(name))
	}
	socs = append(socs, scenario.Generate(3).SOC, permutedSOC(soc.MustLoadBenchmark("p93791"), 1))
	sawUnsorted := false
	for _, s := range socs {
		sp := NewSpace(s)
		sawUnsorted = sawUnsorted || !sp.idSorted
		patterns, err := Generate(s, GenConfig{N: 1000, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 300; i++ {
			pos := rng.Perm(sp.Total())[:1+rng.Intn(40)]
			sort.Ints(pos)
			p := &Pattern{Weight: 1}
			for _, q := range pos {
				p.Care = append(p.Care, Care{Pos: int32(q), Sym: Rise})
			}
			patterns = append(patterns, p)
		}
		for i, p := range patterns {
			if got, want := p.CareCores(sp), careCoresOracle(sp, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s pattern %d: CareCores = %v, oracle %v", s.Name, i, got, want)
			}
		}
		for pos := int32(0); pos < int32(sp.Total()); pos++ {
			want := careCoresOracle(sp, &Pattern{Care: []Care{{Pos: pos, Sym: Zero}}})[0]
			if got, err := sp.CoreAtPos(pos); err != nil || got != want {
				t.Fatalf("%s: CoreAtPos(%d) = %d, %v; oracle %d", s.Name, pos, got, err, want)
			}
		}
		for _, pos := range []int32{-1, math.MinInt32, int32(sp.Total()), math.MaxInt32} {
			if _, err := sp.CoreAtPos(pos); err == nil || !strings.Contains(err.Error(), "outside space") {
				t.Errorf("%s: CoreAtPos(%d) err = %v, want out-of-range error", s.Name, pos, err)
			}
		}
	}
	if !sawUnsorted {
		t.Fatal("no SOC with its core list out of ID order")
	}
}

func TestPatternValidateRejects(t *testing.T) {
	sp := NewSpace(twoCoreSOC())
	cases := map[string]*Pattern{
		"stored X":          {Care: []Care{{Pos: 0, Sym: X}}, Weight: 1},
		"symbol above Fall": {Care: []Care{{Pos: 0, Sym: One}, {Pos: 1, Sym: Symbol(7)}}, Weight: 1},
		"pos out of range":  {Care: []Care{{Pos: 99, Sym: One}}, Weight: 1},
		"unsorted":          {Care: []Care{{Pos: 3, Sym: One}, {Pos: 1, Sym: One}}, Weight: 1},
		"dup pos":           {Care: []Care{{Pos: 3, Sym: One}, {Pos: 3, Sym: One}}, Weight: 1},
		"bus out of range":  {Care: []Care{{Pos: 0, Sym: One}}, Bus: []BusUse{{Line: 9, Driver: 1}}, Weight: 1},
		"bus unsorted":      {Care: []Care{{Pos: 0, Sym: One}}, Bus: []BusUse{{Line: 2, Driver: 1}, {Line: 1, Driver: 1}}, Weight: 1},
		"zero weight":       {Care: []Care{{Pos: 0, Sym: One}}, Weight: 0},
		"no care":           {Bus: []BusUse{{Line: 1, Driver: 1}}, Weight: 1},
	}
	for name, p := range cases {
		if err := p.Validate(sp); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, p)
		}
	}
	if err := cases["symbol above Fall"].Validate(sp); err == nil || !strings.Contains(err.Error(), "position 1") {
		t.Errorf("symbol above Fall: error %v does not name position 1", err)
	}
}

func TestPatternClone(t *testing.T) {
	p := &Pattern{
		Care:       []Care{{Pos: 1, Sym: Rise}},
		Bus:        []BusUse{{Line: 0, Driver: 1}},
		VictimPos:  1,
		VictimCore: 1,
		Weight:     1,
	}
	c := p.Clone()
	c.Care[0].Sym = Fall
	c.Bus[0].Line = 2
	if p.Care[0].Sym != Rise || p.Bus[0].Line != 0 {
		t.Error("Clone shares backing arrays with original")
	}
}

func TestPatternFormat(t *testing.T) {
	sp := NewSpace(twoCoreSOC())
	p := &Pattern{
		Care:   []Care{{Pos: 0, Sym: Rise}, {Pos: 4, Sym: One}},
		Bus:    []BusUse{{Line: 2, Driver: 1}},
		Weight: 1,
	}
	got := p.Format(sp)
	if !strings.Contains(got, "↑xx") || !strings.Contains(got, "x1xxx") || !strings.Contains(got, "xx1x") {
		t.Errorf("Format = %q", got)
	}
}

func TestGenerateInvariants(t *testing.T) {
	s := soc.MustLoadBenchmark("p34392")
	sp := NewSpace(s)
	cfg := GenConfig{N: 500, Seed: 7}
	patterns, err := Generate(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(patterns) != 500 {
		t.Fatalf("got %d patterns", len(patterns))
	}
	def := cfg.withDefaults()
	for i, p := range patterns {
		if err := p.Validate(sp); err != nil {
			t.Fatalf("pattern %d: %v", i, err)
		}
		if p.VictimPos < 0 || p.VictimCore < 0 {
			t.Fatalf("pattern %d: missing victim", i)
		}
		if sp.CoreAt(p.VictimPos) != int(p.VictimCore) {
			t.Fatalf("pattern %d: victim pos %d not in core %d", i, p.VictimPos, p.VictimCore)
		}
		// Count aggressors (transitions other than the victim's own
		// transition symbol position) and external care cores.
		vStart, vN := sp.Range(int(p.VictimCore))
		nExtCores := map[int]bool{}
		nExtAggr := 0
		nAggr := 0
		for _, c := range p.Care {
			inVictim := int(c.Pos) >= vStart && int(c.Pos) < vStart+vN
			if c.Pos == p.VictimPos {
				continue
			}
			if c.Sym == Rise || c.Sym == Fall {
				nAggr++
				if !inVictim {
					nExtAggr++
					nExtCores[sp.CoreAt(c.Pos)] = true
				}
			} else if !inVictim {
				t.Fatalf("pattern %d: steady background outside victim core at %d", i, c.Pos)
			}
		}
		if nAggr < def.MinAggressors || nAggr > def.MaxAggressors {
			t.Fatalf("pattern %d: %d aggressors outside [%d,%d]", i, nAggr, def.MinAggressors, def.MaxAggressors)
		}
		if nExtAggr > def.MaxExternal {
			t.Fatalf("pattern %d: %d external aggressors > %d", i, nExtAggr, def.MaxExternal)
		}
		if len(p.Bus) > def.MaxAggressors {
			t.Fatalf("pattern %d: %d bus lines > Na max", i, len(p.Bus))
		}
		for _, b := range p.Bus {
			if b.Driver != p.VictimCore {
				t.Fatalf("pattern %d: bus line %d driven by %d, not victim core %d", i, b.Line, b.Driver, p.VictimCore)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s := soc.MustLoadBenchmark("p34392")
	a, err := Generate(s, GenConfig{N: 200, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(s, GenConfig{N: 200, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if len(a[i].Care) != len(b[i].Care) || a[i].VictimPos != b[i].VictimPos {
			t.Fatalf("pattern %d differs between identical seeds", i)
		}
		for j := range a[i].Care {
			if a[i].Care[j] != b[i].Care[j] {
				t.Fatalf("pattern %d care %d differs", i, j)
			}
		}
	}
	c, err := Generate(s, GenConfig{N: 200, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i].VictimPos != c[i].VictimPos {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical victim sequences")
	}
}

func TestGenerateBusProbability(t *testing.T) {
	s := soc.MustLoadBenchmark("p34392")
	patterns, err := Generate(s, GenConfig{N: 4000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	withBus := 0
	for _, p := range patterns {
		if len(p.Bus) > 0 {
			withBus++
		}
	}
	frac := float64(withBus) / float64(len(patterns))
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("bus usage fraction = %.3f, want ~0.5", frac)
	}
	// BusProb < 0 disables the bus entirely.
	noBus, err := Generate(s, GenConfig{N: 300, Seed: 5, BusProb: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range noBus {
		if len(p.Bus) != 0 {
			t.Fatalf("pattern %d uses bus despite BusProb<0", i)
		}
	}
}

func TestGenerateQuiesceControls(t *testing.T) {
	s := soc.MustLoadBenchmark("p34392")
	sp := NewSpace(s)
	sparse, err := Generate(s, GenConfig{N: 300, Seed: 9, QuiesceProb: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range sparse {
		// Without quiescing, care bits are only the victim+aggressors.
		if len(p.Care) > 7 {
			t.Fatalf("pattern %d has %d care bits without quiescing", i, len(p.Care))
		}
	}
	full, err := Generate(s, GenConfig{N: 300, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range full {
		_, vN := sp.Range(int(p.VictimCore))
		if len(p.Care) < vN {
			t.Fatalf("pattern %d has %d care bits, want >= victim core WOC %d", i, len(p.Care), vN)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	s := soc.MustLoadBenchmark("p34392")
	if _, err := Generate(s, GenConfig{N: -1}); err == nil {
		t.Error("accepted negative N")
	}
	if _, err := Generate(s, GenConfig{N: 10, MinAggressors: 5, MaxAggressors: 2}); err == nil {
		t.Error("accepted inverted aggressor bounds")
	}
	tiny := &soc.SOC{Name: "tiny", CoreList: []*soc.Core{{ID: 1, Inputs: 1, Outputs: 1, Patterns: 1}}}
	if _, err := Generate(tiny, GenConfig{N: 10}); err == nil {
		t.Error("accepted SOC with a single WOC")
	}
}

func TestGenerateSingleCoreSOC(t *testing.T) {
	// All aggressors must be internal when there is only one core.
	s := &soc.SOC{Name: "one", BusWidth: 8, CoreList: []*soc.Core{{ID: 1, Inputs: 4, Outputs: 20, Patterns: 1}}}
	sp := NewSpace(s)
	patterns, err := Generate(s, GenConfig{N: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range patterns {
		for _, c := range p.Care {
			if sp.CoreAt(c.Pos) != 1 {
				t.Fatalf("pattern %d: position outside the only core", i)
			}
		}
	}
}

func TestFaultModelCounts(t *testing.T) {
	if got := MACount(640); got != 3840 {
		t.Errorf("MACount(640) = %d, want 3840 (paper Section 2)", got)
	}
	if got := ReducedMTCount(640, 3); got != 163840 {
		t.Errorf("ReducedMTCount(640,3) = %d, want 163840 (paper Section 2)", got)
	}
	if got := ReducedMTCount(1, 0); got != 4 {
		t.Errorf("ReducedMTCount(1,0) = %d, want 4", got)
	}
	if got := SerialExTestCycles(3840, 4000); got != 15360000 {
		t.Errorf("SerialExTestCycles = %d", got)
	}
}

// TestExternalRangesProperty checks each core's external aggressor
// ranges, worked out once per generation call, against the oracle's
// per-pattern scan: the same position count, every draw offset mapped
// to the same position, and no position inside the victim's core.
func TestExternalRangesProperty(t *testing.T) {
	fewExt, err := soc.Parse(strings.NewReader(fewExternalsSOC))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*soc.SOC{soc.MustLoadBenchmark("p93791"), permutedSOC(soc.MustLoadBenchmark("p34392"), 2), fewExt} {
		sp := NewSpace(s)
		for _, loc := range []int{-1, 1, 2, 3, 5, 20} {
			g := newGenerator(sp, GenConfig{ExternalLocality: loc})
			for _, c := range g.cores {
				ranges, total := externalRanges(sp, c.id, loc)
				if c.extTotal != total {
					t.Fatalf("%s core %d locality %d: %d external positions, oracle %d", s.Name, c.id, loc, c.extTotal, total)
				}
				for off := 0; off < total; off++ {
					want, o := int32(-1), off
					for _, r := range ranges {
						if o < r.n {
							want = int32(r.start + o)
							break
						}
						o -= r.n
					}
					got := c.extPos(off)
					if got != want {
						t.Fatalf("%s core %d locality %d: offset %d at %d, oracle %d", s.Name, c.id, loc, off, got, want)
					}
					if int(got) >= c.start && int(got) < c.start+c.n {
						t.Fatalf("%s core %d locality %d: offset %d inside the victim's core", s.Name, c.id, loc, off)
					}
				}
			}
		}
	}
}
