package sisim

import (
	"math"
	"testing"

	"sitam/internal/sifault"
	"sitam/internal/soc"
	"sitam/internal/topology"
)

func lineTopology(t *testing.T, nets int) *topology.Topology {
	t.Helper()
	s := &soc.SOC{Name: "line", BusWidth: 8}
	perCore := 10
	cores := (nets + perCore - 1) / perCore
	if cores < 2 {
		cores = 2
	}
	for id := 1; id <= cores; id++ {
		s.CoreList = append(s.CoreList, &soc.Core{
			ID: id, Inputs: perCore, Outputs: perCore, ScanChains: []int{10}, Patterns: 5,
		})
	}
	topo := &topology.Topology{SOC: s}
	for i := 0; i < nets; i++ {
		topo.Nets = append(topo.Nets, topology.Net{
			Driver:        topology.Terminal{Core: 1 + i/perCore, Index: i % perCore},
			ReceiverCores: []int{1 + (i/perCore+1)%cores},
			BusLine:       -1,
			Track:         i,
		})
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestFaultKindString(t *testing.T) {
	want := map[FaultKind]string{
		GlitchPositive: "glitch+", GlitchNegative: "glitch-",
		DelayRise: "delay-rise", DelayFall: "delay-fall",
		SpeedupRise: "speedup-rise", SpeedupFall: "speedup-fall",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestFaultListSize(t *testing.T) {
	topo := lineTopology(t, 25)
	sim, err := New(topo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	faults := sim.Faults()
	if len(faults) != 150 {
		t.Errorf("fault list = %d, want 6*25", len(faults))
	}
	if sim.RequiredPatternsEstimate() != 150 {
		t.Errorf("estimate = %d", sim.RequiredPatternsEstimate())
	}
}

func TestMAPatternsAchieveFullCoverage(t *testing.T) {
	topo := lineTopology(t, 30)
	k := 3
	sim, err := New(topo, Config{LocalityK: k, Threshold: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	patterns, err := topology.MAPatterns(topo, k)
	if err != nil {
		t.Fatal(err)
	}
	cov := sim.Grade(patterns)
	if cov.Undetectable != 0 {
		t.Fatalf("line topology has %d undetectable faults", cov.Undetectable)
	}
	if cov.Detected != cov.Total {
		t.Errorf("MA test set covers %d/%d faults; must be complete by construction",
			cov.Detected, cov.Total)
	}
	for k, n := range cov.PerKind {
		if n != 30 {
			t.Errorf("kind %v covered %d/30", FaultKind(k), n)
		}
	}
}

func TestCoverageMonotonic(t *testing.T) {
	topo := lineTopology(t, 30)
	sim, err := New(topo, Config{LocalityK: 2, Threshold: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	patterns, err := topology.MAPatterns(topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	curve := sim.CoverageCurve(patterns, []int{10, 40, 90, len(patterns), len(patterns) + 100})
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Errorf("coverage curve not monotonic: %v", curve)
		}
	}
	if curve[len(curve)-1] != 1.0 {
		t.Errorf("final coverage = %v, want 1.0", curve[len(curve)-1])
	}
	if curve[0] >= curve[len(curve)-1] {
		t.Errorf("coverage already complete after 10 patterns: %v", curve)
	}
}

func TestDetectsRequiresVictimState(t *testing.T) {
	topo := lineTopology(t, 10)
	sim, err := New(topo, Config{LocalityK: 1, Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// Pattern drives net 5's victim to Rise with neighbor 4 rising.
	sp := sifault.NewSpace(topo.SOC)
	_ = sp
	mk := func(vSym, aSym sifault.Symbol) *sifault.Pattern {
		p := &sifault.Pattern{Weight: 1}
		p.Care = []sifault.Care{
			{Pos: sim.posOf[4], Sym: aSym},
			{Pos: sim.posOf[5], Sym: vSym},
		}
		if sim.posOf[4] > sim.posOf[5] {
			p.Care[0], p.Care[1] = p.Care[1], p.Care[0]
		}
		return p
	}
	if !sim.Detects(mk(sifault.Rise, sifault.Rise), Fault{Net: 5, Kind: SpeedupRise}) {
		t.Error("speedup-rise undetected with rising victim and rising aggressor")
	}
	if sim.Detects(mk(sifault.Fall, sifault.Rise), Fault{Net: 5, Kind: SpeedupRise}) {
		t.Error("speedup-rise detected with falling victim")
	}
	if sim.Detects(mk(sifault.Rise, sifault.Fall), Fault{Net: 5, Kind: SpeedupRise}) {
		t.Error("speedup-rise detected with opposing aggressor only")
	}
	if !sim.Detects(mk(sifault.Rise, sifault.Fall), Fault{Net: 5, Kind: DelayRise}) {
		t.Error("delay-rise undetected with falling aggressor")
	}
}

func TestOpposingAggressorsCancel(t *testing.T) {
	topo := lineTopology(t, 10)
	sim, err := New(topo, Config{LocalityK: 1, Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Net 5's window at k=1 is nets 4 and 6, equal coupling. One rises,
	// one falls: net noise 0, below any positive threshold.
	p := &sifault.Pattern{Weight: 1}
	p.Care = []sifault.Care{
		{Pos: sim.posOf[4], Sym: sifault.Rise},
		{Pos: sim.posOf[5], Sym: sifault.Zero},
		{Pos: sim.posOf[6], Sym: sifault.Fall},
	}
	sortCare(p)
	if sim.Detects(p, Fault{Net: 5, Kind: GlitchPositive}) {
		t.Error("cancelled noise still detected")
	}
	// Both rising: full excitation.
	p.Care[2].Sym = sifault.Rise
	if !sim.Detects(p, Fault{Net: 5, Kind: GlitchPositive}) {
		t.Error("full excitation undetected")
	}
}

func sortCare(p *sifault.Pattern) {
	for i := 1; i < len(p.Care); i++ {
		for j := i; j > 0 && p.Care[j].Pos < p.Care[j-1].Pos; j-- {
			p.Care[j], p.Care[j-1] = p.Care[j-1], p.Care[j]
		}
	}
}

func TestThresholdForWindow(t *testing.T) {
	// k=1: worst = 2*1.0; single nearest aggressor -> 0.5.
	if got := ThresholdForWindow(1); got != 0.5 {
		t.Errorf("ThresholdForWindow(1) = %v, want 0.5", got)
	}
	if got := ThresholdForWindow(0); got != 1 {
		t.Errorf("ThresholdForWindow(0) = %v, want 1", got)
	}
	if MaxCoupling() != 1 {
		t.Errorf("MaxCoupling = %v", MaxCoupling())
	}
}

func TestRandomPatternsPartialCoverage(t *testing.T) {
	// Random generator patterns over the SOC detect some but not all
	// MA faults at a generous threshold — the paper's motivation for
	// large N_r.
	topo := lineTopology(t, 40)
	sim, err := New(topo, Config{LocalityK: 2, Threshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	patterns, err := sifault.Generate(topo.SOC, sifault.GenConfig{N: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cov := sim.Grade(patterns)
	if cov.Detected == 0 {
		t.Error("random patterns detected nothing at threshold 0.3")
	}
	if cov.Detected == cov.Total {
		t.Error("300 random patterns already at full coverage — threshold too lax for the test's premise")
	}
	if cov.Fraction() <= 0 || cov.Fraction() >= 1 {
		t.Errorf("fraction = %v", cov.Fraction())
	}
	if cov.DetectableFraction() < cov.Fraction() {
		t.Error("detectable fraction below raw fraction")
	}
}

func TestConfigValidation(t *testing.T) {
	topo := lineTopology(t, 5)
	if _, err := New(topo, Config{Threshold: 2}); err == nil {
		t.Error("accepted threshold > 1")
	}
	bad := &topology.Topology{SOC: topo.SOC}
	if _, err := New(bad, Config{}); err == nil {
		t.Error("accepted empty topology")
	}
}

// RequiredPatternsEstimate returns the analytic MA pattern count for
// the topology (6N), for comparison against how many random patterns
// Grade needs for the same coverage.
func (s *Simulator) RequiredPatternsEstimate() int64 {
	return sifault.MACount(len(s.topo.Nets))
}

// MaxCoupling returns the largest single coupling weight in use, a
// sanity handle for threshold selection.
func MaxCoupling() float64 { return coupling(1) }

// ThresholdForWindow returns the threshold fraction at which a single
// nearest-track aggressor suffices to excite a fault in a window of
// 2k nets — handy in tests that want patterns with few aggressors to
// count.
func ThresholdForWindow(k int) float64 {
	worst := 0.0
	for d := 1; d <= k; d++ {
		worst += 2 * coupling(d)
	}
	if worst == 0 {
		return 1
	}
	return math.Min(1, coupling(1)/worst)
}
