// Package sisim is a behavioral signal-integrity fault simulator for
// core-external interconnects, in the spirit of the maximal-aggressor
// fault model of Cuviello et al. (ICCAD 1999): crosstalk noise on a
// victim net is the superposition of contributions from its
// neighborhood aggressors, weighted by coupling strength that decays
// with routing-track distance, and an integrity-loss sensor at the
// receiver flags the fault when the accumulated noise crosses a
// threshold.
//
// The simulator grades SI test sets: it enumerates the MA fault list of
// a topology (six faults per net: positive/negative glitch,
// rising/falling delay, rising/falling speedup) and reports which
// faults a pattern set detects. The library uses it to demonstrate the
// paper's premise — high SI fault coverage needs large pattern counts —
// and to sanity-check the deterministic MA test sets (which achieve
// 100% coverage by construction).
package sisim

import (
	"fmt"

	"sitam/internal/sifault"
	"sitam/internal/topology"
)

// FaultKind enumerates the six MA fault types.
type FaultKind uint8

// The six maximal-aggressor faults per victim net.
const (
	GlitchPositive FaultKind = iota // victim quiescent 0, noise pulls up
	GlitchNegative                  // victim quiescent 1, noise pulls down
	DelayRise                       // victim rises, opposing noise delays it
	DelayFall                       // victim falls, opposing noise delays it
	SpeedupRise                     // victim rises, assisting noise speeds it up
	SpeedupFall                     // victim falls, assisting noise speeds it up
	numKinds
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case GlitchPositive:
		return "glitch+"
	case GlitchNegative:
		return "glitch-"
	case DelayRise:
		return "delay-rise"
	case DelayFall:
		return "delay-fall"
	case SpeedupRise:
		return "speedup-rise"
	case SpeedupFall:
		return "speedup-fall"
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// victimState returns the victim symbol that sensitizes the fault and
// the aggressor transition direction that excites it (+1 rise,
// -1 fall).
func (k FaultKind) victimState() (sifault.Symbol, int) {
	switch k {
	case GlitchPositive:
		return sifault.Zero, +1
	case GlitchNegative:
		return sifault.One, -1
	case DelayRise:
		return sifault.Rise, -1
	case DelayFall:
		return sifault.Fall, +1
	case SpeedupRise:
		return sifault.Rise, +1
	case SpeedupFall:
		return sifault.Fall, -1
	}
	panic(fmt.Sprintf("sisim: bad fault kind %d", k))
}

// Fault is one SI fault: a kind on a victim net.
type Fault struct {
	Net  int // index into the topology's net list
	Kind FaultKind
}

// Config parameterizes the noise model.
type Config struct {
	// LocalityK is the coupling window: nets further than K tracks
	// from the victim contribute no noise. The zero value defaults
	// to 3 (the paper's reduced-MT example).
	LocalityK int

	// Threshold is the fraction of the victim's worst-case
	// neighborhood noise that must be excited for the sensor to flag
	// the fault. 1.0 requires the full maximal-aggressor condition;
	// lower values model wider noise margins being violated earlier.
	// The zero value defaults to 0.9.
	Threshold float64
}

func (c Config) withDefaults() Config {
	if c.LocalityK == 0 {
		c.LocalityK = 3
	}
	if c.Threshold == 0 {
		c.Threshold = 0.9
	}
	return c
}

// coupling returns the capacitive coupling weight between two nets at
// track distance d >= 1: an inverse-distance decay, the customary
// first-order approximation.
func coupling(d int) float64 {
	if d < 1 {
		d = 1
	}
	return 1 / float64(d)
}

// Simulator grades pattern sets against the MA fault list of one
// topology.
type Simulator struct {
	topo *topology.Topology
	cfg  Config
	sp   *sifault.Space

	// posOf[i] is the global WOC position of net i's driver.
	posOf []int32

	// netAt maps a global position to the net it drives, or -1.
	netAt map[int32]int

	// worst[i] is net i's worst-case neighborhood noise (all window
	// aggressors in unison).
	worst []float64
}

// New builds a simulator for the topology.
func New(t *topology.Topology, cfg Config) (*Simulator, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.Threshold < 0 || cfg.Threshold > 1 {
		return nil, fmt.Errorf("sisim: threshold %v outside [0,1]", cfg.Threshold)
	}
	s := &Simulator{
		topo:  t,
		cfg:   cfg,
		sp:    sifault.NewSpace(t.SOC),
		posOf: make([]int32, len(t.Nets)),
		netAt: make(map[int32]int, len(t.Nets)),
		worst: make([]float64, len(t.Nets)),
	}
	for i, n := range t.Nets {
		start, cnt := s.sp.Range(n.Driver.Core)
		if n.Driver.Index >= cnt {
			return nil, fmt.Errorf("sisim: net %d driver index out of range", i)
		}
		pos := int32(start + n.Driver.Index)
		s.posOf[i] = pos
		s.netAt[pos] = i
	}
	for i := range t.Nets {
		for _, j := range s.topoNeighbors(i) {
			d := t.Nets[j].Track - t.Nets[i].Track
			if d < 0 {
				d = -d
			}
			s.worst[i] += coupling(d)
		}
	}
	return s, nil
}

// topoNeighbors returns the coupling window of net i under the
// configured locality.
func (s *Simulator) topoNeighbors(i int) []int { return s.topo.Neighbors(i, s.cfg.LocalityK) }

// Faults returns the full MA fault list: 6 faults per net.
func (s *Simulator) Faults() []Fault {
	out := make([]Fault, 0, 6*len(s.topo.Nets))
	for i := range s.topo.Nets {
		for k := FaultKind(0); k < numKinds; k++ {
			out = append(out, Fault{Net: i, Kind: k})
		}
	}
	return out
}

// Detects reports whether one pattern detects one fault: the victim
// must be driven to the fault's sensitizing state, and the excited
// neighborhood noise (aggressors transitioning in the fault's
// direction minus aggressors transitioning against it) must reach the
// threshold fraction of the worst case.
func (s *Simulator) Detects(p *sifault.Pattern, f Fault) bool {
	victimSym, dir := f.Kind.victimState()
	if p.SymbolAt(s.posOf[f.Net]) != victimSym {
		return false
	}
	if s.worst[f.Net] == 0 {
		return false // isolated net: the fault is undetectable (and unexcitable)
	}
	noise := 0.0
	vTrack := s.topo.Nets[f.Net].Track
	for _, j := range s.topoNeighbors(f.Net) {
		sym := p.SymbolAt(s.posOf[j])
		var contrib int
		switch sym {
		case sifault.Rise:
			contrib = +1
		case sifault.Fall:
			contrib = -1
		default:
			continue
		}
		d := s.topo.Nets[j].Track - vTrack
		if d < 0 {
			d = -d
		}
		noise += float64(dir*contrib) * coupling(d)
	}
	return noise >= s.cfg.Threshold*s.worst[f.Net]-1e-9
}

// Coverage is the outcome of grading a pattern set.
type Coverage struct {
	Total    int
	Detected int

	// Undetectable counts faults on nets with empty neighborhoods;
	// they are included in Total but can never be detected.
	Undetectable int

	// PerKind[k] is the number of detected faults of kind k.
	PerKind [6]int
}

// Fraction returns Detected/Total (0 when the fault list is empty).
func (c Coverage) Fraction() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Detected) / float64(c.Total)
}

// DetectableFraction returns coverage of the detectable faults only.
func (c Coverage) DetectableFraction() float64 {
	d := c.Total - c.Undetectable
	if d == 0 {
		return 0
	}
	return float64(c.Detected) / float64(d)
}

// Grade runs fault simulation of the pattern set with fault dropping
// and returns the achieved coverage.
func (s *Simulator) Grade(patterns []*sifault.Pattern) Coverage {
	cov := Coverage{Total: 6 * len(s.topo.Nets)}
	for i := range s.worst {
		if s.worst[i] == 0 {
			cov.Undetectable += 6
		}
	}
	detected := make([]bool, cov.Total)
	// Index patterns by the nets whose drivers they determine, so each
	// pattern is only simulated against faults it could sensitize.
	for _, p := range patterns {
		for _, c := range p.Care {
			net, ok := s.netAt[c.Pos]
			if !ok {
				continue
			}
			for k := FaultKind(0); k < numKinds; k++ {
				fi := net*6 + int(k)
				if detected[fi] {
					continue
				}
				if s.Detects(p, Fault{Net: net, Kind: k}) {
					detected[fi] = true
					cov.Detected++
					cov.PerKind[k]++
				}
			}
		}
	}
	return cov
}

// CoverageCurve grades growing prefixes of the pattern set and returns
// the coverage fraction after each checkpoint. Checkpoints must be
// ascending; values beyond len(patterns) clamp.
func (s *Simulator) CoverageCurve(patterns []*sifault.Pattern, checkpoints []int) []float64 {
	out := make([]float64, len(checkpoints))
	for i, n := range checkpoints {
		if n > len(patterns) {
			n = len(patterns)
		}
		out[i] = s.Grade(patterns[:n]).Fraction()
	}
	return out
}
