package sifault

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"sitam/internal/soc"
)

// GenConfig parameterizes the random SI pattern generator of Section 5 of
// the paper: each pattern has one victim and Na random aggressors with
// 2 <= Na <= 6, at most two aggressors outside the victim core's
// boundary, and occupies the shared bus with probability BusProb (with
// 1..Na occupied lines).
type GenConfig struct {
	// N is the number of patterns to generate (the paper's N_r).
	N int

	// Seed drives all randomness; equal seeds give equal pattern sets.
	Seed int64

	// MinAggressors and MaxAggressors bound Na. Zero values default to
	// the paper's 2 and 6.
	MinAggressors int
	MaxAggressors int

	// MaxExternal is the maximum number of aggressors outside the
	// victim core's boundary. A negative value means no limit; zero
	// defaults to the paper's 2.
	MaxExternal int

	// BusProb is the probability that a pattern uses the shared bus.
	// A negative value means 0; the zero value defaults to the paper's
	// 0.5.
	BusProb float64

	// QuiesceProb is the probability that each background (non-victim,
	// non-aggressor) WOC of the victim's core is held at a steady
	// random 0/1 during the pattern, rather than left as a don't-care.
	// Holding the victim core's other outputs quiescent prevents
	// uncontrolled self-noise during the at-speed transition, and is
	// what Table 1's steady 0/1 entries depict. A negative value means
	// 0 (fully sparse patterns); the zero value defaults to 1.0.
	QuiesceProb float64

	// ExternalLocality bounds how far (in core-list order, a proxy for
	// layout adjacency) an external aggressor's core may be from the
	// victim's core: crosstalk couples only interconnects that are
	// physically routed together, so aggressors outside the victim
	// core's boundary come from neighboring cores (cf. the locality
	// factor of the reduced MT model). A negative value means
	// unlimited (uniform over all other cores); the zero value
	// defaults to 2 cores on either side.
	ExternalLocality int

	// ExternalProb is the probability that a pattern has any
	// aggressors outside the victim core's boundary at all (the paper
	// allows "at most two"; most coupling is within one core's own
	// boundary region). When it strikes, 1..MaxExternal external
	// aggressors are drawn. A negative value means 0; the zero value
	// defaults to 0.3.
	ExternalProb float64
}

func (c GenConfig) withDefaults() GenConfig {
	if c.MinAggressors == 0 {
		c.MinAggressors = 2
	}
	if c.MaxAggressors == 0 {
		c.MaxAggressors = 6
	}
	if c.MaxExternal == 0 {
		c.MaxExternal = 2
	}
	if c.BusProb == 0 {
		c.BusProb = 0.5
	}
	if c.BusProb < 0 {
		c.BusProb = 0
	}
	if c.QuiesceProb == 0 {
		c.QuiesceProb = 1.0
	}
	if c.QuiesceProb < 0 {
		c.QuiesceProb = 0
	}
	if c.ExternalLocality == 0 {
		c.ExternalLocality = 2
	}
	if c.ExternalProb == 0 {
		c.ExternalProb = 0.3
	}
	if c.ExternalProb < 0 {
		c.ExternalProb = 0
	}
	return c
}

// maFaultKinds enumerates the six maximal-aggressor fault types: positive
// and negative glitch on a quiescent victim, rising and falling delay
// (aggressors opposing the victim) and rising and falling speedup
// (aggressors following the victim).
var maFaultKinds = [6]struct{ victim, aggressor Symbol }{
	{Zero, Rise}, // positive glitch
	{One, Fall},  // negative glitch
	{Rise, Fall}, // rising delay
	{Fall, Rise}, // falling delay
	{Rise, Rise}, // rising speedup
	{Fall, Fall}, // falling speedup
}

// Generate produces cfg.N random SI test patterns for s, following the
// experimental protocol of Section 5. Victim interconnects are drawn
// uniformly over all WOC positions (so cores with wider boundaries see
// proportionally more victims); internal aggressors are distinct WOCs of
// the victim core, external aggressors distinct WOCs of other cores.
func Generate(s *soc.SOC, cfg GenConfig) ([]*Pattern, error) {
	patterns, _, err := GenerateCtx(context.Background(), s, cfg)
	return patterns, err
}

// GenerateCtx is Generate as an anytime algorithm: it is Draw into
// patterns, so on cancellation or deadline expiry the prefix generated
// so far is returned with the partial flag set and a nil error. The
// prefix is exactly what a full run with the same seed would have
// produced first, so downstream consumers see a smaller but otherwise
// identical workload. If the context fires before any pattern was
// generated, the context's error is returned instead.
//
// The patterns share allocation chunks, but each care and bus list's
// capacity is its length, so appending to one pattern's list never
// changes another's.
func GenerateCtx(ctx context.Context, s *soc.SOC, cfg GenConfig) ([]*Pattern, bool, error) {
	var m materializer
	_, cut, err := Draw(ctx, NewSpace(s), cfg, &m)
	if err != nil {
		return nil, false, err
	}
	return m.patterns, cut, nil
}

// A Sink receives the patterns Draw draws.
type Sink interface {
	// Start is called once, after the configuration is checked and
	// before the first draw, with the number of patterns to come and
	// what any one of them holds at most.
	Start(n int, lim Limits)

	// Add receives each pattern as it is drawn. The pattern and its
	// lists are Draw's scratch, overwritten by the next draw, so Add
	// copies what it keeps.
	Add(p *Pattern)
}

// Limits bounds one pattern Draw draws, so that a Sink can size its
// buffers once.
type Limits struct {
	// Care bounds the care positions, and Outside those outside the
	// victim's core (the external aggressors).
	Care, Outside int

	// Bus bounds the bus uses.
	Bus int

	// FullCore reports that every pattern determines every WOC of its
	// victim's core (QuiesceProb of 1 or more).
	FullCore bool
}

// Draw draws cfg.N random SI test patterns over sp, as Generate
// describes, and hands each to sink as it is drawn. It returns the
// number of patterns drawn. The context is polled every 512 patterns;
// on cancellation or deadline expiry Draw stops with the cut flag set
// and a nil error, having drawn exactly the prefix a full run with the
// same seed draws first. The context is not polled within a pattern,
// but every pattern finishes after a bounded expected number of draws:
// it never asks for more distinct aggressors than there are positions
// in its reach. A bad configuration, or a context done before the
// first draw, returns an error before Start.
func Draw(ctx context.Context, sp *Space, cfg GenConfig, sink Sink) (int, bool, error) {
	cfg = cfg.withDefaults()
	if cfg.N < 0 {
		return 0, false, fmt.Errorf("sifault: negative pattern count %d", cfg.N)
	}
	if cfg.MinAggressors < 1 || cfg.MaxAggressors < cfg.MinAggressors {
		return 0, false, fmt.Errorf("sifault: bad aggressor bounds [%d,%d]", cfg.MinAggressors, cfg.MaxAggressors)
	}
	if sp.Total() < 2 {
		return 0, false, fmt.Errorf("sifault: SOC has %d WOC positions; need at least 2", sp.Total())
	}
	if err := ctx.Err(); err != nil {
		return 0, false, err
	}
	g := newGenerator(sp, cfg)
	sink.Start(cfg.N, g.lim)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.N; i++ {
		if i > 0 && i&511 == 0 && ctx.Err() != nil {
			return i, true, nil
		}
		g.genOne(rng)
		sink.Add(&g.p)
	}
	return cfg.N, false, nil
}

// materializer is GenerateCtx's Sink. It copies each drawn pattern
// into chunks: Pattern structs from slabs of patternChunk (or of the
// patterns left to come, if fewer), care and bus lists from chunks of
// careChunk and busChunk elements. A generated set's patterns are
// dropped together, so a chunk never outlives the set that shares it.
type materializer struct {
	patterns []*Pattern
	slab     []Pattern
	care     []Care
	bus      []BusUse
}

const (
	patternChunk = 1 << 10
	careChunk    = 16 << 10
	busChunk     = 4 << 10
)

func (m *materializer) Start(n int, _ Limits) { m.patterns = make([]*Pattern, 0, n) }

func (m *materializer) Add(d *Pattern) {
	if len(m.slab) == 0 {
		m.slab = make([]Pattern, min(patternChunk, cap(m.patterns)-len(m.patterns)))
	}
	p := &m.slab[0]
	m.slab = m.slab[1:]
	*p = *d
	p.Care = carve(&m.care, d.Care, careChunk)
	if d.Bus != nil {
		p.Bus = carve(&m.bus, d.Bus, busChunk)
	}
	m.patterns = append(m.patterns, p)
}

// carve copies src to the front of *chunk and cuts it off with its
// capacity capped at its length: appending to it then reallocates
// instead of writing into the next slice carved. A chunk of size
// elements replaces *chunk when it is too short, and a slice longer
// than a chunk gets a chunk of its own length.
func carve[T any](chunk *[]T, src []T, size int) []T {
	if len(*chunk) < len(src) {
		*chunk = make([]T, max(len(src), size))
	}
	s := (*chunk)[:len(src):len(src)]
	copy(s, src)
	*chunk = (*chunk)[len(src):]
	return s
}

// generator draws the patterns of one Draw call. It holds what a
// pattern needs to know about its victim's core, worked out once per
// call, and the scratch each pattern is assembled in.
type generator struct {
	cfg      GenConfig
	total    int
	busWidth int
	cores    []victimCore // in position order
	lim      Limits

	// block holds, per offset in the victim's core, the victim's or an
	// aggressor's symbol and X elsewhere; genOne leaves it all X. It is
	// as long as the widest core's WOC count.
	block []Symbol

	// ext holds the current pattern's external aggressor positions,
	// sorted.
	ext []int32

	// perm is the bus-line permutation of rng.Perm, drawn in place.
	perm []int

	// p is the pattern last drawn; its care and bus lists live in care
	// and bus, sized by lim so that no draw reallocates them.
	p    Pattern
	care []Care
	bus  []BusUse
}

// victimCore is one core of the space, seen as a victim's core.
type victimCore struct {
	id, start, n int

	// ext lists the runs of positions an external aggressor may take,
	// in the order a uniform draw over their extTotal positions is laid
	// onto them.
	ext      []posRange
	extTotal int
}

// posRange is one contiguous run of allowed external positions.
type posRange struct{ start, n int }

// newGenerator works out each core's position block and external
// aggressor ranges, and the limits of one pattern. External aggressors
// come from the cores within cfg.ExternalLocality of the victim's core
// in layout order (a ring), nearest first and the following core
// before the preceding one, or from all other cores in position order
// when the locality is unlimited or spans the ring.
func newGenerator(sp *Space, cfg GenConfig) *generator {
	nc := len(sp.order)
	g := &generator{cfg: cfg, total: sp.Total(), busWidth: sp.busWidth, cores: make([]victimCore, nc), perm: make([]int, sp.busWidth)}
	all := cfg.ExternalLocality < 0 || 2*cfg.ExternalLocality+1 >= nc
	widest := 0
	for i := range g.cores {
		c := &g.cores[i]
		c.id, c.start, c.n = sp.order[i], sp.starts[i], sp.starts[i+1]-sp.starts[i]
		widest = max(widest, c.n)
		if all {
			c.addExt(0, c.start)
			c.addExt(c.start+c.n, g.total-c.start-c.n)
			continue
		}
		for d := 1; d <= cfg.ExternalLocality; d++ {
			for _, j := range [2]int{(i + d) % nc, (i - d + nc) % nc} {
				c.addExt(sp.starts[j], sp.starts[j+1]-sp.starts[j])
			}
		}
	}
	g.block = make([]Symbol, widest)

	// genOne's counts at their largest, core by core: at most
	// MaxAggressors aggressors, of which at most MaxExternal external
	// unless the core is too narrow for the rest, and never more
	// externals than positions in reach. The care list is the victim,
	// the aggressors and, with quiescing, the rest of the core's block.
	// The bus lines are at most one per aggressor.
	a := cfg.MaxAggressors
	maxExt := cfg.MaxExternal
	if maxExt < 0 || maxExt > a {
		maxExt = a
	}
	g.lim.FullCore = cfg.QuiesceProb >= 1
	for _, c := range g.cores {
		if c.n == 0 {
			continue // never a victim's core
		}
		ext := min(max(maxExt, a-(c.n-1)), c.extTotal)
		care := min(1+a, c.n+ext)
		if cfg.QuiesceProb > 0 {
			care = c.n + ext
		}
		g.lim.Outside = max(g.lim.Outside, ext)
		g.lim.Care = max(g.lim.Care, care)
	}
	g.lim.Bus = min(a, g.busWidth)
	g.care = make([]Care, 0, g.lim.Care)
	g.bus = make([]BusUse, 0, g.lim.Bus)
	return g
}

// addExt appends a run of n external positions from start, if any.
func (c *victimCore) addExt(start, n int) {
	if n > 0 {
		c.ext = append(c.ext, posRange{start, n})
		c.extTotal += n
	}
}

// extPos returns the external position a draw in [0, extTotal) names.
func (c *victimCore) extPos(off int) int32 {
	i := 0
	for off >= c.ext[i].n {
		off -= c.ext[i].n
		i++
	}
	return int32(c.ext[i].start + off)
}

// genOne draws one pattern into g.p. The draws and their order are the
// corpus's contract (equal seeds give equal corpora in every front
// end), so they must not change; the care list is written in position
// order as the draws come, with no sort.
func (g *generator) genOne(rng *rand.Rand) {
	cfg := &g.cfg
	victim := int32(rng.Intn(g.total))
	// The victim's core is the first whose block ends past the victim.
	vi := sort.Search(len(g.cores), func(i int) bool { return g.cores[i].start+g.cores[i].n > int(victim) })
	vc := &g.cores[vi]

	na := cfg.MinAggressors + rng.Intn(cfg.MaxAggressors-cfg.MinAggressors+1)
	maxExt := cfg.MaxExternal
	if maxExt < 0 || maxExt > na {
		maxExt = na
	}
	if vc.extTotal == 0 {
		maxExt = 0 // single-core SOC: no external positions exist
	}
	nExt := 0
	if maxExt > 0 && rng.Float64() < cfg.ExternalProb {
		// No more external aggressors than positions in reach.
		nExt = min(1+rng.Intn(maxExt), vc.extTotal)
	}
	nInt := na - nExt
	if avail := vc.n - 1; nInt > avail {
		// Victim core boundary too narrow: spill to external aggressors.
		nInt = avail
		nExt = min(na-nInt, vc.extTotal)
	}

	kind := maFaultKinds[rng.Intn(len(maFaultKinds))]
	block := g.block[:vc.n]
	block[int(victim)-vc.start] = kind.victim
	for j := 0; j < nInt; j++ {
		off := rng.Intn(vc.n)
		for block[off] != X {
			off = rng.Intn(vc.n)
		}
		block[off] = kind.aggressor
	}
	// External aggressors are uniform over the positions in reach.
	ext := g.ext[:0]
	for j := 0; j < nExt; j++ {
		for {
			pos := vc.extPos(rng.Intn(vc.extTotal))
			if i, dup := slices.BinarySearch(ext, pos); !dup {
				ext = slices.Insert(ext, i, pos)
				break
			}
		}
	}
	g.ext = ext

	// The care list: the externals below the victim's core, its block
	// in position order, the externals above it. The block's remaining
	// outputs are quiesced at steady random background values (see
	// GenConfig.QuiesceProb), drawn in position order.
	quiesce := cfg.QuiesceProb > 0
	care := g.care[:0]
	below, _ := slices.BinarySearch(ext, int32(vc.start))
	for _, pos := range ext[:below] {
		care = append(care, Care{Pos: pos, Sym: kind.aggressor})
	}
	for off, sym := range block {
		switch {
		case sym != X:
			block[off] = X
		case !quiesce || cfg.QuiesceProb < 1 && rng.Float64() >= cfg.QuiesceProb:
			continue
		default:
			// rng.Intn(2) is Int31n(2), which is Int31()&1, which is
			// Int63()>>32&1: the same draw without two calls that do
			// not inline.
			sym = Zero + Symbol(rng.Int63()>>32&1)
		}
		care = append(care, Care{Pos: int32(vc.start + off), Sym: sym})
	}
	for _, pos := range ext[below:] {
		care = append(care, Care{Pos: pos, Sym: kind.aggressor})
	}

	g.p = Pattern{
		Care:       care,
		VictimPos:  victim,
		VictimCore: int32(vc.id),
		Weight:     1,
	}
	if g.busWidth > 0 && rng.Float64() < cfg.BusProb {
		nLines := min(1+rng.Intn(na), g.busWidth)
		// rng.Perm(g.busWidth)'s own loop, with its draws, into a
		// scratch. Every entry is written before it is read.
		perm := g.perm
		for i := range perm {
			j := rng.Intn(i + 1)
			perm[i] = perm[j]
			perm[j] = i
		}
		lines := perm[:nLines]
		slices.Sort(lines)
		bus := g.bus[:0]
		for _, l := range lines {
			bus = append(bus, BusUse{Line: int32(l), Driver: int32(vc.id)})
		}
		g.p.Bus = bus
	}
}

// MACount returns the test-vector-pair count of the maximal-aggressor
// fault model for n victim interconnects: 6 faults per victim.
func MACount(n int) int64 { return 6 * int64(n) }

// ReducedMTCount returns the approximate pattern count of the reduced
// multiple-transition fault model with locality factor k, per Tehranipour
// et al.: roughly n · 2^(2k+2).
func ReducedMTCount(n, k int) int64 {
	return int64(n) << uint(2*k+2)
}

// SerialExTestCycles estimates the serial (1-bit TAM) external test time
// for the given pattern count over an SOC whose cores expose totalCells
// boundary cells: every pattern shifts through all boundary cells once.
func SerialExTestCycles(patterns, totalCells int64) int64 {
	return patterns * totalCells
}
