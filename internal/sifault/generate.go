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

// GenerateCtx is Generate as an anytime algorithm: the context is
// polled every 512 patterns, and on cancellation or deadline expiry the
// prefix generated so far is returned with the partial flag set and a
// nil error. The context is not polled within a pattern, but every
// pattern finishes after a bounded expected number of draws: it never
// asks for more distinct aggressors than there are positions in its
// reach. The prefix is exactly what a full run with the same seed would
// have produced first, so downstream consumers see a smaller but
// otherwise identical workload. If the context fires before any
// pattern was generated, the context's error is returned instead.
//
// The patterns share allocation chunks, but each care and bus list's
// capacity is its length, so appending to one pattern's list never
// changes another's.
func GenerateCtx(ctx context.Context, s *soc.SOC, cfg GenConfig) ([]*Pattern, bool, error) {
	cfg = cfg.withDefaults()
	if cfg.N < 0 {
		return nil, false, fmt.Errorf("sifault: negative pattern count %d", cfg.N)
	}
	if cfg.MinAggressors < 1 || cfg.MaxAggressors < cfg.MinAggressors {
		return nil, false, fmt.Errorf("sifault: bad aggressor bounds [%d,%d]", cfg.MinAggressors, cfg.MaxAggressors)
	}
	sp := NewSpace(s)
	if sp.Total() < 2 {
		return nil, false, fmt.Errorf("sifault: SOC has %d WOC positions; need at least 2", sp.Total())
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	g := newGenerator(sp, cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	patterns := make([]*Pattern, 0, cfg.N)
	var slab []Pattern
	for i := 0; i < cfg.N; i++ {
		if i > 0 && i&511 == 0 && ctx.Err() != nil {
			return patterns, true, nil
		}
		if len(slab) == 0 {
			slab = make([]Pattern, min(patternChunk, cfg.N-i))
		}
		p := &slab[0]
		slab = slab[1:]
		g.genOne(rng, p)
		patterns = append(patterns, p)
	}
	return patterns, false, nil
}

// The chunk sizes a GenerateCtx call carves its Pattern structs, care
// lists and bus lists from. A corpus's patterns are dropped together,
// so a chunk never outlives the corpus that shares it.
const (
	patternChunk = 1 << 10
	careChunk    = 16 << 10
	busChunk     = 4 << 10
)

// reserve returns room for n elements at the front of *chunk, as a
// zero-length slice whose capacity is n. A chunk of size elements
// replaces *chunk when it is too short, and a request longer than a
// chunk gets a chunk of its own length. The caller appends at most n
// elements and then hands the result to commit.
func reserve[T any](chunk *[]T, n, size int) []T {
	if len(*chunk) < n {
		*chunk = make([]T, max(n, size))
	}
	return (*chunk)[:0:n]
}

// commit cuts s, the filled slice reserve returned, from the front of
// *chunk and caps its capacity at its length: appending to it then
// reallocates instead of writing into the next slice carved.
func commit[T any](chunk *[]T, s []T) []T {
	*chunk = (*chunk)[len(s):]
	return s[:len(s):len(s)]
}

// generator draws the patterns of one GenerateCtx call. It holds what a
// pattern needs to know about its victim's core, worked out once per
// call, and the scratch each pattern is assembled in.
type generator struct {
	cfg      GenConfig
	total    int
	busWidth int
	cores    []victimCore // in position order

	// block holds, per offset in the victim's core, the victim's or an
	// aggressor's symbol and X elsewhere; genOne leaves it all X. It is
	// as long as the widest core's WOC count.
	block []Symbol

	// ext holds the current pattern's external aggressor positions,
	// sorted.
	ext []int32

	// perm is the bus-line permutation of rng.Perm, drawn in place.
	perm []int

	// care and bus are the chunks the care and bus lists are carved
	// from.
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
// aggressor ranges. External aggressors come from the cores within
// cfg.ExternalLocality of the victim's core in layout order (a ring),
// nearest first and the following core before the preceding one, or
// from all other cores in position order when the locality is
// unlimited or spans the ring.
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

// genOne draws one pattern into p. The draws and their order are the
// corpus's contract (equal seeds give equal corpora in every front
// end), so they must not change; the care list is written in position
// order as the draws come, with no sort.
func (g *generator) genOne(rng *rand.Rand, p *Pattern) {
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
	bound := 1 + nInt
	if quiesce {
		bound = vc.n
	}
	care := reserve(&g.care, nExt+bound, careChunk)
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

	*p = Pattern{
		Care:       commit(&g.care, care),
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
		bus := reserve(&g.bus, nLines, busChunk)
		for _, l := range lines {
			bus = append(bus, BusUse{Line: int32(l), Driver: int32(vc.id)})
		}
		p.Bus = commit(&g.bus, bus)
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
