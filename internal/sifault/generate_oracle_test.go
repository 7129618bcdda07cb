package sifault

import (
	"math/rand"
	"sort"

	"sitam/internal/soc"
)

// This file keeps the straightforward pattern generator: a
// used-position map, per-pattern external range and core range scans,
// and a final sort of the care list. It is the oracle
// TestGenerateMatchesOracle and FuzzGenerateMatchesOracle hold
// GenerateCtx to: the two make the same draws in the same order and
// must return equal corpora. Like GenerateCtx, it clamps the external
// aggressor count to the positions in reach; without the clamp it
// never returns on a victim core whose neighbours hold fewer WOCs than
// the drawn count.

// generateOracle is GenerateCtx without the context, over genOneOracle.
func generateOracle(s *soc.SOC, cfg GenConfig) []*Pattern {
	cfg = cfg.withDefaults()
	sp := NewSpace(s)
	rng := rand.New(rand.NewSource(cfg.Seed))
	patterns := make([]*Pattern, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		patterns = append(patterns, genOneOracle(sp, cfg, rng))
	}
	return patterns
}

func genOneOracle(sp *Space, cfg GenConfig, rng *rand.Rand) *Pattern {
	victim := int32(rng.Intn(sp.Total()))
	victimCore := sp.CoreAt(victim)
	start, n := sp.Range(victimCore)

	// External aggressors come from cores within cfg.ExternalLocality
	// of the victim's core in layout order (a ring), or from all other
	// cores when the locality is unlimited.
	extRanges, extTotal := externalRanges(sp, victimCore, cfg.ExternalLocality)

	na := cfg.MinAggressors + rng.Intn(cfg.MaxAggressors-cfg.MinAggressors+1)
	maxExt := cfg.MaxExternal
	if maxExt < 0 || maxExt > na {
		maxExt = na
	}
	if extTotal == 0 {
		maxExt = 0 // single-core SOC: no external positions exist
	}
	nExt := 0
	if maxExt > 0 && rng.Float64() < cfg.ExternalProb {
		nExt = 1 + rng.Intn(maxExt)
		if nExt > extTotal {
			nExt = extTotal
		}
	}
	nInt := na - nExt
	if avail := n - 1; nInt > avail {
		// Victim core boundary too narrow: spill to external aggressors.
		nInt = avail
		nExt = na - nInt
		if nExt > extTotal {
			nExt = extTotal
		}
	}

	kind := maFaultKinds[rng.Intn(len(maFaultKinds))]
	used := map[int32]struct{}{victim: {}}
	care := make([]Care, 0, 1+nInt+nExt)
	care = append(care, Care{Pos: victim, Sym: kind.victim})

	pick := func(lo, span int) int32 {
		for {
			p := int32(lo + rng.Intn(span))
			if _, dup := used[p]; !dup {
				used[p] = struct{}{}
				return p
			}
		}
	}
	for j := 0; j < nInt; j++ {
		care = append(care, Care{Pos: pick(start, n), Sym: kind.aggressor})
	}
	for j := 0; j < nExt; j++ {
		// Uniform over the allowed external positions.
		for {
			off := rng.Intn(extTotal)
			var p int32
			for _, r := range extRanges {
				if off < r.n {
					p = int32(r.start + off)
					break
				}
				off -= r.n
			}
			if _, dup := used[p]; !dup {
				used[p] = struct{}{}
				care = append(care, Care{Pos: p, Sym: kind.aggressor})
				break
			}
		}
	}
	// Quiesce the remaining outputs of the victim's core at steady
	// random background values (see GenConfig.QuiesceProb).
	if cfg.QuiesceProb > 0 {
		for off := 0; off < n; off++ {
			pos := int32(start + off)
			if _, taken := used[pos]; taken {
				continue
			}
			if cfg.QuiesceProb < 1 && rng.Float64() >= cfg.QuiesceProb {
				continue
			}
			sym := Zero
			if rng.Intn(2) == 1 {
				sym = One
			}
			care = append(care, Care{Pos: pos, Sym: sym})
		}
	}
	sort.Slice(care, func(a, b int) bool { return care[a].Pos < care[b].Pos })

	p := &Pattern{
		Care:       care,
		VictimPos:  victim,
		VictimCore: int32(victimCore),
		Weight:     1,
	}
	if sp.BusWidth() > 0 && rng.Float64() < cfg.BusProb {
		nLines := 1 + rng.Intn(na)
		if nLines > sp.BusWidth() {
			nLines = sp.BusWidth()
		}
		lines := rng.Perm(sp.BusWidth())[:nLines]
		sort.Ints(lines)
		for _, l := range lines {
			p.Bus = append(p.Bus, BusUse{Line: int32(l), Driver: int32(victimCore)})
		}
	}
	return p
}

// externalRanges returns the WOC position ranges of the cores within
// the given locality (in core order, as a ring) of the victim core,
// excluding the victim core itself, together with the total position
// count. A negative locality allows every other core.
func externalRanges(sp *Space, victimCore, locality int) ([]posRange, int) {
	order := sp.CoreOrder()
	nc := len(order)
	vIdx := 0
	for i, id := range order {
		if id == victimCore {
			vIdx = i
			break
		}
	}
	var ranges []posRange
	total := 0
	add := func(idx int) {
		start, n := sp.Range(order[idx])
		if n == 0 {
			return
		}
		ranges = append(ranges, posRange{start, n})
		total += n
	}
	if locality < 0 || 2*locality+1 >= nc {
		for i := range order {
			if i != vIdx {
				add(i)
			}
		}
		return ranges, total
	}
	for d := 1; d <= locality; d++ {
		add((vIdx + d) % nc)
		add((vIdx - d + nc) % nc)
	}
	return ranges, total
}
