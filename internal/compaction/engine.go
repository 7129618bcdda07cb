package compaction

import (
	"context"
	"math/bits"
	"sort"

	"sitam/internal/sifault"
)

// Conflict-index first-fit engine.
//
// The fused super-pass form of the greedy clique cover (see the
// equivalence argument on Corpus.Compact) spends essentially all of its
// time answering one question per (candidate, open accumulator) pair:
// "do they conflict?". The packed
// bit-plane probe answers it in a handful of word operations, but the
// answer is recomputed per pair — Θ(Σ bin-index) probes over a run,
// ~4·10^8 on the Nr=100k acceptance corpus.
//
// This engine answers the question for all open accumulators of a
// super-pass at once, with accumulator-indexed bitmasks built around
// the structure of SI patterns:
//
//   - bus lines: an accumulator occupies a line with exactly one
//     driver, so per line a mask of occupying accumulators (busOcc)
//     and per (line, driver) a mask of same-driver occupants (busDrv)
//     decide every bus conflict in two words: busOcc[L] &^ busDrv[L][d].
//
//   - full-block care: SI patterns quiesce the victim core, so their
//     care typically covers the core's whole WOC block. Two patterns
//     that both cover block g in full are compatible exactly when
//     their block contents are IDENTICAL — an equality, so the corpus
//     interns contents into per-block classes once, each run numbers
//     the classes its candidates use, and per class a mask of
//     accumulators holding that class (clsState[..][0]) turns the
//     whole same-block check into fullOcc[g] &^ sameMask.
//
//   - loose care (externals, partially-quiesced or file-loaded
//     patterns): per WOC position, a mask of accumulators caring at
//     that position (posOcc any-plane) and per symbol the agreeing
//     subset — a candidate's loose position kills occAny &^ occSym.
//     The mirror case, an accumulator's loose care landing inside a
//     candidate's full block, is resolved by per-run AGREE sets:
//     for every distinct (position, symbol) loose pair the set of
//     block classes it agrees with; an accumulator's first loose in a
//     block ORs itself into the okMask (clsState[..][1]) of the
//     agreeing classes, so the query is baseKill[g] &^ okMask.
//
// Every mask is conflict-SOUND (a set bit proves a conflict; an
// accumulator is only excused when agreement is proven), and the flat
// per-accumulator bit planes are kept as ground truth: whatever the
// masks cannot decide exactly — an accumulator with two or more loose
// positions in one block (stale okMask), a block whose AGREE table
// blew the per-run budget, a candidate with more loose care than
// looseCap — is routed to the generic word probe via suspect masks.
// Byte-identity with the scalar reference therefore never depends on
// the filters being complete, only sound; the differential and fuzz
// suites pin it across fixtures.
const (
	fanout = 64 // open accumulators per super-pass == bits per accumulator mask

	// looseCap bounds the per-super-pass filter cost of one candidate:
	// candidates with more loose care positions fall back to the
	// generic probe for every surviving accumulator.
	looseCap = 16

	// agreeBudget bounds the total per-run AGREE table work
	// (Σ nPairs(g)·nClasses(g) over blocks); blocks beyond it resolve
	// loose-vs-full conflicts by probing instead.
	agreeBudget = 1 << 25
)

type fullRef struct {
	block int32 // block (core) index in space order
	cls   int32 // interned block-content class
}

type looseRef struct {
	pos   int32 // WOC position
	block int32 // owning block
	pair  int32 // per-block (offset, symbol) pair id
	sym   uint8 // Symbol-1 (0..3)
}

type busRef struct {
	line   int32 // bus line
	drv    int32 // dense driver index
	driver int32 // raw driving core ID (for materialization)
}

type pairKey struct {
	off int32 // position offset within the block
	sym uint8
}

// ffEngine is one first-fit run over an index list into a corpus:
// the candidates' per-run metadata plus the per-super-pass accumulator
// mask state. Candidates are numbered by list position; all slices are
// reused across passes; reset cost is proportional to what the pass
// touched.
type ffEngine struct {
	c   *Corpus
	idx []int32 // candidate -> corpus pattern

	nWords  int32
	nBlocks int
	nBus    int
	nDrv    int

	blockStart []int32
	blockLen   []int32

	// Per-candidate metadata (arena-backed, index-aligned with idx).
	words    [][]sifault.PackedWord
	fulls    [][]fullRef
	looses   [][]looseRef
	buses    [][]busRef
	filtered []bool

	// Per-block class numbering, in first-use order over the run.
	nCls       []int32
	clsOff     []int32   // block -> first slot in clsState
	clsGlobal  [][]int32 // block -> the run's classes as corpus classes
	pairs      [][]pairKey
	agree      [][]uint64 // block -> nPairs x stride bitset over classes; nil when not exact
	agreeW     []int32    // block -> stride in words
	agreeT     [][]uint64 // transpose: block -> nCls x strideT bitset over pairs
	agreeTW    []int32    // block -> transpose stride in words
	pairOff    []int32    // block -> first slot in okLoose (prefix over len(pairs))
	looseExact []bool

	busDisabled bool

	// Super-pass state.
	planes     [][3]uint64 // fanout*nWords, accumulator-major
	accWords   [][]int32   // per acc: touched word indices
	accBus     [][]sifault.BusUse
	weights    [fanout]int64
	posOcc     []uint64 // nPos*5: [any, sym0..3] accumulator masks
	posTouched []int32
	fullOcc    []uint64 // per block
	baseKill   []uint64 // per block: accs with loose care there (exact blocks only)
	suspect    []uint64 // per block: accs needing a probe for that block
	okLoose    []uint64 // per (block, pair): accs whose full class agrees with the pair
	okTouched  []int32
	clsState   [][2]uint64 // per class slot: [sameMask, okMask]
	clsTouched []int32
	looseCnt   []uint8 // fanout*nBlocks
	cntTouched []int32
	busOcc     []uint64
	busDrv     []uint64 // nBus*nDrv
	busTouched []int32
}

func newFFEngine(c *Corpus, idx []int32) *ffEngine {
	e := &ffEngine{
		c:          c,
		idx:        idx,
		nWords:     int32((c.nPos + 63) / 64),
		nBlocks:    len(c.blockStart),
		nBus:       c.nBus,
		blockStart: c.blockStart,
		blockLen:   c.blockLen,
	}
	e.buildAgree(e.number())
	e.initState()
	return e
}

// number gathers the candidates' corpus metadata into run-local arenas
// and renumbers their classes, loose (offset, symbol) pairs and bus
// drivers in first-use order over the list, so the run's tables hold
// only what its candidates use, exactly as if the list's patterns had
// been packed on their own. It returns, per block, the pair ids by
// offset*4+symbol (plus one; zero for none) and the distinct loose
// offsets in first-use order.
func (e *ffEngine) number() (pairIDs, offs [][]int32) {
	c := e.c
	n := len(e.idx)
	var nFull, nLoose, nBus int
	for _, ci := range e.idx {
		nFull += int(c.fullOff[ci+1] - c.fullOff[ci])
		nLoose += int(c.looseOff[ci+1] - c.looseOff[ci])
		nBus += int(c.busOff[ci+1] - c.busOff[ci])
	}
	fullArena := make([]fullRef, 0, nFull)
	looseArena := make([]looseRef, 0, nLoose)
	busArena := make([]busRef, 0, nBus)

	// Local ids by corpus class (per block) and by offset*4+symbol
	// (per block), stored plus one so that zero means unseen.
	clsLocal := make([][]int32, e.nBlocks)
	pairIDs = make([][]int32, e.nBlocks)
	offs = make([][]int32, e.nBlocks)
	e.nCls = make([]int32, e.nBlocks)
	e.clsGlobal = make([][]int32, e.nBlocks)
	e.pairs = make([][]pairKey, e.nBlocks)
	drvMap := make(map[int32]int32)

	e.words = make([][]sifault.PackedWord, n)
	e.fulls = make([][]fullRef, n)
	e.looses = make([][]looseRef, n)
	e.buses = make([][]busRef, n)
	e.filtered = make([]bool, n)
	for k, ci := range e.idx {
		e.words[k] = c.wordsOf(ci)
		f0, l0, b0 := len(fullArena), len(looseArena), len(busArena)
		for _, f := range c.fulls[c.fullOff[ci]:c.fullOff[ci+1]] {
			local := clsLocal[f.block]
			if local == nil {
				local = make([]int32, c.nCls[f.block])
				clsLocal[f.block] = local
			}
			if local[f.cls] == 0 {
				e.nCls[f.block]++
				local[f.cls] = e.nCls[f.block]
				e.clsGlobal[f.block] = append(e.clsGlobal[f.block], f.cls)
			}
			fullArena = append(fullArena, fullRef{block: f.block, cls: local[f.cls] - 1})
		}
		for _, l := range c.looses[c.looseOff[ci]:c.looseOff[ci+1]] {
			ids := pairIDs[l.block]
			if ids == nil {
				ids = make([]int32, 4*e.blockLen[l.block])
				pairIDs[l.block] = ids
			}
			pk := pairKey{off: l.pos - e.blockStart[l.block], sym: l.sym}
			at := ids[4*pk.off : 4*pk.off+4]
			if at[0]|at[1]|at[2]|at[3] == 0 {
				offs[l.block] = append(offs[l.block], pk.off)
			}
			if at[pk.sym] == 0 {
				e.pairs[l.block] = append(e.pairs[l.block], pk)
				at[pk.sym] = int32(len(e.pairs[l.block]))
			}
			l.pair = at[pk.sym] - 1
			looseArena = append(looseArena, l)
		}
		for _, b := range c.bus[c.busOff[ci]:c.busOff[ci+1]] {
			di, ok := drvMap[b.Driver]
			if !ok {
				di = int32(len(drvMap))
				drvMap[b.Driver] = di
			}
			busArena = append(busArena, busRef{line: b.Line, drv: di, driver: b.Driver})
		}
		e.fulls[k] = fullArena[f0:len(fullArena):len(fullArena)]
		e.looses[k] = looseArena[l0:len(looseArena):len(looseArena)]
		e.buses[k] = busArena[b0:len(busArena):len(busArena)]
		e.filtered[k] = len(e.looses[k]) <= looseCap
	}
	e.nDrv = len(drvMap)
	e.busDisabled = e.nBus > 0 && e.nDrv > 0 && e.nBus*e.nDrv > 1<<22
	return pairIDs, offs
}

// buildAgree precomputes, per block and per distinct loose (position,
// symbol) pair, the set of block classes that AGREE at that position —
// the basis of the okMask excusal. Blocks whose table would exceed the
// remaining budget fall back to probing (looseExact=false). pairIDs
// and offs are number's per-block pair ids (by offset*4+symbol, plus
// one) and distinct loose offsets.
func (e *ffEngine) buildAgree(pairIDs, offs [][]int32) {
	e.agree = make([][]uint64, e.nBlocks)
	e.agreeW = make([]int32, e.nBlocks)
	e.agreeT = make([][]uint64, e.nBlocks)
	e.agreeTW = make([]int32, e.nBlocks)
	e.looseExact = make([]bool, e.nBlocks)
	e.clsOff = make([]int32, e.nBlocks+1)
	e.pairOff = make([]int32, e.nBlocks+1)
	budget := int64(agreeBudget)
	var off, poff int32
	for g := 0; g < e.nBlocks; g++ {
		e.clsOff[g] = off
		e.pairOff[g] = poff
		off += e.nCls[g]
		poff += int32(len(e.pairs[g]))
		nP, nC := int64(len(e.pairs[g])), int64(e.nCls[g])
		if nC == 0 {
			continue
		}
		if nP == 0 {
			e.looseExact[g] = true
			continue
		}
		if nP*nC > budget {
			continue
		}
		budget -= nP * nC
		stride := int32((nC + 63) / 64)
		strideT := int32((nP + 63) / 64)
		e.agreeW[g] = stride
		e.agreeTW[g] = strideT
		tbl := make([]uint64, nP*int64(stride))
		tblT := make([]uint64, nC*int64(strideT))
		// A class agrees with exactly one pair per loose offset: the
		// one carrying its own symbol there, if the run has it.
		content, bl, ids := e.c.content[g], e.blockLen[g], pairIDs[g]
		for j, cls := range e.clsGlobal[g] {
			content := content[cls*bl : (cls+1)*bl]
			for _, o := range offs[g] {
				if pi := ids[4*o+int32(content[o])-1] - 1; pi >= 0 {
					tbl[pi*stride+int32(j>>6)] |= 1 << uint(j&63)
					tblT[int32(j)*strideT+pi>>6] |= 1 << uint(pi&63)
				}
			}
		}
		e.agree[g] = tbl
		e.agreeT[g] = tblT
		e.looseExact[g] = true
	}
	e.clsOff[e.nBlocks] = off
	e.pairOff[e.nBlocks] = poff
}

func (e *ffEngine) initState() {
	e.planes = make([][3]uint64, int(e.nWords)*fanout)
	e.accWords = make([][]int32, fanout)
	e.accBus = make([][]sifault.BusUse, fanout)
	e.posOcc = make([]uint64, e.c.nPos*5)
	e.fullOcc = make([]uint64, e.nBlocks)
	e.baseKill = make([]uint64, e.nBlocks)
	e.suspect = make([]uint64, e.nBlocks)
	e.clsState = make([][2]uint64, e.clsOff[e.nBlocks])
	e.okLoose = make([]uint64, e.pairOff[e.nBlocks])
	e.looseCnt = make([]uint8, fanout*e.nBlocks)
	e.busOcc = make([]uint64, e.nBus)
	if !e.busDisabled {
		e.busDrv = make([]uint64, e.nBus*e.nDrv)
	}
}

// probe is the ground-truth conflict check of candidate ci against
// accumulator b: the generic packed-word walk over the flat planes
// (plus the bus lists when the bus masks are disabled). It reports
// whether the candidate CAN merge.
func (e *ffEngine) probe(b int, ci int32) bool {
	base := b * int(e.nWords)
	planes := e.planes
	words := e.words[ci]
	for i := range words {
		w := &words[i]
		pl := &planes[base+int(w.Idx)]
		if pl[0]&w.Care&((pl[1]^w.V0)|(pl[2]^w.V1)) != 0 {
			return false
		}
	}
	if e.busDisabled {
		for _, bu := range e.buses[ci] {
			for _, have := range e.accBus[b] {
				if have.Line == bu.line && have.Driver != bu.driver {
					return false
				}
			}
		}
	}
	return true
}

// mergeInto absorbs candidate ci into accumulator b, updating the
// ground-truth planes and every filter mask.
func (e *ffEngine) mergeInto(b int, ci int32) {
	bit := uint64(1) << uint(b)
	base := b * int(e.nWords)
	for i := range e.words[ci] {
		w := &e.words[ci][i]
		pl := &e.planes[base+int(w.Idx)]
		if pl[0] == 0 {
			e.accWords[b] = append(e.accWords[b], w.Idx)
		}
		pl[0] |= w.Care
		pl[1] |= w.V0
		pl[2] |= w.V1
	}
	for _, f := range e.fulls[ci] {
		if e.fullOcc[f.block]&bit == 0 {
			// First full content of this accumulator in the block (any
			// later one is the same class — different classes conflict):
			// excuse the accumulator on every loose pair its content
			// agrees with, so the loose-vs-full query is two words.
			if tt := e.agreeT[f.block]; tt != nil {
				strideT := e.agreeTW[f.block]
				row := tt[f.cls*strideT : (f.cls+1)*strideT]
				pbase := e.pairOff[f.block]
				for wi, wv := range row {
					for wv != 0 {
						slot := pbase + int32(wi<<6) + int32(bits.TrailingZeros64(wv))
						wv &= wv - 1
						if e.okLoose[slot] == 0 {
							e.okTouched = append(e.okTouched, slot)
						}
						e.okLoose[slot] |= bit
					}
				}
			}
		}
		e.fullOcc[f.block] |= bit
		slot := e.clsOff[f.block] + f.cls
		st := &e.clsState[slot]
		if st[0] == 0 && st[1] == 0 {
			e.clsTouched = append(e.clsTouched, slot)
		}
		st[0] |= bit
	}
	for _, l := range e.looses[ci] {
		o := e.posOcc[int(l.pos)*5 : int(l.pos)*5+5]
		if o[0] == 0 {
			e.posTouched = append(e.posTouched, l.pos)
		}
		o[0] |= bit
		o[1+l.sym] |= bit
		g := l.block
		cntIdx := int32(b)*int32(e.nBlocks) + g
		switch e.looseCnt[cntIdx] {
		case 0:
			e.looseCnt[cntIdx] = 1
			e.cntTouched = append(e.cntTouched, cntIdx)
			if e.looseExact[g] {
				e.baseKill[g] |= bit
				if tbl := e.agree[g]; tbl != nil {
					stride := e.agreeW[g]
					row := tbl[l.pair*stride : (l.pair+1)*stride]
					cbase := e.clsOff[g]
					for wi, wv := range row {
						for wv != 0 {
							j := int32(wi<<6) + int32(bits.TrailingZeros64(wv))
							wv &= wv - 1
							st := &e.clsState[cbase+j]
							if st[0] == 0 && st[1] == 0 {
								e.clsTouched = append(e.clsTouched, cbase+j)
							}
							st[1] |= bit
						}
					}
				}
			} else {
				e.suspect[g] |= bit
			}
		case 1:
			e.looseCnt[cntIdx] = 2
			e.suspect[g] |= bit
		}
	}
	for _, bu := range e.buses[ci] {
		if e.busOcc[bu.line]&bit == 0 {
			e.busOcc[bu.line] |= bit
			e.accBus[b] = append(e.accBus[b], sifault.BusUse{Line: bu.line, Driver: bu.driver})
			if !e.busDisabled {
				di := bu.line*int32(e.nDrv) + bu.drv
				e.busDrv[di] |= bit
				e.busTouched = append(e.busTouched, di)
			}
		}
	}
	e.weights[b] += int64(e.c.weight[e.idx[ci]])
}

// materialize emits accumulator b as a merged pattern, byte-identical
// to the scalar reference's output: care sorted by position, bus uses
// sorted by line.
func (e *ffEngine) materialize(b int) *sifault.Pattern {
	p := &sifault.Pattern{
		VictimPos:  -1,
		VictimCore: -1,
		Weight:     int32(e.weights[b]),
	}
	tw := e.accWords[b]
	sort.Slice(tw, func(i, j int) bool { return tw[i] < tw[j] })
	base := b * int(e.nWords)
	n := 0
	for _, wi := range tw {
		n += bits.OnesCount64(e.planes[base+int(wi)][0])
	}
	p.Care = make([]sifault.Care, 0, n)
	for _, wi := range tw {
		pl := &e.planes[base+int(wi)]
		wbase := wi << 6
		for m := pl[0]; m != 0; m &= m - 1 {
			bb := uint(bits.TrailingZeros64(m))
			sym := sifault.Symbol(1 + (pl[1]>>bb)&1 + 2*((pl[2]>>bb)&1))
			p.Care = append(p.Care, sifault.Care{Pos: wbase + int32(bb), Sym: sym})
		}
	}
	bus := e.accBus[b]
	sort.Slice(bus, func(i, j int) bool { return bus[i].Line < bus[j].Line })
	for _, u := range bus {
		p.Bus = append(p.Bus, u)
	}
	return p
}

// resetPass clears exactly the state the finished super-pass touched.
func (e *ffEngine) resetPass(nOpen int) {
	for b := 0; b < nOpen; b++ {
		base := b * int(e.nWords)
		for _, wi := range e.accWords[b] {
			e.planes[base+int(wi)] = [3]uint64{}
		}
		e.accWords[b] = e.accWords[b][:0]
		e.accBus[b] = e.accBus[b][:0]
		e.weights[b] = 0
	}
	for _, p := range e.posTouched {
		o := e.posOcc[int(p)*5 : int(p)*5+5]
		o[0], o[1], o[2], o[3], o[4] = 0, 0, 0, 0, 0
	}
	e.posTouched = e.posTouched[:0]
	for _, slot := range e.clsTouched {
		e.clsState[slot] = [2]uint64{}
	}
	e.clsTouched = e.clsTouched[:0]
	for _, slot := range e.okTouched {
		e.okLoose[slot] = 0
	}
	e.okTouched = e.okTouched[:0]
	for _, i := range e.cntTouched {
		e.looseCnt[i] = 0
	}
	e.cntTouched = e.cntTouched[:0]
	for _, di := range e.busTouched {
		e.busDrv[di] = 0
	}
	e.busTouched = e.busTouched[:0]
	for g := range e.fullOcc {
		e.fullOcc[g] = 0
		e.baseKill[g] = 0
		e.suspect[g] = 0
	}
	for l := range e.busOcc {
		e.busOcc[l] = 0
	}
}

// run first-fits the candidates into passes bins. With keep, out holds
// the materialized merged patterns in bin order. A context cut leaves
// rest candidates unmerged; with keep, out follows the bins with copies
// of them in list order.
func (e *ffEngine) run(ctx context.Context, keep bool) (out []*sifault.Pattern, passes, rest int) {
	remaining := make([]int32, len(e.idx))
	for i := range remaining {
		remaining[i] = int32(i)
	}
	for len(remaining) > 0 {
		// Context honored at super-pass granularity, as in the serial
		// greedy: a cut passes the unmerged remainder through.
		if ctx.Err() != nil {
			if keep {
				for _, ci := range remaining {
					out = append(out, e.c.pattern(e.idx[ci]))
				}
			}
			return out, passes, len(remaining)
		}
		nOpen := 0
		openMask := uint64(0)
		next := remaining[:0]
		for _, ci := range remaining {
			kill := uint64(0)
			probeNeed := uint64(0)
			if !e.busDisabled {
				for _, bu := range e.buses[ci] {
					kill |= e.busOcc[bu.line] &^ e.busDrv[bu.line*int32(e.nDrv)+bu.drv]
				}
			} else if len(e.buses[ci]) > 0 {
				probeNeed = ^uint64(0)
			}
			for _, f := range e.fulls[ci] {
				st := &e.clsState[e.clsOff[f.block]+f.cls]
				kill |= e.fullOcc[f.block] &^ st[0]
				kill |= e.baseKill[f.block] &^ st[1]
				probeNeed |= e.suspect[f.block]
			}
			for _, l := range e.looses[ci] {
				o := e.posOcc[int(l.pos)*5 : int(l.pos)*5+5]
				kill |= o[0] &^ o[1+l.sym]
				// Loose-vs-full: an accumulator holding a FULL content
				// class for this block conflicts exactly when that
				// class disagrees at this position — okLoose holds the
				// agreeing accumulators, maintained on full merges.
				// Blocks without an AGREE table (budget overflow)
				// route their full occupants to the probe instead.
				g := l.block
				if e.agreeT[g] != nil {
					kill |= e.fullOcc[g] &^ e.okLoose[e.pairOff[g]+l.pair]
				} else {
					probeNeed |= e.fullOcc[g]
				}
			}
			if !e.filtered[ci] {
				probeNeed = ^uint64(0)
			}
			surv := openMask &^ kill
			for surv != 0 {
				b := bits.TrailingZeros64(surv)
				if probeNeed&(1<<uint(b)) == 0 || e.probe(b, ci) {
					e.mergeInto(b, ci)
					goto placed
				}
				surv &= surv - 1
			}
			if nOpen < fanout {
				// Rejected by every open accumulator: seed the next one
				// (the serial rule "the first reject of a pass seeds
				// the next pass").
				e.mergeInto(nOpen, ci)
				nOpen++
				openMask = openMask<<1 | 1
				continue
			}
			next = append(next, ci)
		placed:
		}
		remaining = next
		for b := 0; keep && b < nOpen; b++ {
			out = append(out, e.materialize(b))
		}
		passes += nOpen
		e.resetPass(nOpen)
	}
	return out, passes, 0
}
