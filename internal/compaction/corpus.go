package compaction

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"sitam/internal/sifault"
)

// Corpus is an SI pattern set packed once for first-fit compaction.
// Every pattern goes through one packing step, add, which records its
// packed care words and walks its care list block by block (a block is
// one core's WOC range, in space order), recording its full-block
// contents as corpus-wide classes, its loose care, its bus uses, its
// weight and its care set: the blocks it cares about. There are two
// ways in. NewCorpus validates and packs a pattern set it is given (a
// pattern file, a caller-built set); GenerateCorpus packs each pattern
// as sifault.Draw draws it, so no generated pattern is kept. Compact
// then first-fits any index list into the corpus without going back to
// the patterns, so the groupings of one pattern set share one packing.
//
// A Corpus is read-only once built: Compact runs over it may proceed
// concurrently.
type Corpus struct {
	nPos       int
	nBus       int
	blockStart []int32 // block -> first WOC position
	blockLen   []int32 // block -> WOC count

	// Per-pattern arenas: pattern i owns [xOff[i], xOff[i+1]) of x.
	words    []sifault.PackedWord
	wordOff  []int32
	fulls    []fullRef // cls: the block's corpus-wide class
	fullOff  []int32
	looses   []looseRef // pair unset: each Compact run numbers its own pairs
	looseOff []int32
	bus      []sifault.BusUse
	busOff   []int32

	weight  []int32
	victim  [][2]int32 // VictimPos, VictimCore, for pass-through copies
	careSet []int32    // pattern -> index into sets

	// Per-block class contents: class j of block b is
	// content[b][j*blockLen[b]:(j+1)*blockLen[b]], one symbol per WOC.
	content [][]byte
	nCls    []int32
	sets    []CareSet
}

// CareSet is one distinct set of care blocks of a corpus: the cores,
// as indices in space order, that some patterns' care lists touch.
type CareSet struct {
	Blocks   []int32 // ascending
	Weight   int64   // total weight of the patterns with this care set
	Patterns int     // how many patterns have it
}

// minChunk is the fewest patterns NewCorpus hands one packing
// goroutine.
const minChunk = 1024

// newCorpus returns an empty corpus over sp with room for n patterns'
// offsets, weights, victims and care sets.
func newCorpus(sp *sifault.Space, n int) *Corpus {
	c := &Corpus{
		nPos:     sp.Total(),
		nBus:     sp.BusWidth(),
		wordOff:  make([]int32, n+1),
		fullOff:  make([]int32, n+1),
		looseOff: make([]int32, n+1),
		busOff:   make([]int32, n+1),
		weight:   make([]int32, n),
		victim:   make([][2]int32, n),
		careSet:  make([]int32, n),
	}
	order := sp.CoreOrder()
	c.blockStart = make([]int32, len(order))
	c.blockLen = make([]int32, len(order))
	for i, id := range order {
		start, n := sp.Range(id)
		c.blockStart[i] = int32(start)
		c.blockLen[i] = int32(n)
	}
	return c
}

// NewCorpus validates patterns against sp (sifault.Pattern.Validate)
// and packs them, in contiguous chunks on at most workers goroutines;
// the corpus is the same at any worker count. The error names the
// first invalid pattern by index.
func NewCorpus(sp *sifault.Space, patterns []*sifault.Pattern, workers int) (*Corpus, error) {
	n := len(patterns)
	c := newCorpus(sp, n)
	chunks := make([]corpusChunk, max(1, min(workers, n/minChunk)))
	per := (n + len(chunks) - 1) / len(chunks)
	for k := range chunks {
		chunks[k].lo, chunks[k].hi = min(k*per, n), min((k+1)*per, n)
	}
	if len(chunks) == 1 {
		c.pack(&chunks[0], sp, patterns)
	} else {
		var wg sync.WaitGroup
		wg.Add(len(chunks))
		for k := range chunks {
			go func(ch *corpusChunk) {
				defer wg.Done()
				c.pack(ch, sp, patterns)
			}(&chunks[k])
		}
		wg.Wait()
	}
	for k := range chunks {
		if err := chunks[k].err; err != nil {
			return nil, err
		}
	}
	c.join(chunks)
	return c, nil
}

// GenerateCorpus draws cfg's patterns over sp with sifault.Draw and
// packs each as it is drawn, on the calling goroutine: the corpus
// NewCorpus(sp, GenerateCtx(...), 1) builds, record for record, with no
// validation (the generator draws valid patterns), no counting pass
// and no Pattern kept. Its arenas are sized once from the draw's
// limits. It returns what Draw returns: on a cut, the corpus of the
// patterns drawn with the cut flag set; Draw's error otherwise.
func GenerateCorpus(ctx context.Context, sp *sifault.Space, cfg sifault.GenConfig) (*Corpus, bool, error) {
	d := drawSink{sp: sp}
	n, cut, err := sifault.Draw(ctx, sp, cfg, &d)
	if err != nil {
		return nil, false, err
	}
	c := d.c
	c.wordOff, c.fullOff, c.looseOff, c.busOff = c.wordOff[:n+1], c.fullOff[:n+1], c.looseOff[:n+1], c.busOff[:n+1]
	c.weight, c.victim, c.careSet = c.weight[:n], c.victim[:n], c.careSet[:n]
	c.join([]corpusChunk{d.ch})
	return c, cut, nil
}

// drawSink is GenerateCorpus's sifault.Sink: one chunk, filled in draw
// order.
type drawSink struct {
	sp *sifault.Space
	c  *Corpus
	ch corpusChunk
}

// Start sizes the chunk's arenas for n patterns within lim. A
// pattern's words are at most its care count, and at most the most
// words a block spans plus one per position outside its victim's core;
// it touches at most its victim's core's block plus one per outside
// position; and its loose care is only those outside positions when
// its victim's core is always full.
func (d *drawSink) Start(n int, lim sifault.Limits) {
	d.c = newCorpus(d.sp, n)
	spanned := 0
	for b, l := range d.c.blockLen {
		if start := d.c.blockStart[b]; l > 0 {
			spanned = max(spanned, int((start+l-1)>>6-start>>6+1))
		}
	}
	words := min(lim.Care, spanned+lim.Outside)
	loose := lim.Care
	if lim.FullCore {
		loose = lim.Outside
	}
	ch := &d.ch
	ch.words = make([]sifault.PackedWord, 0, n*words)
	ch.fulls = make([]fullRef, 0, n*(1+lim.Outside))
	ch.contents = make([]byte, 0, n*lim.Care)
	ch.looses = make([]looseRef, 0, n*loose)
	ch.bus = make([]sifault.BusUse, 0, n*lim.Bus)
	ch.setKeys = make([]byte, 0, 4*n*(1+lim.Outside))
	ch.setEnd = make([]int32, 0, n)
}

func (d *drawSink) Add(p *sifault.Pattern) {
	d.c.add(&d.ch, d.ch.hi, p)
	d.ch.hi++
}

// corpusChunk is what one packing goroutine builds for the patterns
// [lo, hi): arenas with chunk-local offsets, and the raw keys (block
// contents, care-block lists) that join numbers corpus-wide in pattern
// order.
type corpusChunk struct {
	lo, hi   int
	words    []sifault.PackedWord
	fulls    []fullRef // cls: start of the block's content in contents
	contents []byte
	looses   []looseRef
	bus      []sifault.BusUse
	setKeys  []byte  // care blocks, 4 bytes each, pattern after pattern
	setEnd   []int32 // pattern -> end of its care blocks in setKeys
	err      error
}

// pack validates the chunk's patterns and packs them with add. The
// word and bus arenas are sized exactly; the content arena by the care
// count, which bounds it.
func (c *Corpus) pack(ch *corpusChunk, sp *sifault.Space, patterns []*sifault.Pattern) {
	var nWords, nCare, nBus int
	for _, p := range patterns[ch.lo:ch.hi] {
		nWords += packedWordCount(p)
		nCare += len(p.Care)
		nBus += len(p.Bus)
	}
	ch.words = make([]sifault.PackedWord, 0, nWords)
	ch.contents = make([]byte, 0, nCare)
	ch.bus = make([]sifault.BusUse, 0, nBus)
	ch.fulls = make([]fullRef, 0, ch.hi-ch.lo)
	ch.setEnd = make([]int32, 0, ch.hi-ch.lo)
	for ci := ch.lo; ci < ch.hi; ci++ {
		if err := patterns[ci].Validate(sp); err != nil {
			ch.err = fmt.Errorf("pattern %d: %w", ci, err)
			return
		}
		c.add(ch, ci, patterns[ci])
	}
}

// add packs the valid pattern p as pattern ci: its chunk-local
// offsets, weight and victim go into c, its records into ch. It packs
// the care words (sifault.AppendPackedWords) and walks the strictly
// sorted care list block by block: a run covering its whole block is a
// full-block class, copied in one run, and anything else is loose
// care.
func (c *Corpus) add(ch *corpusChunk, ci int, p *sifault.Pattern) {
	c.wordOff[ci] = int32(len(ch.words))
	c.fullOff[ci] = int32(len(ch.fulls))
	c.looseOff[ci] = int32(len(ch.looses))
	c.busOff[ci] = int32(len(ch.bus))
	c.weight[ci] = p.Weight
	c.victim[ci] = [2]int32{p.VictimPos, p.VictimCore}
	ch.bus = append(ch.bus, p.Bus...)

	ch.words = sifault.AppendPackedWords(ch.words, p)
	care := p.Care
	bi := int32(0)
	for i := 0; i < len(care); {
		for care[i].Pos >= c.blockStart[bi]+c.blockLen[bi] {
			bi++
		}
		start, n := c.blockStart[bi], c.blockLen[bi]
		ch.setKeys = append(ch.setKeys, byte(bi), byte(bi>>8), byte(bi>>16), byte(bi>>24))
		// Positions are strictly sorted, so the run is its whole block
		// exactly when its first and n-th positions are the block's
		// first and last.
		if care[i].Pos == start && i+int(n) <= len(care) && care[i+int(n)-1].Pos == start+n-1 {
			ch.fulls = append(ch.fulls, fullRef{block: bi, cls: int32(len(ch.contents))})
			for _, cr := range care[i : i+int(n)] {
				ch.contents = append(ch.contents, uint8(cr.Sym))
			}
			i += int(n)
			continue
		}
		for end := start + n; i < len(care) && care[i].Pos < end; i++ {
			ch.looses = append(ch.looses, looseRef{pos: care[i].Pos, block: bi, sym: uint8(care[i].Sym - 1)})
		}
	}
	ch.setEnd = append(ch.setEnd, int32(len(ch.setKeys)))
}

// join numbers the full-block classes and the care sets in first-use
// order over the patterns. A lone chunk's arenas become the corpus's;
// several are concatenated in chunk order, their offsets rebased.
func (c *Corpus) join(chunks []corpusChunk) {
	if len(chunks) == 1 {
		ch := &chunks[0]
		c.words, c.fulls, c.looses, c.bus = ch.words, ch.fulls, ch.looses, ch.bus
	} else {
		var nWords, nFulls, nLooses, nBus int
		for k := range chunks {
			nWords += len(chunks[k].words)
			nFulls += len(chunks[k].fulls)
			nLooses += len(chunks[k].looses)
			nBus += len(chunks[k].bus)
		}
		c.words = make([]sifault.PackedWord, 0, nWords)
		c.fulls = make([]fullRef, 0, nFulls)
		c.looses = make([]looseRef, 0, nLooses)
		c.bus = make([]sifault.BusUse, 0, nBus)
		for k := range chunks {
			ch := &chunks[k]
			for ci := ch.lo; ci < ch.hi; ci++ {
				c.wordOff[ci] += int32(len(c.words))
				c.fullOff[ci] += int32(len(c.fulls))
				c.looseOff[ci] += int32(len(c.looses))
				c.busOff[ci] += int32(len(c.bus))
			}
			c.words = append(c.words, ch.words...)
			c.fulls = append(c.fulls, ch.fulls...)
			c.looses = append(c.looses, ch.looses...)
			c.bus = append(c.bus, ch.bus...)
		}
	}
	n := len(c.weight)
	c.wordOff[n] = int32(len(c.words))
	c.fullOff[n] = int32(len(c.fulls))
	c.looseOff[n] = int32(len(c.looses))
	c.busOff[n] = int32(len(c.bus))

	// Number the classes and the care sets. A block's content arena is
	// sized for the common case, every full-block content distinct.
	nFull := make([]int, len(c.blockStart))
	for _, f := range c.fulls {
		nFull[f.block]++
	}
	classOf := make([]map[string]int32, len(c.blockStart))
	c.content = make([][]byte, len(c.blockStart))
	c.nCls = make([]int32, len(c.blockStart))
	for b, nf := range nFull {
		if nf > 0 {
			classOf[b] = make(map[string]int32, nf)
			c.content[b] = make([]byte, 0, nf*int(c.blockLen[b]))
		}
	}
	setOf := make(map[string]int32)
	for k := range chunks {
		ch := &chunks[k]
		fulls := c.fulls[c.fullOff[ch.lo]:c.fullOff[ch.hi]]
		for i := range fulls {
			f := &fulls[i]
			key := ch.contents[f.cls : f.cls+c.blockLen[f.block]]
			cls, ok := classOf[f.block][string(key)]
			if !ok {
				cls = c.nCls[f.block]
				c.nCls[f.block]++
				classOf[f.block][string(key)] = cls
				c.content[f.block] = append(c.content[f.block], key...)
			}
			f.cls = cls
		}
		start := int32(0)
		for ci := ch.lo; ci < ch.hi; ci++ {
			end := ch.setEnd[ci-ch.lo]
			key := ch.setKeys[start:end]
			start = end
			set, ok := setOf[string(key)]
			if !ok {
				set = int32(len(c.sets))
				setOf[string(key)] = set
				blocks := make([]int32, len(key)/4)
				for b := range blocks {
					blocks[b] = int32(key[4*b]) | int32(key[4*b+1])<<8 | int32(key[4*b+2])<<16 | int32(key[4*b+3])<<24
				}
				c.sets = append(c.sets, CareSet{Blocks: blocks})
			}
			c.careSet[ci] = set
			c.sets[set].Weight += int64(c.weight[ci])
			c.sets[set].Patterns++
		}
	}
}

// Len returns the number of patterns in the corpus.
func (c *Corpus) Len() int { return len(c.weight) }

// CareSets returns the corpus's distinct care sets in first-use order.
// The caller must not modify them.
func (c *Corpus) CareSets() []CareSet { return c.sets }

// CareSetOf returns the index into CareSets of pattern i's care set.
func (c *Corpus) CareSetOf(i int) int { return int(c.careSet[i]) }

// wordsOf returns pattern ci's packed care words.
func (c *Corpus) wordsOf(ci int32) []sifault.PackedWord {
	return c.words[c.wordOff[ci]:c.wordOff[ci+1]:c.wordOff[ci+1]]
}

// pattern rebuilds pattern ci as NewCorpus saw it: the copy a cut run
// passes through unmerged.
func (c *Corpus) pattern(ci int32) *sifault.Pattern {
	p := &sifault.Pattern{VictimPos: c.victim[ci][0], VictimCore: c.victim[ci][1], Weight: c.weight[ci]}
	for _, w := range c.wordsOf(ci) {
		for m := w.Care; m != 0; m &= m - 1 {
			b := uint(bits.TrailingZeros64(m))
			p.Care = append(p.Care, sifault.Care{Pos: w.Idx<<6 + int32(b), Sym: w.SymbolAt(b)})
		}
	}
	p.Bus = append(p.Bus, c.bus[c.busOff[ci]:c.busOff[ci+1]]...)
	return p
}

// packedWordCount returns the number of PackedWords
// sifault.AppendPackedWords emits for p: the distinct 64-position
// words its sorted care list touches.
func packedWordCount(p *sifault.Pattern) int {
	n := 0
	last := int32(-1)
	for _, c := range p.Care {
		if w := c.Pos >> 6; w != last {
			n++
			last = w
		}
	}
	return n
}
