// Package wrapper implements IEEE 1500-style test wrapper design for
// embedded cores: partitioning a core's internal scan chains and boundary
// cells into a given number of balanced wrapper scan chains, and the
// resulting test application time.
//
// The partitioning heuristic is the Combine procedure of Marinissen, Goel
// and Lousberg ("Wrapper Design for Embedded Core Test", ITC 2000): Best
// Fit Decreasing placement of the internal scan chains followed by
// distribution of the wrapper input/output cells, which builds
// near-balanced wrapper scan chains. The paper under reproduction uses
// Combine for InTest-mode wrappers; in SI (ExTest) mode wrapper scan
// chains contain boundary cells only and are assumed perfectly balanced.
package wrapper

import (
	"fmt"
	"slices"
	"sort"

	"sitam/internal/soc"
)

// Design describes the wrapper scan-chain arrangement of one core for a
// given TAM width.
type Design struct {
	// Width is the number of wrapper scan chains (the TAM width the
	// core is hooked to).
	Width int

	// ScanIn[i] is the scan-in length of wrapper chain i: wrapper input
	// cells plus the internal scan flip-flops routed through chain i.
	ScanIn []int

	// ScanOut[i] is the scan-out length of wrapper chain i: internal
	// scan flip-flops plus wrapper output cells.
	ScanOut []int
}

// MaxScanIn returns the longest scan-in chain length.
func (d *Design) MaxScanIn() int { return maxOf(d.ScanIn) }

// MaxScanOut returns the longest scan-out chain length.
func (d *Design) MaxScanOut() int { return maxOf(d.ScanOut) }

func maxOf(v []int) int {
	m := 0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// TestTime returns the InTest application time of a core tested through
// this wrapper with p test patterns, in clock cycles:
//
//	T = (1 + max(si, so))·p + min(si, so)
//
// where si and so are the longest wrapper scan-in and scan-out chain
// lengths. This is the standard formula from Iyengar, Chakrabarty and
// Marinissen (JETTA 2002): each pattern needs max(si,so) shift cycles
// (scan-in of the next pattern overlaps scan-out of the previous) plus
// one capture cycle, and the final response needs min(si,so) extra
// cycles to flush.
func (d *Design) TestTime(patterns int) int64 {
	return testTime(d.MaxScanIn(), d.MaxScanOut(), patterns)
}

// testTime is TestTime's formula over the longest scan-in and scan-out
// chain lengths.
func testTime(si, so, patterns int) int64 {
	if patterns == 0 {
		return 0
	}
	return (1+int64(max(si, so)))*int64(patterns) + int64(min(si, so))
}

// Combine builds an InTest wrapper design for core c at the given TAM
// width using Best Fit Decreasing.
//
// Internal scan chains are placed longest-first onto the wrapper chain
// with the currently shortest scan length; wrapper input cells are then
// distributed to equalize scan-in lengths and wrapper output cells to
// equalize scan-out lengths. Width must be at least 1; a width larger
// than the number of placeable items simply leaves some wrapper chains
// empty.
func Combine(c *soc.Core, width int) (*Design, error) {
	if width < 1 {
		return nil, fmt.Errorf("wrapper: width must be >= 1, got %d", width)
	}
	d := &Design{
		Width:   width,
		ScanIn:  make([]int, width),
		ScanOut: make([]int, width),
	}

	// Step 1: BFD placement of internal scan chains. Scan flip-flops
	// count toward both scan-in and scan-out length.
	chains := append([]int(nil), c.ScanChains...)
	sort.Sort(sort.Reverse(sort.IntSlice(chains)))
	internal := make([]int, width)
	for _, l := range chains {
		best := 0
		for i := 1; i < width; i++ {
			if internal[i] < internal[best] {
				best = i
			}
		}
		internal[best] += l
	}
	copy(d.ScanIn, internal)
	copy(d.ScanOut, internal)

	// Step 2: distribute wrapper input cells (inputs + bidirs) to the
	// wrapper chains, always extending the shortest scan-in chain.
	distribute(d.ScanIn, c.WIC())

	// Step 3: distribute wrapper output cells likewise on scan-out.
	distribute(d.ScanOut, c.WOC())

	return d, nil
}

// distribute adds n unit-length cells one by one to the shortest chain.
// Because all cells have length 1, this greedy pass yields an optimal
// balancing of the cells over the given base lengths.
func distribute(chain []int, n int) {
	if len(chain) == 0 {
		return
	}
	// Fast path: repeatedly raise the minimum. Equivalent to adding one
	// cell at a time to the shortest chain, but O(w log w + w) instead
	// of O(n·w).
	idx := make([]int, len(chain))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return chain[idx[a]] < chain[idx[b]] })
	for n > 0 {
		// Raise the current minimum level to the next level, spending
		// cells across all chains at the minimum.
		lvl := chain[idx[0]]
		cnt := 0
		for cnt < len(idx) && chain[idx[cnt]] == lvl {
			cnt++
		}
		var next int
		if cnt < len(idx) {
			next = chain[idx[cnt]]
		} else {
			// All equal: spread the remainder round-robin.
			q, r := n/len(chain), n%len(chain)
			for i := range chain {
				chain[i] += q
				if i < r {
					chain[i]++
				}
			}
			return
		}
		need := (next - lvl) * cnt
		if need > n {
			q, r := n/cnt, n%cnt
			for i := 0; i < cnt; i++ {
				chain[idx[i]] += q
				if i < r {
					chain[idx[i]]++
				}
			}
			return
		}
		for i := 0; i < cnt; i++ {
			chain[idx[i]] = next
		}
		n -= need
	}
}

// InTestTime returns the InTest time of core c at TAM width w:
// Combine(c, w).TestTime(c.Patterns), computed as NewTimeTable computes
// it, without building the design. The core must be valid
// (soc.Core.Validate).
func InTestTime(c *soc.Core, w int) (int64, error) {
	if w < 1 {
		return 0, fmt.Errorf("wrapper: width must be >= 1, got %d", w)
	}
	if err := c.Validate(); err != nil {
		return 0, fmt.Errorf("wrapper: %w", err)
	}
	var k kernel
	k.load(c)
	return k.time(w), nil
}

// kernel computes one core's InTest time at any width, with the result
// of Combine and without building a Design. TestTime reads only the
// longest scan-in and scan-out chains, and those follow from two
// numbers:
//
//   - L, the longest wrapper chain after Best Fit Decreasing places the
//     internal scan chains. Which of several least-loaded wrapper
//     chains takes a scan chain does not change the multiset of loads,
//     so a min-heap of loads yields Combine's multiset.
//   - S, the total of those loads: all the core's scan flip-flops.
//
// distribute then raises the shortest chains like a water level. With
// n unit cells on w chains the longest chain is L while the cells fit
// below it (n <= w·L − S), and ⌈(S+n)/w⌉ once every chain has reached
// L. So the longest scan-in chain is max(L, ⌈(S+WIC)/w⌉) and the
// longest scan-out chain max(L, ⌈(S+WOC)/w⌉).
type kernel struct {
	c      *soc.Core
	chains []int // the core's scan chains, ascending
	heap   []int // Best Fit Decreasing's loads, a min-heap
	scan   int   // S
}

// load points the kernel at core c, whose scan chain lengths are
// positive (soc.Core.Validate).
func (k *kernel) load(c *soc.Core) {
	k.c = c
	k.chains = append(k.chains[:0], c.ScanChains...)
	slices.Sort(k.chains)
	k.scan = c.ScanBits()
}

// time returns the core's InTest time at width w >= 1.
func (k *kernel) time(w int) int64 {
	l := k.longestLoad(w)
	si := max(l, (k.scan+k.c.WIC()+w-1)/w)
	so := max(l, (k.scan+k.c.WOC()+w-1)/w)
	return testTime(si, so, k.c.Patterns)
}

// longestLoad returns L at width w: the longest of w wrapper chains
// after Best Fit Decreasing places the scan chains on them.
func (k *kernel) longestLoad(w int) int {
	n := len(k.chains)
	if n == 0 {
		return 0
	}
	if w >= n {
		return k.chains[n-1]
	}
	// The w longest scan chains each open an empty wrapper chain, as
	// their lengths are positive. Ascending, they already form a
	// min-heap; each further chain, longest first, extends the root.
	h := append(k.heap[:0], k.chains[n-w:]...)
	l := h[w-1]
	for i := n - w - 1; i >= 0; i-- {
		h[0] += k.chains[i]
		l = max(l, h[0])
		for j := 0; ; {
			m := 2*j + 1
			if m >= w {
				break
			}
			if m+1 < w && h[m+1] < h[m] {
				m++
			}
			if h[j] <= h[m] {
				break
			}
			h[j], h[m] = h[m], h[j]
			j = m
		}
	}
	k.heap = h
	return l
}

// TimeTable precomputes InTest times for a set of cores at every width
// from 1 to maxWidth. It is the lookup structure the TAM optimizers use
// so that architecture evaluation never re-runs wrapper design.
type TimeTable struct {
	maxWidth int
	byCore   [][]int64 // core ID -> [width-1] -> time; nil for IDs not in the SOC
}

// NewTimeTable builds the table for all cores of s, one pass per core
// (see kernel). Every entry equals Combine(c, w).TestTime(c.Patterns).
// The cores must be valid (soc.Core.Validate); the table is indexed
// densely by core ID, which soc.MaxCoreID bounds.
func NewTimeTable(s *soc.SOC, maxWidth int) (*TimeTable, error) {
	if maxWidth < 1 {
		return nil, fmt.Errorf("wrapper: maxWidth must be >= 1, got %d", maxWidth)
	}
	n := 0
	for _, c := range s.Cores() {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("wrapper: %w", err)
		}
		n = max(n, c.ID+1)
	}
	t := &TimeTable{maxWidth: maxWidth, byCore: make([][]int64, n)}
	times := make([]int64, s.NumCores()*maxWidth)
	var k kernel
	for i, c := range s.Cores() {
		row := times[i*maxWidth : (i+1)*maxWidth : (i+1)*maxWidth]
		k.load(c)
		for w := range row {
			row[w] = k.time(w + 1)
		}
		t.byCore[c.ID] = row
	}
	return t, nil
}

// MaxWidth returns the largest width the table covers.
func (t *TimeTable) MaxWidth() int { return t.maxWidth }

// Time returns the InTest time of the core with the given ID at width w.
// Widths above the table's maximum clamp to the maximum: InTest time is
// non-increasing in width, and the extra wires beyond maxWidth cannot
// help a single core more than maxWidth wires do.
func (t *TimeTable) Time(coreID, w int) int64 {
	if coreID < 0 || coreID >= len(t.byCore) || t.byCore[coreID] == nil {
		panic(fmt.Sprintf("wrapper: TimeTable has no core %d", coreID))
	}
	if w < 1 {
		panic(fmt.Sprintf("wrapper: width %d < 1", w))
	}
	if w > t.maxWidth {
		w = t.maxWidth
	}
	return t.byCore[coreID][w-1]
}

// SIDesign describes the wrapper configuration used in SI (ExTest)
// mode: wrapper scan chains contain boundary cells only, split into
// balanced input-cell chains (loading receiver-side sensor
// configuration) and output-cell chains (loading the transition
// stimuli).
type SIDesign struct {
	Width     int
	InChains  []int // balanced WIC chain lengths
	OutChains []int // balanced WOC chain lengths
}

// NewSIDesign balances a core's boundary cells over w wrapper chains
// for SI test mode.
func NewSIDesign(c *soc.Core, w int) (*SIDesign, error) {
	if w < 1 {
		return nil, fmt.Errorf("wrapper: width must be >= 1, got %d", w)
	}
	d := &SIDesign{Width: w, InChains: make([]int, w), OutChains: make([]int, w)}
	distribute(d.InChains, c.WIC())
	distribute(d.OutChains, c.WOC())
	return d, nil
}

// ShiftCycles returns the cycles needed to shift one SI stimulus
// through the output chains: the longest WOC chain. It always equals
// SIShiftCycles(c.WOC(), w) — balanced unit-cell chains are exactly the
// ceiling division — and the redundancy is checked in tests.
func (d *SIDesign) ShiftCycles() int64 {
	return int64(maxOf(d.OutChains))
}

// SIShiftCycles returns the per-pattern shift cycle count contributed by a
// core with nWOC wrapper output cells on a rail of width w in SI test
// mode. In SI mode the wrapper scan chains contain wrapper cells only and
// are balanced, so shifting one pattern through the core's boundary costs
// ceil(nWOC / w) cycles on the rail.
func SIShiftCycles(nWOC, w int) int64 {
	if w < 1 {
		panic(fmt.Sprintf("wrapper: width %d < 1", w))
	}
	return int64((nWOC + w - 1) / w)
}
