package wrapper

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sitam/internal/soc"
)

func testCore() *soc.Core {
	return &soc.Core{ID: 1, Inputs: 10, Outputs: 8, Bidirs: 2, ScanChains: []int{30, 20, 10, 5}, Patterns: 100}
}

func TestCombineWidthOne(t *testing.T) {
	c := testCore()
	d, err := Combine(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Everything concatenates on one chain.
	wantIn := c.ScanBits() + c.WIC()  // 65 + 12
	wantOut := c.ScanBits() + c.WOC() // 65 + 10
	if d.MaxScanIn() != wantIn {
		t.Errorf("MaxScanIn = %d, want %d", d.MaxScanIn(), wantIn)
	}
	if d.MaxScanOut() != wantOut {
		t.Errorf("MaxScanOut = %d, want %d", d.MaxScanOut(), wantOut)
	}
}

func TestCombineRejectsBadWidth(t *testing.T) {
	if _, err := Combine(testCore(), 0); err == nil {
		t.Error("Combine accepted width 0")
	}
	if _, err := Combine(testCore(), -3); err == nil {
		t.Error("Combine accepted negative width")
	}
}

func TestCombinePreservesCells(t *testing.T) {
	c := testCore()
	for w := 1; w <= 8; w++ {
		d, err := Combine(c, w)
		if err != nil {
			t.Fatal(err)
		}
		sumIn, sumOut := 0, 0
		for i := 0; i < w; i++ {
			sumIn += d.ScanIn[i]
			sumOut += d.ScanOut[i]
		}
		if sumIn != c.ScanBits()+c.WIC() {
			t.Errorf("w=%d: scan-in cells %d, want %d", w, sumIn, c.ScanBits()+c.WIC())
		}
		if sumOut != c.ScanBits()+c.WOC() {
			t.Errorf("w=%d: scan-out cells %d, want %d", w, sumOut, c.ScanBits()+c.WOC())
		}
	}
}

func TestCombineBottleneckChain(t *testing.T) {
	// A single long chain bounds the wrapper scan length from below no
	// matter how wide the TAM is.
	c := &soc.Core{ID: 1, Inputs: 4, Outputs: 4, ScanChains: []int{100, 5, 5}, Patterns: 10}
	for _, w := range []int{3, 8, 64} {
		d, err := Combine(c, w)
		if err != nil {
			t.Fatal(err)
		}
		if d.MaxScanIn() < 100 || d.MaxScanOut() < 100 {
			t.Errorf("w=%d: max chain (%d,%d) below the 100-FF chain", w, d.MaxScanIn(), d.MaxScanOut())
		}
	}
}

func TestTestTimeFormula(t *testing.T) {
	d := &Design{Width: 2, ScanIn: []int{10, 8}, ScanOut: []int{7, 6}}
	// T = (1+max(10,7))*p + min(10,7) = 11p + 7
	if got := d.TestTime(5); got != 11*5+7 {
		t.Errorf("TestTime(5) = %d, want %d", got, 11*5+7)
	}
	if got := d.TestTime(0); got != 0 {
		t.Errorf("TestTime(0) = %d, want 0", got)
	}
}

func TestInTestTimeMonotonicInWidth(t *testing.T) {
	for _, c := range soc.MustLoadBenchmark("p34392").Cores() {
		prev := int64(-1)
		for w := 1; w <= 40; w++ {
			tt, err := InTestTime(c, w)
			if err != nil {
				t.Fatal(err)
			}
			if prev >= 0 && tt > prev {
				t.Errorf("core %d: InTest time increased from %d to %d at width %d", c.ID, prev, tt, w)
			}
			prev = tt
		}
	}
}

func TestCombineBalanceProperty(t *testing.T) {
	// Property: after distributing unit cells, the chain lengths differ
	// by at most the largest single placed item (for the IO cells, 1,
	// unless a scan chain forces imbalance).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nChains := 1 + rng.Intn(6)
		chains := make([]int, nChains)
		maxChain := 0
		for i := range chains {
			chains[i] = 1 + rng.Intn(50)
			if chains[i] > maxChain {
				maxChain = chains[i]
			}
		}
		c := &soc.Core{
			ID:         1,
			Inputs:     rng.Intn(100),
			Outputs:    1 + rng.Intn(100),
			ScanChains: chains,
			Patterns:   1 + rng.Intn(50),
		}
		w := 1 + rng.Intn(10)
		d, err := Combine(c, w)
		if err != nil {
			return false
		}
		// Lengths are non-negative and the spread of scan-in lengths is
		// bounded by the longest internal chain (BFD guarantee for item
		// sizes <= maxChain) when there are at least as many items as
		// chains; always bounded by max(maxChain, total).
		minIn, maxIn := d.ScanIn[0], d.ScanIn[0]
		for _, l := range d.ScanIn {
			if l < 0 {
				return false
			}
			if l < minIn {
				minIn = l
			}
			if l > maxIn {
				maxIn = l
			}
		}
		if minIn > 0 && maxIn-minIn > maxChain {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDistributeExact(t *testing.T) {
	cases := []struct {
		base []int
		n    int
		want []int
	}{
		{[]int{0, 0, 0}, 7, []int{3, 2, 2}},
		{[]int{5, 0, 0}, 4, []int{5, 2, 2}},
		{[]int{5, 0, 0}, 12, []int{6, 6, 5}},
		{[]int{3, 3, 3}, 0, []int{3, 3, 3}},
		{[]int{10, 1}, 2, []int{10, 3}},
	}
	for _, tc := range cases {
		got := append([]int(nil), tc.base...)
		distribute(got, tc.n)
		sumGot, sumWant := 0, 0
		maxGot, maxWant := 0, 0
		for i := range got {
			sumGot += got[i]
			sumWant += tc.want[i]
			if got[i] > maxGot {
				maxGot = got[i]
			}
			if tc.want[i] > maxWant {
				maxWant = tc.want[i]
			}
		}
		if sumGot != sumWant || maxGot != maxWant {
			t.Errorf("distribute(%v, %d) = %v, want balance like %v", tc.base, tc.n, got, tc.want)
		}
	}
}

// combineTime is Combine(c, w).TestTime(c.Patterns), the oracle the
// table and InTestTime are held to.
func combineTime(t *testing.T, c *soc.Core, w int) int64 {
	t.Helper()
	d, err := Combine(c, w)
	if err != nil {
		t.Fatal(err)
	}
	return d.TestTime(c.Patterns)
}

// checkTable holds every entry of s's table at widths 1 to maxWidth, and
// InTestTime, to Combine, and a width above the maximum to the clamp.
func checkTable(t *testing.T, s *soc.SOC, maxWidth int) {
	t.Helper()
	tt, err := NewTimeTable(s, maxWidth)
	if err != nil {
		t.Fatal(err)
	}
	if tt.MaxWidth() != maxWidth {
		t.Errorf("%s: MaxWidth = %d", s.Name, tt.MaxWidth())
	}
	for _, c := range s.Cores() {
		for w := 1; w <= maxWidth; w++ {
			want := combineTime(t, c, w)
			if got := tt.Time(c.ID, w); got != want {
				t.Fatalf("%s: Time(%d,%d) = %d, Combine %d (core %+v)", s.Name, c.ID, w, got, want, c)
			}
			if got, err := InTestTime(c, w); err != nil || got != want {
				t.Fatalf("%s: InTestTime(%d,%d) = %d, %v, Combine %d (core %+v)", s.Name, c.ID, w, got, err, want, c)
			}
		}
		if got := tt.Time(c.ID, maxWidth+37); got != tt.Time(c.ID, maxWidth) {
			t.Errorf("%s: Time(%d,%d) = %d, want clamp to width %d = %d", s.Name, c.ID, maxWidth+37, got, maxWidth, tt.Time(c.ID, maxWidth))
		}
	}
}

// TestTimeTable holds the tables of the three embedded SOCs at widths 1
// to 128 to Combine.
func TestTimeTable(t *testing.T) {
	for _, name := range soc.Benchmarks() {
		checkTable(t, soc.MustLoadBenchmark(name), 128)
	}
}

// FuzzTimeTableMatchesCombine is TestTimeTable over random SOCs of one
// to eight cores, with and without scan chains, with zero patterns,
// with tied chain lengths, and at widths beyond their chain and cell
// counts.
func FuzzTimeTableMatchesCombine(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(63))
	f.Add(int64(2), uint8(0), uint8(0))
	f.Add(int64(3), uint8(7), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, cores, maxWidth uint8) {
		rng := rand.New(rand.NewSource(seed))
		s := &soc.SOC{Name: "fuzz"}
		for i := 0; i <= int(cores%8); i++ {
			c := &soc.Core{
				ID:      1 + 5*i + rng.Intn(5),
				Inputs:  rng.Intn(300),
				Outputs: rng.Intn(300),
				Bidirs:  rng.Intn(2) * rng.Intn(40),
			}
			if rng.Intn(4) > 0 {
				c.Patterns = rng.Intn(2000)
			}
			// Narrow spans tie many chains; a third of the cores has
			// none.
			span := 1 << rng.Intn(13)
			for n := rng.Intn(3) * rng.Intn(40); n > 0; n-- {
				c.ScanChains = append(c.ScanChains, 1+rng.Intn(span))
			}
			if c.Terminals() == 0 && len(c.ScanChains) == 0 {
				c.Outputs = 1
			}
			s.CoreList = append(s.CoreList, c)
		}
		checkTable(t, s, 1+int(maxWidth))
	})
}

func TestTimeTablePanics(t *testing.T) {
	s := soc.MustLoadBenchmark("p34392")
	tt, err := NewTimeTable(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "unknown core", func() { tt.Time(999, 1) })
	mustPanic(t, "width 0", func() { tt.Time(1, 0) })
	if _, err := NewTimeTable(s, 0); err == nil {
		t.Error("NewTimeTable accepted maxWidth 0")
	}
}

// TestTimeTableRejectsInvalidCores pins the kernel's precondition:
// NewTimeTable and InTestTime refuse a core Core.Validate refuses, such
// as one whose ID would size the dense index past soc.MaxCoreID or one
// with a scan chain of length 0.
func TestTimeTableRejectsInvalidCores(t *testing.T) {
	for name, c := range map[string]*soc.Core{
		"ID above MaxCoreID": {ID: soc.MaxCoreID + 1, Inputs: 1, Outputs: 1, Patterns: 1},
		"empty scan chain":   {ID: 1, Inputs: 1, Outputs: 1, ScanChains: []int{4, 0}, Patterns: 1},
	} {
		if _, err := NewTimeTable(&soc.SOC{Name: "bad", CoreList: []*soc.Core{c}}, 8); err == nil {
			t.Errorf("%s: NewTimeTable accepted %+v", name, c)
		}
		if _, err := InTestTime(c, 8); err == nil {
			t.Errorf("%s: InTestTime accepted %+v", name, c)
		}
	}
}

func TestSIShiftCycles(t *testing.T) {
	cases := []struct {
		woc, w int
		want   int64
	}{
		{32, 1, 32},
		{32, 8, 4},
		{33, 8, 5},
		{0, 8, 0},
		{7, 64, 1},
	}
	for _, tc := range cases {
		if got := SIShiftCycles(tc.woc, tc.w); got != tc.want {
			t.Errorf("SIShiftCycles(%d,%d) = %d, want %d", tc.woc, tc.w, got, tc.want)
		}
	}
	mustPanic(t, "zero width", func() { SIShiftCycles(8, 0) })
}

func TestSIDesignMatchesShiftFormula(t *testing.T) {
	f := func(out uint16, in uint16, w uint8) bool {
		width := 1 + int(w%32)
		c := &soc.Core{ID: 1, Inputs: int(in % 500), Outputs: 1 + int(out%500), Patterns: 1}
		d, err := NewSIDesign(c, width)
		if err != nil {
			return false
		}
		sumIn, sumOut := 0, 0
		for i := 0; i < width; i++ {
			sumIn += d.InChains[i]
			sumOut += d.OutChains[i]
		}
		if sumIn != c.WIC() || sumOut != c.WOC() {
			return false
		}
		return d.ShiftCycles() == SIShiftCycles(c.WOC(), width)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if _, err := NewSIDesign(testCore(), 0); err == nil {
		t.Error("NewSIDesign accepted width 0")
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// TestInTestTimeRejectsBadWidth pins the error contract for widths
// below 1: callers get an error, not a panic, so untrusted width input
// cannot crash a CLI or embedding process.
func TestInTestTimeRejectsBadWidth(t *testing.T) {
	for _, w := range []int{0, -1, -100} {
		if _, err := InTestTime(testCore(), w); err == nil {
			t.Errorf("InTestTime(width=%d) accepted, want error", w)
		}
	}
}
