package soc

import (
	"bytes"
	"strings"
	"testing"
)

func TestCoreDerivedCounts(t *testing.T) {
	c := &Core{ID: 1, Inputs: 10, Outputs: 7, Bidirs: 3, ScanChains: []int{5, 6, 7}, Patterns: 42}
	if got := c.ScanBits(); got != 18 {
		t.Errorf("ScanBits = %d, want 18", got)
	}
	if got := c.WIC(); got != 13 {
		t.Errorf("WIC = %d, want 13", got)
	}
	if got := c.WOC(); got != 10 {
		t.Errorf("WOC = %d, want 10", got)
	}
	if got := c.Terminals(); got != 23 {
		t.Errorf("Terminals = %d, want 23", got)
	}
}

func TestCoreValidate(t *testing.T) {
	cases := []struct {
		name string
		core Core
		ok   bool
	}{
		{"valid scan core", Core{ID: 1, Inputs: 2, Outputs: 2, ScanChains: []int{3}, Patterns: 1}, true},
		{"valid combinational", Core{ID: 1, Inputs: 2, Outputs: 2, Patterns: 5}, true},
		{"negative id", Core{ID: -1, Inputs: 1, Outputs: 1}, false},
		{"largest id", Core{ID: MaxCoreID, Inputs: 1, Outputs: 1}, true},
		{"id above MaxCoreID", Core{ID: MaxCoreID + 1, Inputs: 1, Outputs: 1}, false},
		{"negative inputs", Core{ID: 1, Inputs: -2, Outputs: 2}, false},
		{"negative patterns", Core{ID: 1, Inputs: 1, Outputs: 1, Patterns: -1}, false},
		{"zero-length chain", Core{ID: 1, Inputs: 1, Outputs: 1, ScanChains: []int{0}}, false},
		{"empty core", Core{ID: 1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.core.Validate()
			if (err == nil) != tc.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestSOCValidateDuplicateID(t *testing.T) {
	s := &SOC{
		Name: "dup",
		CoreList: []*Core{
			{ID: 1, Inputs: 1, Outputs: 1, Patterns: 1},
			{ID: 1, Inputs: 2, Outputs: 2, Patterns: 1},
		},
	}
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted duplicate core IDs")
	}
}

const sampleSOC = `
# sample
SocName demo
BusWidth 16
TotalModules 3

Module 0
  Name top
  Inputs 4
  Outputs 4
  Bidirs 0

Module 1
  Inputs 6
  Outputs 5
  Bidirs 1
  ScanChains 2 : 10 12
  Patterns 33

Module 2
  Inputs 3
  Outputs 2
  Bidirs 0
  Patterns 7
`

func TestParseSample(t *testing.T) {
	s, err := ParseString(sampleSOC)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "demo" {
		t.Errorf("Name = %q", s.Name)
	}
	if s.BusWidth != 16 {
		t.Errorf("BusWidth = %d, want 16", s.BusWidth)
	}
	if s.Top == nil || s.Top.Name != "top" || s.Top.Inputs != 4 {
		t.Errorf("Top = %+v", s.Top)
	}
	if s.NumCores() != 2 {
		t.Fatalf("NumCores = %d, want 2", s.NumCores())
	}
	c1 := s.CoreByID(1)
	if c1 == nil || c1.Inputs != 6 || c1.Outputs != 5 || c1.Bidirs != 1 || c1.Patterns != 33 {
		t.Errorf("core 1 = %+v", c1)
	}
	if len(c1.ScanChains) != 2 || c1.ScanChains[0] != 10 || c1.ScanChains[1] != 12 {
		t.Errorf("core 1 chains = %v", c1.ScanChains)
	}
	if got := s.TotalWOC(); got != 6+2 {
		t.Errorf("TotalWOC = %d, want 8", got)
	}
	if s.CoreByID(99) != nil {
		t.Error("CoreByID(99) should be nil")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, text string }{
		{"unknown key", "SocName x\nBogus 3\n"},
		{"inputs outside module", "SocName x\nInputs 3\n"},
		{"bad int", "SocName x\nModule one\n"},
		{"chain count mismatch", "SocName x\nModule 1\nInputs 1\nOutputs 1\nScanChains 3 : 1 2\nPatterns 1\n"},
		{"bad chain length", "SocName x\nModule 1\nInputs 1\nOutputs 1\nScanChains 1 : -5\nPatterns 1\n"},
		{"missing colon", "SocName x\nModule 1\nInputs 1\nOutputs 1\nScanChains 1 5\nPatterns 1\n"},
		{"totalmodules mismatch", "SocName x\nTotalModules 5\nModule 1\nInputs 1\nOutputs 1\nPatterns 1\n"},
		{"negative buswidth", "SocName x\nBusWidth -4\nModule 1\nInputs 1\nOutputs 1\nPatterns 1\n"},
		{"no cores", "SocName x\n"},
		{"empty name", "Module 1\nInputs 1\nOutputs 1\nPatterns 1\n"},
		{"module number above MaxCoreID", "SocName x\nModule 1\nInputs 1\nOutputs 1\nPatterns 1\nModule 4000000\nInputs 1\nOutputs 2\nPatterns 1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseString(tc.text); err == nil {
				t.Errorf("ParseString accepted %q", tc.text)
			}
		})
	}
}

func TestParseMultiTestModule(t *testing.T) {
	// The original ITC'02 files use "Module 1:" / "Test 1:" headers and
	// per-test ScanUse/TamUse/Patterns lines.
	text := `
SocName multi
Module 1:
  Inputs 4
  Outputs 4
  ScanChains 2 : 10 12
  TotalTests 2
  Test 1:
    ScanUse 1
    TamUse 1
    Patterns 30
  Test 2:
    ScanUse 0
    TamUse 1
    Patterns 12
`
	s, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	c := s.CoreByID(1)
	if c.Patterns != 42 {
		t.Errorf("Patterns = %d, want 42 (sum of tests)", c.Patterns)
	}
	if len(c.Tests) != 2 {
		t.Fatalf("Tests = %v", c.Tests)
	}
	if !c.Tests[0].ScanUse || !c.Tests[0].TamUse || c.Tests[0].Patterns != 30 {
		t.Errorf("test 1 = %+v", c.Tests[0])
	}
	if c.Tests[1].ScanUse || c.Tests[1].Patterns != 12 {
		t.Errorf("test 2 = %+v", c.Tests[1])
	}
}

func TestParseMultiTestErrors(t *testing.T) {
	cases := []struct{ name, text string }{
		{"test count mismatch", "SocName x\nModule 1\nInputs 1\nOutputs 1\nTotalTests 3\nTest 1:\nPatterns 5\n"},
		{"scanuse outside test", "SocName x\nModule 1\nInputs 1\nOutputs 1\nScanUse 1\nPatterns 1\n"},
		{"bad scanuse value", "SocName x\nModule 1\nInputs 1\nOutputs 1\nTest 1:\nScanUse 2\nPatterns 1\n"},
		{"test outside module", "SocName x\nTest 1:\n"},
		{"totaltests outside module", "SocName x\nTotalTests 1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseString(tc.text); err == nil {
				t.Errorf("accepted %q", tc.text)
			}
		})
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	s, err := ParseString(sampleSOC)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(&buf)
	if err != nil {
		t.Fatalf("reparse: %v\ntext:\n%s", err, buf.String())
	}
	if s2.Name != s.Name || s2.BusWidth != s.BusWidth || s2.NumCores() != s.NumCores() {
		t.Errorf("round trip mismatch: %v vs %v", s2.Summary(), s.Summary())
	}
	for _, c := range s.Cores() {
		c2 := s2.CoreByID(c.ID)
		if c2 == nil {
			t.Fatalf("core %d lost in round trip", c.ID)
		}
		if c2.Inputs != c.Inputs || c2.Outputs != c.Outputs || c2.Bidirs != c.Bidirs ||
			c2.Patterns != c.Patterns || len(c2.ScanChains) != len(c.ScanChains) {
			t.Errorf("core %d mismatch: %+v vs %+v", c.ID, c2, c)
		}
	}
}

func TestBenchmarksEmbedded(t *testing.T) {
	names := Benchmarks()
	if len(names) != 3 {
		t.Fatalf("Benchmarks() = %v, want d695, p34392 and p93791", names)
	}
	for _, name := range names {
		s, err := LoadBenchmark(name)
		if err != nil {
			t.Fatalf("LoadBenchmark(%s): %v", name, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if s.BusWidth != 32 {
			t.Errorf("%s: BusWidth = %d, want 32 (paper setup)", name, s.BusWidth)
		}
	}
	p34392 := MustLoadBenchmark("p34392")
	if p34392.NumCores() != 19 {
		t.Errorf("p34392 has %d cores, want 19", p34392.NumCores())
	}
	p93791 := MustLoadBenchmark("p93791")
	if p93791.NumCores() != 32 {
		t.Errorf("p93791 has %d cores, want 32", p93791.NumCores())
	}
	d695 := MustLoadBenchmark("d695")
	if d695.NumCores() != 10 {
		t.Errorf("d695 has %d cores, want 10", d695.NumCores())
	}
	if d695.CoreByID(1).Name != "c6288" || len(d695.CoreByID(1).ScanChains) != 0 {
		t.Errorf("d695 core 1 should be the combinational c6288: %+v", d695.CoreByID(1))
	}
	if _, err := LoadBenchmark("nonexistent"); err == nil {
		t.Error("LoadBenchmark accepted unknown name")
	}
}

func TestSummaryAndString(t *testing.T) {
	s := MustLoadBenchmark("p34392")
	sum := s.Summary()
	for _, want := range []string{"p34392", "19 cores", "32-bit bus"} {
		if !strings.Contains(sum, want) {
			t.Errorf("Summary %q missing %q", sum, want)
		}
	}
	if !strings.Contains(s.String(), "core 18") {
		t.Errorf("String() missing core 18 line:\n%s", s.String())
	}
	ids := s.SortedIDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("SortedIDs not ascending: %v", ids)
		}
	}
}
