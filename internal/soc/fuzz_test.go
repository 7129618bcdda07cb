package soc

import (
	"bytes"
	"testing"
)

// FuzzParse checks that the .soc parser never panics and that anything
// it accepts survives a write/reparse round trip.
func FuzzParse(f *testing.F) {
	f.Add(sampleSOC)
	f.Add("SocName x\nModule 1\nInputs 1\nOutputs 1\nPatterns 1\n")
	f.Add("SocName x\nBusWidth 0\nModule 1\nInputs 1\nOutputs 2\nScanChains 2 : 3 4\nPatterns 9\n")
	f.Add("# only a comment\n")
	f.Add("SocName \x00weird\nModule -1\n")
	f.Add("Module 1\nScanChains 1 : 99999999999999999999\n")
	f.Add("SocName x\nModule 1\nInputs 1\nOutputs 1\nPatterns 1\nModule 2\nOutputs 2\nPatterns 1\n" +
		"Constraints\nPowerBudget 10\nCorePower 1 4\nPrecede 1 2\nExclude 1 2\n")
	f.Add("SocName cyc\nModule 1\nOutputs 1\nModule 2\nOutputs 1\nConstraints\nPrecede 1 2\nPrecede 2 1\n")
	f.Add("SocName bad\nModule 1\nOutputs 1\nConstraints\nPrecede 1 99\n")
	f.Add("SocName bad\nModule 1\nOutputs 1\nConstraints\nExclude 1\n")
	f.Add("SocName bad\nModule 1\nOutputs 1\nPowerBudget 5\n")
	f.Add("SocName x\nModule 1\nOutputs 1\nConstraints\nConstraints\nPowerBudget 1\n")
	f.Add("SocName big\nModule 1\nInputs 1\nOutputs 1\nPatterns 1\nModule 4000000\nInputs 1\nOutputs 2\nPatterns 1\n")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseString(text)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Parse accepted an invalid SOC: %v", err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			t.Fatalf("Write failed on parsed SOC: %v", err)
		}
		s2, err := Parse(&buf)
		if err != nil {
			t.Fatalf("reparse failed: %v\n%s", err, buf.String())
		}
		if s2.NumCores() != s.NumCores() || s2.BusWidth != s.BusWidth {
			t.Fatalf("round trip changed the SOC: %s vs %s", s2.Summary(), s.Summary())
		}
		// Constraints must survive the round trip too. The writer omits
		// an all-defaults stanza, so compare through Empty() first.
		if s.Constraints.Empty() != s2.Constraints.Empty() {
			t.Fatalf("round trip changed constraint emptiness:\n%s", buf.String())
		}
		if !s.Constraints.Empty() {
			var b1, b2 bytes.Buffer
			Write(&b1, s)
			Write(&b2, s2)
			if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
				t.Fatalf("constraints round trip not a fixed point:\n%s\nvs\n%s", b1.String(), b2.String())
			}
		}
	})
}
