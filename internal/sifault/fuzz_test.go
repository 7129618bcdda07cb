package sifault

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadPatterns checks that the pattern parser never panics and that
// accepted inputs survive a write/reparse round trip.
func FuzzReadPatterns(f *testing.F) {
	f.Add("space 10 4\np w=2 v=3 vc=1 care=3:u,4:0 bus=0:1\n")
	f.Add("# c\nspace 1 0\np\n")
	f.Add("space 10 4\np care=0:u care=1:d\n")
	f.Add("space -5 -5\n")
	f.Add("p w=1\nspace 10 4\n")
	f.Fuzz(func(t *testing.T, text string) {
		total, bus, patterns, err := ReadPatterns(strings.NewReader(text))
		if err != nil {
			return
		}
		if total < 0 || bus < 0 {
			// The parser does not reject negative dimensions outright
			// (patterns just can't reference any position), but they
			// must not crash the writer below either.
			return
		}
		// Round trip through a synthetic space of the declared size.
		// WritePatterns reads only the dimensions, so the space leaves
		// out the position-to-core table, which a fuzzed total could
		// make arbitrarily large.
		sp := &Space{order: []int{1}, starts: []int{0, total}, busWidth: bus}
		var buf bytes.Buffer
		if err := WritePatterns(&buf, sp, patterns); err != nil {
			t.Fatalf("WritePatterns: %v", err)
		}
		t2, b2, p2, err := ReadPatterns(&buf)
		if err != nil {
			t.Fatalf("reparse: %v\n%s", err, buf.String())
		}
		if t2 != total || b2 != bus || len(p2) != len(patterns) {
			t.Fatalf("round trip changed shape: (%d,%d,%d) vs (%d,%d,%d)",
				t2, b2, len(p2), total, bus, len(patterns))
		}
		for i := range p2 {
			if p2[i].Weight != patterns[i].Weight || len(p2[i].Care) != len(patterns[i].Care) {
				t.Fatalf("pattern %d changed in round trip", i)
			}
		}
	})
}
