package soc

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The .soc format accepted by Parse is a line-oriented, whitespace-separated
// description modeled on the ITC'02 SOC Test Benchmarks distribution:
//
//	SocName p34392
//	BusWidth 32            # optional, defaults to 32
//	TotalModules 20
//
//	Module 0               # SOC top level: terminals only
//	  Name top
//	  Inputs 32
//	  Outputs 32
//	  Bidirs 0
//
//	Module 1
//	  Inputs 117
//	  Outputs 18
//	  Bidirs 0
//	  ScanChains 4 : 201 199 198 198
//	  Patterns 210
//
// '#' starts a comment that runs to end of line. Keys are case-insensitive.
// "ScanChains n : l1 ... ln" lists the n internal scan-chain lengths; a
// module line without ScanChains describes a combinational core. Module 0,
// when present, is stored as SOC.Top and excluded from Cores(). Module
// numbers run from 0 to MaxCoreID.
//
// An optional Constraints stanza describes test-floor scheduling
// constraints (see ConstraintSet). The bare "Constraints" marker line
// closes any open Module block; the stanza keys are only legal inside it:
//
//	Constraints
//	  PowerBudget 500        # peak concurrent test power, 0 = unlimited
//	  CorePower 3 120        # override core 3's power (default: its WOC)
//	  Precede 1 2            # core 1's SI groups finish before core 2's start
//	  Exclude 3 4 5          # no two groups covering these may overlap

// Parse reads an SOC description in the .soc format from r.
func Parse(r io.Reader) (*SOC, error) {
	s := &SOC{BusWidth: DefaultBusWidth}
	var cur *Core
	var curTest *CoreTest
	inCons := false
	declaredTests := make(map[*Core]int)
	total := -1

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		key := strings.ToLower(fields[0])
		args := fields[1:]
		fail := func(format string, a ...any) error {
			return fmt.Errorf("soc parse: line %d: %s", lineno, fmt.Sprintf(format, a...))
		}
		needInt := func(what string) (int, error) {
			if len(args) != 1 {
				return 0, fail("%s expects one integer argument, got %d", what, len(args))
			}
			// The original ITC'02 files write "Module 1:" and
			// "Test 1:" with a trailing colon; tolerate it.
			v, err := strconv.Atoi(strings.TrimSuffix(args[0], ":"))
			if err != nil {
				return 0, fail("%s: bad integer %q", what, args[0])
			}
			return v, nil
		}
		// needInts parses exactly n integer arguments (any number when
		// n < 0). Used by the Constraints stanza keys.
		needInts := func(what string, n int) ([]int, error) {
			if n >= 0 && len(args) != n {
				return nil, fail("%s expects %d integer arguments, got %d", what, n, len(args))
			}
			vs := make([]int, len(args))
			for i, a := range args {
				v, err := strconv.Atoi(a)
				if err != nil {
					return nil, fail("%s: bad integer %q", what, a)
				}
				vs[i] = v
			}
			return vs, nil
		}

		switch key {
		case "socname":
			if len(args) != 1 {
				return nil, fail("SocName expects one argument")
			}
			s.Name = args[0]
		case "buswidth":
			v, err := needInt("BusWidth")
			if err != nil {
				return nil, err
			}
			if v < 0 {
				return nil, fail("BusWidth must be non-negative, got %d", v)
			}
			s.BusWidth = v
		case "totalmodules":
			v, err := needInt("TotalModules")
			if err != nil {
				return nil, err
			}
			total = v
		case "module":
			v, err := needInt("Module")
			if err != nil {
				return nil, err
			}
			cur = &Core{ID: v}
			curTest = nil
			inCons = false
			if v == 0 {
				s.Top = cur
			} else {
				s.CoreList = append(s.CoreList, cur)
			}
		case "totaltests":
			if cur == nil {
				return nil, fail("TotalTests outside a Module block")
			}
			v, err := needInt("TotalTests")
			if err != nil {
				return nil, err
			}
			if v < 0 {
				return nil, fail("TotalTests must be non-negative, got %d", v)
			}
			declaredTests[cur] = v
		case "test":
			if cur == nil {
				return nil, fail("Test outside a Module block")
			}
			if _, err := needInt("Test"); err != nil {
				return nil, err
			}
			cur.Tests = append(cur.Tests, CoreTest{})
			curTest = &cur.Tests[len(cur.Tests)-1]
		case "scanuse", "tamuse":
			if curTest == nil {
				return nil, fail("%s outside a Test block", fields[0])
			}
			v, err := needInt(fields[0])
			if err != nil {
				return nil, err
			}
			if v != 0 && v != 1 {
				return nil, fail("%s must be 0 or 1, got %d", fields[0], v)
			}
			if key == "scanuse" {
				curTest.ScanUse = v == 1
			} else {
				curTest.TamUse = v == 1
			}
		case "name":
			if cur == nil {
				return nil, fail("Name outside a Module block")
			}
			if len(args) != 1 {
				return nil, fail("Name expects one argument")
			}
			cur.Name = args[0]
		case "inputs", "outputs", "bidirs", "patterns":
			if cur == nil {
				return nil, fail("%s outside a Module block", fields[0])
			}
			v, err := needInt(fields[0])
			if err != nil {
				return nil, err
			}
			if v < 0 {
				return nil, fail("%s must be non-negative, got %d", fields[0], v)
			}
			switch key {
			case "inputs":
				cur.Inputs = v
			case "outputs":
				cur.Outputs = v
			case "bidirs":
				cur.Bidirs = v
			case "patterns":
				if curTest != nil {
					// Inside a Test block the count belongs to the
					// test; the core total accumulates.
					curTest.Patterns = v
					cur.Patterns += v
				} else {
					cur.Patterns = v
				}
			}
		case "scanchains":
			if cur == nil {
				return nil, fail("ScanChains outside a Module block")
			}
			// Format: ScanChains n : l1 l2 ... ln
			if len(args) < 2 || args[1] != ":" {
				return nil, fail("ScanChains expects \"n : l1 ... ln\"")
			}
			n, err := strconv.Atoi(args[0])
			if err != nil || n < 0 {
				return nil, fail("ScanChains: bad chain count %q", args[0])
			}
			lens := args[2:]
			if len(lens) != n {
				return nil, fail("ScanChains: declared %d chains but listed %d lengths", n, len(lens))
			}
			cur.ScanChains = make([]int, n)
			for i, ls := range lens {
				l, err := strconv.Atoi(ls)
				if err != nil || l <= 0 {
					return nil, fail("ScanChains: bad chain length %q", ls)
				}
				cur.ScanChains[i] = l
			}
		case "constraints":
			if len(args) != 0 {
				return nil, fail("Constraints takes no arguments")
			}
			cur = nil
			curTest = nil
			inCons = true
			if s.Constraints == nil {
				s.Constraints = &ConstraintSet{}
			}
		case "powerbudget":
			if !inCons {
				return nil, fail("PowerBudget outside a Constraints stanza")
			}
			v, err := needInt("PowerBudget")
			if err != nil {
				return nil, err
			}
			if v < 0 {
				return nil, fail("PowerBudget must be non-negative, got %d", v)
			}
			s.Constraints.PowerBudget = int64(v)
		case "corepower":
			if !inCons {
				return nil, fail("CorePower outside a Constraints stanza")
			}
			ids, err := needInts("CorePower", 2)
			if err != nil {
				return nil, err
			}
			if ids[1] < 0 {
				return nil, fail("CorePower must be non-negative, got %d", ids[1])
			}
			if s.Constraints.CorePower == nil {
				s.Constraints.CorePower = make(map[int]int64)
			}
			if _, dup := s.Constraints.CorePower[ids[0]]; dup {
				return nil, fail("duplicate CorePower for core %d", ids[0])
			}
			s.Constraints.CorePower[ids[0]] = int64(ids[1])
		case "precede":
			if !inCons {
				return nil, fail("Precede outside a Constraints stanza")
			}
			ids, err := needInts("Precede", 2)
			if err != nil {
				return nil, err
			}
			s.Constraints.Precedences = append(s.Constraints.Precedences,
				Precedence{Before: ids[0], After: ids[1]})
		case "exclude":
			if !inCons {
				return nil, fail("Exclude outside a Constraints stanza")
			}
			ids, err := needInts("Exclude", -1)
			if err != nil {
				return nil, err
			}
			if len(ids) < 2 {
				return nil, fail("Exclude needs at least 2 core IDs, got %d", len(ids))
			}
			s.Constraints.Exclusions = append(s.Constraints.Exclusions, ids)
		default:
			return nil, fail("unknown key %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("soc parse: %w", err)
	}
	if total >= 0 {
		got := len(s.CoreList)
		if s.Top != nil {
			got++
		}
		if got != total {
			return nil, fmt.Errorf("soc parse: TotalModules %d but %d Module blocks found", total, got)
		}
	}
	for c, want := range declaredTests {
		if len(c.Tests) != want {
			return nil, fmt.Errorf("soc parse: module %d declares TotalTests %d but has %d Test blocks", c.ID, want, len(c.Tests))
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// DefaultBusWidth is the shared-bus width assumed when a .soc file does
// not specify one; the paper's experiments use a 32-bit functional bus.
const DefaultBusWidth = 32

// ParseString parses a .soc description held in a string.
func ParseString(text string) (*SOC, error) {
	return Parse(strings.NewReader(text))
}

// Write serializes the SOC in the .soc format accepted by Parse.
func Write(w io.Writer, s *SOC) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "SocName %s\n", s.Name)
	fmt.Fprintf(bw, "BusWidth %d\n", s.BusWidth)
	total := len(s.CoreList)
	if s.Top != nil {
		total++
	}
	fmt.Fprintf(bw, "TotalModules %d\n", total)
	writeCore := func(c *Core) {
		fmt.Fprintf(bw, "\nModule %d\n", c.ID)
		if c.Name != "" {
			fmt.Fprintf(bw, "  Name %s\n", c.Name)
		}
		fmt.Fprintf(bw, "  Inputs %d\n  Outputs %d\n  Bidirs %d\n", c.Inputs, c.Outputs, c.Bidirs)
		if len(c.ScanChains) > 0 {
			fmt.Fprintf(bw, "  ScanChains %d :", len(c.ScanChains))
			for _, l := range c.ScanChains {
				fmt.Fprintf(bw, " %d", l)
			}
			fmt.Fprintln(bw)
		}
		if c.Patterns > 0 {
			fmt.Fprintf(bw, "  Patterns %d\n", c.Patterns)
		}
	}
	if s.Top != nil {
		writeCore(s.Top)
	}
	for _, c := range s.CoreList {
		writeCore(c)
	}
	if cs := s.Constraints; cs != nil && !cs.Empty() {
		fmt.Fprintf(bw, "\nConstraints\n")
		if cs.PowerBudget > 0 {
			fmt.Fprintf(bw, "  PowerBudget %d\n", cs.PowerBudget)
		}
		ids := make([]int, 0, len(cs.CorePower))
		for id := range cs.CorePower {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			fmt.Fprintf(bw, "  CorePower %d %d\n", id, cs.CorePower[id])
		}
		for _, pr := range cs.Precedences {
			fmt.Fprintf(bw, "  Precede %d %d\n", pr.Before, pr.After)
		}
		for _, e := range cs.Exclusions {
			fmt.Fprintf(bw, "  Exclude")
			for _, id := range e {
				fmt.Fprintf(bw, " %d", id)
			}
			fmt.Fprintln(bw)
		}
	}
	return bw.Flush()
}
