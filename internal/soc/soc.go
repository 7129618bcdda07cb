// Package soc defines the data model for core-based system-on-chip (SOC)
// designs used throughout the library, together with a parser and writer
// for an ITC'02-style ".soc" benchmark description format and embedded,
// reconstructed versions of the two benchmark SOCs evaluated in the paper
// (p34392 and p93791).
//
// The model follows the ITC'02 SOC Test Benchmarks convention: an SOC is a
// list of modules (embedded cores); every module carries its terminal
// counts (inputs, outputs, bidirectionals), its internal scan-chain
// lengths, and the number of test patterns for its internal logic. Module
// 0 conventionally describes the SOC top level and carries no internal
// test; it is parsed but excluded from Cores().
package soc

import (
	"fmt"
	"sort"
	"strings"
)

// MaxCoreID is the largest module number a core may carry. Tables
// indexed by core ID (the InTest time table, the SI planner's per-core
// data) are as long as the largest ID, so an unbounded ID in a .soc
// file would ask for gigabytes. Scenario SOCs reach about 1,000.
const MaxCoreID = 1 << 16

// Core describes one wrapped embedded core (an ITC'02 "module").
type Core struct {
	// ID is the module number from the benchmark file, at most
	// MaxCoreID. IDs are unique within an SOC but need not be
	// contiguous.
	ID int

	// Name is an optional human-readable label.
	Name string

	// Inputs, Outputs and Bidirs are the counts of functional input,
	// output and bidirectional terminals of the core.
	Inputs  int
	Outputs int
	Bidirs  int

	// ScanChains holds the length (in flip-flops) of every internal scan
	// chain of the core. A purely combinational core has none.
	ScanChains []int

	// Patterns is the number of test patterns for the core-internal
	// logic. When the core carries multiple test sets (the ITC'02
	// TotalTests/Test blocks), Patterns is their sum and Tests holds
	// the breakdown.
	Patterns int

	// Tests optionally details the individual test sets of the core.
	Tests []CoreTest
}

// CoreTest is one test set of a core, as described by an ITC'02 "Test"
// block.
type CoreTest struct {
	// Patterns is this test set's pattern count.
	Patterns int

	// ScanUse reports whether the test uses the core's scan chains.
	ScanUse bool

	// TamUse reports whether the test is delivered over the TAM.
	TamUse bool
}

// ScanBits returns the total number of scan flip-flops in the core.
func (c *Core) ScanBits() int {
	total := 0
	for _, l := range c.ScanChains {
		total += l
	}
	return total
}

// WIC returns the number of wrapper input cells: one per functional input
// and one per bidirectional terminal.
func (c *Core) WIC() int { return c.Inputs + c.Bidirs }

// WOC returns the number of wrapper output cells: one per functional
// output and one per bidirectional terminal. The SI test-pattern position
// space is the concatenation of all cores' WOCs.
func (c *Core) WOC() int { return c.Outputs + c.Bidirs }

// Terminals returns the total number of wrapper boundary cells.
func (c *Core) Terminals() int { return c.Inputs + c.Outputs + 2*c.Bidirs }

// Validate reports the first structural problem with the core, if any.
func (c *Core) Validate() error {
	switch {
	case c.ID < 0:
		return fmt.Errorf("core %d: negative ID", c.ID)
	case c.ID > MaxCoreID:
		return fmt.Errorf("core %d: ID above %d", c.ID, MaxCoreID)
	case c.Inputs < 0 || c.Outputs < 0 || c.Bidirs < 0:
		return fmt.Errorf("core %d: negative terminal count", c.ID)
	case c.Patterns < 0:
		return fmt.Errorf("core %d: negative pattern count", c.ID)
	}
	for i, l := range c.ScanChains {
		if l <= 0 {
			return fmt.Errorf("core %d: scan chain %d has non-positive length %d", c.ID, i, l)
		}
	}
	if len(c.Tests) > 0 {
		sum := 0
		for i, t := range c.Tests {
			if t.Patterns < 0 {
				return fmt.Errorf("core %d: test %d has negative pattern count", c.ID, i+1)
			}
			sum += t.Patterns
		}
		if sum != c.Patterns {
			return fmt.Errorf("core %d: test pattern counts sum to %d but Patterns is %d", c.ID, sum, c.Patterns)
		}
	}
	if c.Terminals() == 0 && len(c.ScanChains) == 0 {
		return fmt.Errorf("core %d: no terminals and no scan chains", c.ID)
	}
	return nil
}

// SOC is a full system-on-chip design: a named set of wrapped cores plus
// the width of the shared functional bus crossing the core-external
// interconnect fabric.
type SOC struct {
	Name string

	// Top optionally describes the SOC-level module (module 0 in ITC'02
	// files). It is not a wrapped core and takes no part in TAM
	// optimization.
	Top *Core

	// CoreList holds the wrapped cores in file order.
	CoreList []*Core

	// BusWidth is the width of the shared functional bus. The paper's
	// experiments assume a 32-bit bus on both benchmark SOCs.
	BusWidth int

	// Constraints optionally holds test-floor scheduling constraints
	// (power budget, precedence, mutual exclusion) parsed from the
	// Constraints stanza of a .soc file. Nil means unconstrained.
	Constraints *ConstraintSet
}

// Cores returns the wrapped cores of the SOC (excluding the top module).
func (s *SOC) Cores() []*Core { return s.CoreList }

// NumCores returns the number of wrapped cores.
func (s *SOC) NumCores() int { return len(s.CoreList) }

// CoreByID returns the core with the given module ID, or nil.
func (s *SOC) CoreByID(id int) *Core {
	for _, c := range s.CoreList {
		if c.ID == id {
			return c
		}
	}
	return nil
}

// TotalWOC returns the total number of wrapper output cells across all
// cores — the length of an unpartitioned ("horizontal") SI test pattern.
func (s *SOC) TotalWOC() int {
	total := 0
	for _, c := range s.CoreList {
		total += c.WOC()
	}
	return total
}

// TotalTerminals returns the sum of all cores' boundary cell counts.
func (s *SOC) TotalTerminals() int {
	total := 0
	for _, c := range s.CoreList {
		total += c.Terminals()
	}
	return total
}

// Validate reports the first structural problem with the SOC, if any.
func (s *SOC) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("soc: empty name")
	}
	if len(s.CoreList) == 0 {
		return fmt.Errorf("soc %s: no cores", s.Name)
	}
	if s.BusWidth < 0 {
		return fmt.Errorf("soc %s: negative bus width", s.Name)
	}
	seen := make(map[int]bool, len(s.CoreList))
	for _, c := range s.CoreList {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("soc %s: %w", s.Name, err)
		}
		if seen[c.ID] {
			return fmt.Errorf("soc %s: duplicate core ID %d", s.Name, c.ID)
		}
		seen[c.ID] = true
	}
	if err := s.Constraints.Validate(s); err != nil {
		return fmt.Errorf("soc %s: %w", s.Name, err)
	}
	return nil
}

// Summary returns a one-line, human-readable description of the SOC.
func (s *SOC) Summary() string {
	scan := 0
	pats := 0
	for _, c := range s.CoreList {
		scan += c.ScanBits()
		pats += c.Patterns
	}
	return fmt.Sprintf("%s: %d cores, %d boundary cells (%d WOCs), %d scan bits, %d internal patterns, %d-bit bus",
		s.Name, len(s.CoreList), s.TotalTerminals(), s.TotalWOC(), scan, pats, s.BusWidth)
}

// SortedIDs returns the core IDs in ascending order.
func (s *SOC) SortedIDs() []int {
	ids := make([]int, 0, len(s.CoreList))
	for _, c := range s.CoreList {
		ids = append(ids, c.ID)
	}
	sort.Ints(ids)
	return ids
}

// String implements fmt.Stringer.
func (s *SOC) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SOC %s (%d cores)\n", s.Name, len(s.CoreList))
	for _, c := range s.CoreList {
		fmt.Fprintf(&b, "  core %2d: in=%3d out=%3d bidir=%3d chains=%2d scan=%5d patterns=%5d\n",
			c.ID, c.Inputs, c.Outputs, c.Bidirs, len(c.ScanChains), c.ScanBits(), c.Patterns)
	}
	return b.String()
}
