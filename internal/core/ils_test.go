package core

import (
	"testing"

	"sitam/internal/sischedule"
)

func TestOptimizeILSZeroKicksEqualsOptimize(t *testing.T) {
	groups := smallGroups()
	mk := func() *Engine {
		eng, err := NewEngine(smallSOC(), 6, &SIEvaluator{Groups: groups, Model: sischedule.DefaultModel()})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	_, plain, err := optimize(mk())
	if err != nil {
		t.Fatal(err)
	}
	_, ils, err := optimizeILS(mk(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plain != ils {
		t.Errorf("0-kick ILS %d != plain %d", ils, plain)
	}
}

func TestOptimizeILSNeverWorse(t *testing.T) {
	groups := smallGroups()
	for _, wmax := range []int{4, 8} {
		eng, err := NewEngine(smallSOC(), wmax, &SIEvaluator{Groups: groups, Model: sischedule.DefaultModel()})
		if err != nil {
			t.Fatal(err)
		}
		_, plain, err := optimize(eng)
		if err != nil {
			t.Fatal(err)
		}
		arch, ils, err := optimizeILS(eng, 20, 7)
		if err != nil {
			t.Fatal(err)
		}
		if ils > plain {
			t.Errorf("Wmax=%d: ILS %d worse than greedy %d", wmax, ils, plain)
		}
		if err := arch.Validate(); err != nil {
			t.Fatalf("Wmax=%d: %v", wmax, err)
		}
		if arch.TotalWidth() > wmax {
			t.Errorf("Wmax=%d: ILS width %d over budget", wmax, arch.TotalWidth())
		}
	}
}

func TestOptimizeILSDeterministic(t *testing.T) {
	groups := smallGroups()
	run := func() int64 {
		eng, err := NewEngine(smallSOC(), 6, &SIEvaluator{Groups: groups, Model: sischedule.DefaultModel()})
		if err != nil {
			t.Fatal(err)
		}
		_, obj, err := optimizeILS(eng, 15, 42)
		if err != nil {
			t.Fatal(err)
		}
		return obj
	}
	if a, b := run(), run(); a != b {
		t.Errorf("ILS not deterministic: %d vs %d", a, b)
	}
}

func TestOptimizeILSRejectsNegativeKicks(t *testing.T) {
	eng, err := NewEngine(smallSOC(), 4, InTestEvaluator{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := optimizeILS(eng, -1, 0); err == nil {
		t.Error("accepted negative kicks")
	}
}
