package sitam

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestGuardConvertsPanics is the white-box contract of the recovery
// guard: a panic becomes an ErrInternal-wrapped error carrying the
// panic message and a stack snippet locating the fault, while normal
// returns (nil or not) pass through untouched.
func TestGuardConvertsPanics(t *testing.T) {
	boom := func() (err error) {
		defer guard(&err)
		panic("boom 42")
	}
	err := boom()
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	if !strings.Contains(err.Error(), "boom 42") {
		t.Errorf("error lost the panic message: %v", err)
	}
	if !strings.Contains(err.Error(), ".go:") {
		t.Errorf("error carries no stack snippet: %v", err)
	}
	if strings.Count(err.Error(), "\n") > 14 {
		t.Errorf("stack snippet not trimmed:\n%v", err)
	}

	ok := func() (err error) {
		defer guard(&err)
		return nil
	}
	if err := ok(); err != nil {
		t.Fatalf("guard disturbed a clean return: %v", err)
	}
	sentinel := errors.New("ordinary failure")
	fails := func() (err error) {
		defer guard(&err)
		return sentinel
	}
	if err := fails(); !errors.Is(err, sentinel) || errors.Is(err, ErrInternal) {
		t.Fatalf("guard disturbed an ordinary error: %v", err)
	}
}

// TestFacadePanicBoundary feeds facade functions inputs that trip
// internal invariants (nil dereferences) and checks the panic never
// escapes the public API: the caller sees ErrInternal instead of a
// crash.
func TestFacadePanicBoundary(t *testing.T) {
	if _, err := Solve(context.Background(), Problem{Wmax: 16, Model: DefaultModel()}, Options{}); !errors.Is(err, ErrInternal) {
		t.Errorf("Solve(nil SOC) err = %v, want ErrInternal", err)
	}
	if _, _, err := ExactScheduleSI(context.Background(), nil, nil, DefaultModel(), nil); !errors.Is(err, ErrInternal) {
		t.Errorf("ExactScheduleSI(nil arch) err = %v, want ErrInternal", err)
	}
	if _, err := ScheduleSI(nil, nil, DefaultModel(), nil); !errors.Is(err, ErrInternal) {
		t.Errorf("ScheduleSI(nil arch) err = %v, want ErrInternal", err)
	}
	if _, err := GeneratePatterns(nil, GenConfig{N: 1}); !errors.Is(err, ErrInternal) {
		t.Errorf("GeneratePatterns(nil SOC) err = %v, want ErrInternal", err)
	}
}

// TestCtxFacades exercises the context-aware facade variants end to
// end on a real benchmark: pre-cancelled contexts surface the context
// error, and a deadline expiring mid-optimization degrades to a valid
// partial Result.
func TestCtxFacades(t *testing.T) {
	s, err := LoadBenchmark("p34392")
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	if _, _, err := GeneratePatternsCtx(cancelled, s, GenConfig{N: 100, Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("GeneratePatternsCtx pre-cancelled err = %v", err)
	}
	p := Problem{SOC: s, Wmax: 16, Model: DefaultModel()}
	if _, err := Solve(cancelled, p, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Solve pre-cancelled err = %v", err)
	}
	if _, err := Solve(cancelled, p, Options{Method: MethodILS, Kicks: 3, Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("Solve(MethodILS) pre-cancelled err = %v", err)
	}

	patterns, partial, err := GeneratePatternsCtx(context.Background(), s, GenConfig{N: 1000, Seed: 1})
	if err != nil || partial || len(patterns) != 1000 {
		t.Fatalf("GeneratePatternsCtx = (%d patterns, partial=%v, %v)", len(patterns), partial, err)
	}
	gr, err := BuildGroupsCtx(context.Background(), s, patterns, GroupingOptions{Parts: 2, Seed: 1})
	if err != nil || gr.Partial {
		t.Fatalf("BuildGroupsCtx = (partial=%v, %v)", gr != nil && gr.Partial, err)
	}

	// A deadline mid-search must yield a usable partial Result, not an
	// error: a huge kick budget guarantees the run cannot finish.
	ctx, cancelT := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancelT()
	p.Groups = gr.Groups
	res, err := Solve(ctx, p, Options{Method: MethodILS, Kicks: 1000000, Seed: 1})
	if err != nil {
		t.Fatalf("Solve(MethodILS) deadline run errored: %v", err)
	}
	if !res.Partial || res.Reason == "" {
		t.Fatalf("deadline run Result not flagged partial: %+v", res)
	}
	if err := res.Architecture.Validate(); err != nil {
		t.Fatalf("partial Result architecture invalid: %v", err)
	}

	// The exact scheduler facade: pre-cancelled context errors out...
	if _, _, err := ExactScheduleSI(cancelled, res.Architecture, gr.Groups, DefaultModel(), nil); !errors.Is(err, context.Canceled) {
		t.Errorf("ExactScheduleSI pre-cancelled err = %v", err)
	}
	// ...and an unconstrained run completes at or below Algorithm 1.
	exact, partial, err := ExactScheduleSI(context.Background(), res.Architecture, gr.Groups, DefaultModel(), nil)
	if err != nil || partial {
		t.Fatalf("ExactScheduleSI = (%d, partial=%v, %v)", exact, partial, err)
	}
	if exact > res.Breakdown.TimeSI {
		t.Fatalf("ExactScheduleSI = %d above Algorithm 1's %d", exact, res.Breakdown.TimeSI)
	}
}
