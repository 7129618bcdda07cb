// Package a exercises the ctxflow analyzer: exported optimization
// loops must accept a context.Context and check cancellation.
package a

import "context"

func evalCtx(ctx context.Context, x int) int { return x }
func eval(x int) int                         { return x }

// Rule 1: a loop over context-aware work in a function with no ctx
// parameter can only feed its callees context.Background.
func NoCtx(items []int) int {
	total := 0
	for _, x := range items { // want `loops over context-aware work \(evalCtx\) without accepting a context\.Context`
		total += evalCtx(context.Background(), x)
	}
	return total
}

// Rule 1b: recursive enumeration (the `var rec func(...)` pattern)
// without a ctx parameter cannot be cancelled at all.
func Enumerate(n int) int {
	count := 0
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			count++
			return
		}
		for b := 0; b <= i; b++ { // want `drives recursive enumeration \(rec\) without accepting a context\.Context`
			rec(i + 1)
		}
	}
	rec(0)
	return count
}

// Rule 2: accepts a context but no loop ever consults it.
func WithCtx(ctx context.Context, items []int) int { // want `accepts a context\.Context but none of its loops consult it`
	total := 0
	for _, x := range items {
		total += eval(x)
	}
	return total
}

// Rule 3: manufacturing context.Background severs the caller's
// deadline.
func Detached(ctx context.Context, x int) int {
	return evalCtx(context.Background(), x) // want `calls context\.Background\(\); thread the parameter instead`
}

// Good threads and checks the context between evaluations.
func Good(ctx context.Context, items []int) (int, error) {
	total := 0
	for _, x := range items {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		total += eval(x)
	}
	return total, nil
}

// GoodClosure consults the context through a local closure (the
// restart fan-out pattern).
func GoodClosure(ctx context.Context, n int) int {
	total := 0
	run := func(i int) { total += evalCtx(ctx, i) }
	for i := 0; i < n; i++ {
		run(i)
	}
	return total
}

// Trivial loops that call no functions are not significant; the
// contract checks between evaluations, not around arithmetic.
func Trivial(ctx context.Context, items []int) int {
	total := 0
	for _, x := range items {
		total += x
	}
	return total
}

// unexported helpers are outside the exported-API contract.
func noCtx(items []int) int {
	total := 0
	for _, x := range items {
		total += evalCtx(context.Background(), x)
	}
	return total
}
