// Package gorojoin turns the chaostest no-goroutine-leak invariant
// into a compile-time check (DESIGN §15): every `go` statement in the
// serving layer, the compaction package and core's worker pools must
// have a provable join, so a drained daemon cannot strand workers.
//
// A go statement is considered joined when any of these holds:
//
//   - WaitGroup: the goroutine body calls Done (usually deferred) on a
//     sync.WaitGroup whose Wait is called somewhere in the same
//     package on the same WaitGroup (same local variable, or the same
//     struct field — e.g. the scheduler pool Done()s s.wg in the
//     worker and Wait()s it in Drain).
//
//   - channel drain: the goroutine body sends on or closes a channel
//     that the function containing the go statement receives from
//     (<-ch, range ch) — the drain-waiter idiom
//     `go func() { wg.Wait(); close(done) }(); <-done`.
//
//   - joined callee: `go f(...)` where f carries the SignalsDone fact
//     (its body Done()s a WaitGroup or closes a channel it was
//     given), and the spawning function also contains a Wait call or
//     channel receive. The fact crosses package boundaries.
//
// Anything else is flagged. Intentionally detached goroutines carry a
// //sitlint:allow gorojoin directive with a justification.
package gorojoin

import (
	"fmt"
	"go/ast"
	"go/types"

	"sitam/internal/analysis"
)

// Scope lists the packages whose go statements must join. Mutable for
// the analysistest fixtures.
var Scope = map[string]bool{
	"sitam/internal/serve":      true,
	"sitam/internal/compaction": true,
	"sitam/internal/core":       true,
}

// SignalsDone is the object fact exported for named functions whose
// body signals completion (WaitGroup.Done or close of a channel), so
// `go pkg.Worker(&wg)` can be proven joined from another package.
type SignalsDone struct{}

func (*SignalsDone) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name:      "gorojoin",
	Doc:       "every go statement in serve/compaction/parallel-eval must have a provable join",
	Run:       run,
	FactTypes: []analysis.Fact{(*SignalsDone)(nil)},
}

func run(pass *analysis.Pass) error {
	inScope := Scope[pass.Pkg.Path()]

	// Fact export runs everywhere so out-of-scope helper packages can
	// still vouch for their workers.
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if bodySignalsDone(pass, fd.Body) {
				if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					pass.ExportObjectFact(obj, &SignalsDone{})
				}
			}
		}
	}
	if !inScope {
		return nil
	}

	// Package-wide Wait identities (rule 1 joins the scheduler pool:
	// Done in the worker goroutine, Wait in Drain).
	waits := map[string]bool{}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := wgMethodTarget(pass, call, "Wait"); ok {
				waits[id] = true
			}
			return true
		})
	}

	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		// Walk with the stack of enclosing function bodies so a go
		// statement knows which function's receives can drain it.
		var stack []*ast.BlockStmt
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncDecl:
				if v.Body == nil {
					return false
				}
				stack = append(stack, v.Body)
				ast.Inspect(v.Body, visit)
				stack = stack[:len(stack)-1]
				return false
			case *ast.FuncLit:
				stack = append(stack, v.Body)
				ast.Inspect(v.Body, visit)
				stack = stack[:len(stack)-1]
				return false
			case *ast.GoStmt:
				var enclosing *ast.BlockStmt
				if len(stack) > 0 {
					enclosing = stack[len(stack)-1]
				}
				checkGo(pass, v, enclosing, waits)
				return true
			}
			return true
		}
		for _, decl := range f.Decls {
			ast.Inspect(decl, visit)
		}
	}
	return nil
}

func checkGo(pass *analysis.Pass, g *ast.GoStmt, enclosing *ast.BlockStmt, waits map[string]bool) {
	// Case 1+2: goroutine body is a function literal.
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		// WaitGroup join: Done in the body, Wait anywhere in the package
		// on the same WaitGroup.
		joined := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := wgMethodTarget(pass, call, "Done"); ok && waits[id] {
				joined = true
			}
			return true
		})
		if joined {
			return
		}
		// Channel drain: the body signals a channel the enclosing
		// function receives from.
		signaled := map[string]bool{}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.SendStmt:
				if id, ok := chanIdentity(pass, v.Chan); ok {
					signaled[id] = true
				}
			case *ast.CallExpr:
				if fun, ok := v.Fun.(*ast.Ident); ok && fun.Name == "close" && len(v.Args) == 1 {
					if id, ok := chanIdentity(pass, v.Args[0]); ok {
						signaled[id] = true
					}
				}
			}
			return true
		})
		if len(signaled) > 0 && enclosing != nil && receivesAny(pass, enclosing, signaled) {
			return
		}
		pass.Reportf(g.Pos(), "go statement has no provable join: no WaitGroup Done/Wait pair and no channel drained by the spawning function (detached goroutines need //sitlint:allow gorojoin with a justification)")
		return
	}

	// Case 3: go f(...) — a named callee that signals completion.
	if fn := analysis.CalleeFunc(pass.TypesInfo, g.Call); fn != nil {
		var fact SignalsDone
		if pass.ImportObjectFact(fn, &fact) && enclosing != nil && hasJoinPoint(pass, enclosing) {
			return
		}
		pass.Reportf(g.Pos(), "go %s has no provable join: callee does not signal completion into a Wait/receive in the spawning function", fn.Name())
		return
	}
	pass.Reportf(g.Pos(), "go statement has no provable join (dynamic callee)")
}

// bodySignalsDone reports whether a function body calls
// sync.WaitGroup.Done or closes / sends on a channel — the exportable
// "this worker signals completion" property.
func bodySignalsDone(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			if _, ok := wgMethodTarget(pass, v, "Done"); ok {
				found = true
			}
			if fun, ok := v.Fun.(*ast.Ident); ok && fun.Name == "close" && len(v.Args) == 1 {
				if _, ok := chanIdentity(pass, v.Args[0]); ok {
					found = true
				}
			}
		case *ast.SendStmt:
			found = true
		}
		return !found
	})
	return found
}

// hasJoinPoint reports whether the block contains any WaitGroup Wait
// call or channel receive — the loose join requirement for go calls of
// fact-carrying named workers.
func hasJoinPoint(pass *analysis.Pass, block *ast.BlockStmt) bool {
	found := false
	ast.Inspect(block, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			if _, ok := wgMethodTarget(pass, v, "Wait"); ok {
				found = true
			}
		case *ast.UnaryExpr:
			if v.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(v.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// receivesAny reports whether the block receives from (or ranges over)
// any of the identified channels.
func receivesAny(pass *analysis.Pass, block *ast.BlockStmt, ids map[string]bool) bool {
	found := false
	ast.Inspect(block, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.UnaryExpr:
			if v.Op.String() == "<-" {
				if id, ok := chanIdentity(pass, v.X); ok && ids[id] {
					found = true
				}
			}
		case *ast.RangeStmt:
			if id, ok := chanIdentity(pass, v.X); ok && ids[id] {
				if t := pass.TypesInfo.TypeOf(v.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// wgMethodTarget matches a call of the named sync.WaitGroup method and
// returns the identity of the WaitGroup it targets.
func wgMethodTarget(pass *analysis.Pass, call *ast.CallExpr, method string) (string, bool) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Name() != method || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	recv, ok := fn.Type().(*types.Signature)
	if !ok || recv.Recv() == nil {
		return "", false
	}
	if named, ok := derefNamed(recv.Recv().Type()); !ok || named.Obj().Name() != "WaitGroup" {
		return "", false
	} else {
		_ = named
	}
	return identity(pass, sel.X)
}

// chanIdentity returns the identity of a channel-typed expression.
func chanIdentity(pass *analysis.Pass, expr ast.Expr) (string, bool) {
	t := pass.TypesInfo.TypeOf(expr)
	if t == nil {
		return "", false
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return "", false
	}
	return identity(pass, expr)
}

// identity names a variable or struct field stably: struct fields as
// "pkg.Type.field" (so the worker's s.wg and Drain's s.wg agree across
// methods), other objects by their declaration position.
func identity(pass *analysis.Pass, expr ast.Expr) (string, bool) {
	switch x := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.ObjectOf(x)
		if obj == nil {
			return "", false
		}
		return fmt.Sprintf("obj@%d", obj.Pos()), true
	case *ast.SelectorExpr:
		s := pass.TypesInfo.Selections[x]
		if s == nil {
			return "", false
		}
		if named, ok := derefNamed(s.Recv()); ok && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + s.Obj().Name(), true
		}
	}
	return "", false
}

func derefNamed(t types.Type) (*types.Named, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}
