// Package ctxflow enforces the deadline-degradation contract on the
// optimization loops: code that iterates over candidates or patterns
// must thread a context.Context so a deadline or cancellation can cut
// the search short between evaluations.
//
// Three mechanical rules, applied to exported functions of the target
// packages (the engine and every package it fans work out to):
//
//  1. missing parameter — an exported function with no context.Context
//     parameter must not contain a loop that calls context-aware work
//     (a callee whose signature takes a context.Context): such a loop
//     can only feed its callees context.Background, which disables the
//     anytime contract for the whole iteration. The same applies to a
//     loop that calls a recursive local closure (the enumeration
//     pattern `var enumerate func(...); enumerate = func(...) { ... }`):
//     recursive enumeration is unbounded work, and without a context
//     it cannot be cut short at all.
//
//  2. unchecked loop — an exported function that has a context.Context
//     parameter and contains significant loops (loops that call
//     non-builtin functions) must consult the context in at least one
//     of them: mention ctx in a loop body (ctx.Err(), ctx.Done(),
//     passing ctx to a callee) or call a local closure whose body
//     mentions ctx. A function that accepts a context and then loops
//     without ever consulting it has opted out of cancellation
//     silently.
//
//  3. discarded context — a function with a context.Context parameter
//     must not manufacture context.Background()/context.TODO(): that
//     severs the caller's deadline from the work being done.
//
// Allow-list policy: only the packages in Targets are checked (the
// schedulers' inner loops below one objective evaluation are atomic by
// design — the contract checks between evaluations, not inside one),
// and _test.go files are skipped.
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"sitam/internal/analysis"
)

// Targets is the set of package paths the contract applies to.
// Mutable so the analysistest fixtures can enroll themselves.
var Targets = map[string]bool{
	"sitam/internal/core":       true,
	"sitam/internal/exact":      true,
	"sitam/internal/compaction": true,
	"sitam/internal/hypergraph": true,
	"sitam/internal/sischedule": true,
}

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "exported optimization loops must accept a context.Context and check cancellation",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !Targets[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		if len(f.Decls) > 0 && pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// checkFunc applies the three rules to one exported function.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	hasCtx := hasContextParam(pass, fd)

	// Local closures whose bodies mention a context value: calling one
	// inside a loop counts as consulting the context (the restart
	// fan-out pattern: `run := func(i int) { ...inner.ils(ctx...)... }`).
	ctxClosures := contextClosures(pass, fd)
	// Recursive local closures: calling one inside a loop is unbounded
	// enumeration (the `var enumerate func(...)` pattern).
	recClosures := recursiveClosures(pass, fd)

	var loops []loopInfo
	collectLoops(pass, fd.Body, &loops, ctxClosures, recClosures)

	if !hasCtx {
		for _, l := range loops {
			switch {
			case l.ctxAwareCall != nil:
				pass.Reportf(l.pos,
					"exported function %s loops over context-aware work (%s) without accepting a context.Context; add a ctx parameter (or a %sCtx variant) and thread it",
					fd.Name.Name, l.ctxAwareCall.Name(), fd.Name.Name)
			case l.recursiveCall != "":
				pass.Reportf(l.pos,
					"exported function %s drives recursive enumeration (%s) without accepting a context.Context; the search cannot be cancelled — add a ctx parameter (or a %sCtx variant) and check ctx.Err() in the recursion",
					fd.Name.Name, l.recursiveCall, fd.Name.Name)
			}
		}
		return
	}

	significant := 0
	touched := false
	for _, l := range loops {
		if !l.significant {
			continue
		}
		significant++
		if l.touchesCtx {
			touched = true
		}
	}
	if significant > 0 && !touched {
		pass.Reportf(fd.Name.Pos(),
			"exported function %s accepts a context.Context but none of its loops consult it; check ctx.Err() (or pass ctx to a callee) inside the iteration",
			fd.Name.Name)
	}

	// Rule 3: context.Background()/TODO() inside a ctx-taking function.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := analysis.FuncFromPkg(pass.TypesInfo, call, "context"); fn != nil {
			if fn.Name() == "Background" || fn.Name() == "TODO" {
				pass.Reportf(call.Pos(),
					"%s has a context.Context parameter but calls context.%s(); thread the parameter instead",
					fd.Name.Name, fn.Name())
			}
		}
		return true
	})
}

// loopInfo summarizes one for/range statement.
type loopInfo struct {
	pos           token.Pos
	significant   bool        // body calls at least one non-builtin function
	touchesCtx    bool        // body mentions a context value or calls a ctx closure
	ctxAwareCall  *types.Func // a callee whose signature takes a context.Context, if any
	recursiveCall string      // name of a recursive local closure called in the body, if any
}

// collectLoops walks body and records every for/range statement.
func collectLoops(pass *analysis.Pass, body ast.Node, out *[]loopInfo, ctxClosures, recClosures map[types.Object]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		var loopBody *ast.BlockStmt
		switch n := n.(type) {
		case *ast.ForStmt:
			loopBody = n.Body
		case *ast.RangeStmt:
			loopBody = n.Body
		default:
			return true
		}
		info := loopInfo{pos: n.Pos()}
		ast.Inspect(loopBody, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.CallExpr:
				if fn := analysis.CalleeFunc(pass.TypesInfo, m); fn != nil {
					info.significant = true
					if takesContext(fn) && info.ctxAwareCall == nil {
						info.ctxAwareCall = fn
					}
				} else if id, ok := ast.Unparen(m.Fun).(*ast.Ident); ok {
					obj := pass.TypesInfo.Uses[id]
					if obj != nil && recClosures[obj] && info.recursiveCall == "" {
						info.significant = true
						info.recursiveCall = id.Name
					}
					if obj != nil && ctxClosures[obj] {
						info.significant = true
						info.touchesCtx = true
					} else if _, isBuiltin := obj.(*types.Builtin); obj != nil && !isBuiltin {
						if _, isType := obj.(*types.TypeName); !isType {
							info.significant = true // call of a local func value
						}
					}
				}
			case *ast.Ident:
				if obj := pass.TypesInfo.Uses[m]; obj != nil && analysis.IsContextType(obj.Type()) {
					info.touchesCtx = true
				}
			}
			return true
		})
		*out = append(*out, info)
		return true
	})
}

// contextClosures returns the objects of local variables bound to
// function literals whose bodies mention a context value.
func contextClosures(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range assign.Rhs {
			lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
			if !ok || i >= len(assign.Lhs) {
				continue
			}
			id, ok := assign.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj == nil {
				continue
			}
			mentions := false
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if o := pass.TypesInfo.Uses[id]; o != nil && analysis.IsContextType(o.Type()) {
						mentions = true
					}
				}
				return !mentions
			})
			if mentions {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// recursiveClosures returns the objects of local variables bound to
// function literals whose bodies call the variable itself — the
// `var enumerate func(...); enumerate = func(...) {... enumerate(...) ...}`
// pattern used for recursive enumeration.
func recursiveClosures(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range assign.Rhs {
			lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
			if !ok || i >= len(assign.Lhs) {
				continue
			}
			id, ok := assign.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj == nil {
				continue
			}
			selfCall := false
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if cid, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && pass.TypesInfo.Uses[cid] == obj {
						selfCall = true
					}
				}
				return !selfCall
			})
			if selfCall {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// hasContextParam reports whether fd declares a context.Context
// parameter.
func hasContextParam(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if t := pass.TypesInfo.TypeOf(field.Type); t != nil && analysis.IsContextType(t) {
			return true
		}
	}
	return false
}

// takesContext reports whether fn's signature has a context.Context
// parameter.
func takesContext(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if analysis.IsContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}
