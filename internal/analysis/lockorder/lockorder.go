// Package lockorder enforces the acquire-release discipline of the
// serving layer's mutexes and the persistent cache file's flock
// (DESIGN §15): a manually acquired lock must be released on every
// path out of the function that took it, and nested acquisitions must
// follow the canonical lock order, so the scheduler can never deadlock
// against the cache file or a job's own state lock.
//
// Three rules:
//
//  1. release discipline — after x.mu.Lock() the function must either
//     defer the matching Unlock immediately or reach an Unlock before
//     every return. Falling off the end of the function (or returning)
//     with the lock still held is flagged. The cache file's flock is
//     exempt: it is held for the file's whole lifetime by design and
//     released in Close.
//
//  2. lock ordering — acquiring a lock that ranks at or before an
//     already-held lock in Order is an inversion (equal rank is a
//     self-deadlock on Go's non-reentrant mutexes). The held set
//     crosses function calls through Acquires facts: every analyzed
//     function exports the transitive set of lock classes it may
//     take, so `s.mu.Lock(); j.journal.Append(e)` sees the Journal
//     mutex the callee takes.
//
//  3. flock pairing — functions listed in AcquireFuncs/ReleaseFuncs
//     (lockCacheFile/unlockCacheFile) move the flock class in and out
//     of the held set so inversions against it are visible, without
//     imposing the per-function release rule.
//
// Lock classes are named "pkgpath.Type.field" for struct-field mutexes
// and "pkgpath.name" for package-level ones; locals use the bare
// variable name. Only classes listed in Order participate in rule 2.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"sitam/internal/analysis"
)

// Scope lists the packages whose locking the analyzer checks. Mutable
// for the analysistest fixtures.
var Scope = map[string]bool{
	"sitam/internal/serve": true,
	"sitam/internal/core":  true,
}

// Order is the canonical acquisition order, outermost first. A lock
// may only be taken while holding locks that appear strictly earlier.
// Mutable for the analysistest fixtures.
var Order = []string{
	"sitam/internal/serve.Scheduler.mu",
	"sitam/internal/serve.Job.mu",
	"sitam/internal/serve.FlightRecorder.mu",
	"sitam/internal/serve.Journal.mu",
	"sitam/internal/core.CacheFile.flock",
	"sitam/internal/core.CacheFile.mu",
}

// AcquireFuncs maps fully qualified function names to the lock class
// they acquire on behalf of the caller (the flock wrappers).
var AcquireFuncs = map[string]string{
	"sitam/internal/core.lockCacheFile": "sitam/internal/core.CacheFile.flock",
}

// ReleaseFuncs is the inverse of AcquireFuncs.
var ReleaseFuncs = map[string]string{
	"sitam/internal/core.unlockCacheFile": "sitam/internal/core.CacheFile.flock",
}

// NoReleaseCheck lists lock classes exempt from rule 1: locks held
// beyond the acquiring function's lifetime by design.
var NoReleaseCheck = map[string]bool{
	"sitam/internal/core.CacheFile.flock": true,
}

// Acquires is the object fact exported for every function that may
// take locks: the transitive set of lock classes, so callers can check
// ordering across package boundaries.
type Acquires struct{ Classes []string }

func (*Acquires) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name:      "lockorder",
	Doc:       "mutex/flock release discipline and canonical lock ordering in serve and the cache file",
	Run:       run,
	FactTypes: []analysis.Fact{(*Acquires)(nil)},
}

func rank(class string) int {
	for i, c := range Order {
		if c == class {
			return i
		}
	}
	return -1
}

type funcInfo struct {
	decl     *ast.FuncDecl
	key      string
	acquires map[string]bool // transitive lock classes
	calls    []string        // in-package callee keys
}

func run(pass *analysis.Pass) error {
	if !Scope[pass.Pkg.Path()] {
		return nil
	}

	// Pass 1: per-function direct acquisitions and the in-package call
	// graph, then a fixpoint for the transitive Acquires sets.
	funcs := map[string]*funcInfo{}
	var order []string
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			fi := &funcInfo{decl: fd, key: analysis.ObjectKey(obj), acquires: map[string]bool{}}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false // goroutine/closure acquisitions are not the caller's
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if class := p(pass).acquireClass(call); class != "" {
					fi.acquires[class] = true
				}
				if pkgPath, key, _, ok := analysis.FuncKey(pass.TypesInfo, call); ok && pkgPath == pass.Pkg.Path() {
					fi.calls = append(fi.calls, key)
				} else if ok {
					// Imported callee: union its exported fact now.
					var fact Acquires
					if fn := analysis.CalleeFunc(pass.TypesInfo, call); fn != nil && pass.ImportObjectFact(fn, &fact) {
						for _, c := range fact.Classes {
							fi.acquires[c] = true
						}
					}
				}
				return true
			})
			funcs[fi.key] = fi
			order = append(order, fi.key)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, key := range order {
			fi := funcs[key]
			for _, callee := range fi.calls {
				cf := funcs[callee]
				if cf == nil {
					continue
				}
				for c := range cf.acquires {
					if !fi.acquires[c] {
						fi.acquires[c] = true
						changed = true
					}
				}
			}
		}
	}
	for _, key := range order {
		fi := funcs[key]
		if len(fi.acquires) == 0 {
			continue
		}
		classes := make([]string, 0, len(fi.acquires))
		for c := range fi.acquires {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		if obj, ok := pass.TypesInfo.Defs[fi.decl.Name].(*types.Func); ok {
			pass.ExportObjectFact(obj, &Acquires{Classes: classes})
		}
	}

	// Pass 2: the held-set walk over every function body (and every
	// function literal as an independent body — a goroutine releases
	// nothing for its spawner).
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					p(pass).checkBody(fn.Body, funcs)
				}
				return true
			case *ast.FuncLit:
				p(pass).checkBody(fn.Body, funcs)
				return true
			}
			return true
		})
	}
	return nil
}

// checker wraps the pass with the lock-walk helpers.
type checker struct{ pass *analysis.Pass }

func p(pass *analysis.Pass) *checker { return &checker{pass} }

type heldLock struct {
	class    string
	pos      token.Pos
	deferred bool // a defer releases it at function exit
}

// checkBody runs the held-set machine over one function body. Nested
// function literals are skipped (each gets its own checkBody from the
// ast.Inspect in run).
func (c *checker) checkBody(body *ast.BlockStmt, funcs map[string]*funcInfo) {
	var held []heldLock
	c.walkStmts(body.List, &held, funcs)
	for _, h := range held {
		if !h.deferred && !NoReleaseCheck[h.class] {
			c.pass.Reportf(h.pos, "%s locked here is not released on every path out of the function (no defer, no unlock before the end)", h.class)
		}
	}
}

func (c *checker) walkStmts(stmts []ast.Stmt, held *[]heldLock, funcs map[string]*funcInfo) {
	for _, stmt := range stmts {
		c.walkStmt(stmt, held, funcs)
	}
}

func (c *checker) walkStmt(stmt ast.Stmt, held *[]heldLock, funcs map[string]*funcInfo) {
	switch s := stmt.(type) {
	case *ast.DeferStmt:
		if class := c.releaseClass(s.Call); class != "" {
			for i := len(*held) - 1; i >= 0; i-- {
				if (*held)[i].class == class && !(*held)[i].deferred {
					(*held)[i].deferred = true
					break
				}
			}
			return
		}
		c.checkCalls(s.Call, held, funcs)
	case *ast.ReturnStmt:
		for _, h := range *held {
			if !h.deferred && !NoReleaseCheck[h.class] {
				c.pass.Reportf(s.Pos(), "return while %s (locked at %s) is still held", h.class, analysis.RelPosition(c.pass.Fset.Position(h.pos)))
			}
		}
		for _, res := range s.Results {
			c.checkExprCalls(res, held, funcs)
		}
	case *ast.ExprStmt:
		c.checkExprCalls(s.X, held, funcs)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			c.checkExprCalls(rhs, held, funcs)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, held, funcs)
		}
		c.checkExprCalls(s.Cond, held, funcs)
		c.walkStmts(s.Body.List, held, funcs)
		if s.Else != nil {
			c.walkStmt(s.Else, held, funcs)
		}
	case *ast.BlockStmt:
		c.walkStmts(s.List, held, funcs)
	case *ast.ForStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, held, funcs)
		}
		c.walkStmts(s.Body.List, held, funcs)
	case *ast.RangeStmt:
		c.checkExprCalls(s.X, held, funcs)
		c.walkStmts(s.Body.List, held, funcs)
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, held, funcs)
		}
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				c.walkStmts(cl.Body, held, funcs)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				c.walkStmts(cl.Body, held, funcs)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CommClause); ok {
				c.walkStmts(cl.Body, held, funcs)
			}
		}
	case *ast.GoStmt:
		// The spawned goroutine's lock activity is its own; its body is
		// checked independently.
	case *ast.LabeledStmt:
		c.walkStmt(s.Stmt, held, funcs)
	}
}

// checkExprCalls visits every call in the expression in source order,
// updating the held set and checking ordering. Function literals are
// not entered.
func (c *checker) checkExprCalls(expr ast.Expr, held *[]heldLock, funcs map[string]*funcInfo) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			c.handleCall(call, held, funcs)
		}
		return true
	})
}

func (c *checker) checkCalls(call *ast.CallExpr, held *[]heldLock, funcs map[string]*funcInfo) {
	c.checkExprCalls(call, held, funcs)
}

func (c *checker) handleCall(call *ast.CallExpr, held *[]heldLock, funcs map[string]*funcInfo) {
	if class := c.acquireClass(call); class != "" {
		c.checkOrdering(call.Pos(), class, held)
		*held = append(*held, heldLock{class: class, pos: call.Pos()})
		return
	}
	if class := c.releaseClass(call); class != "" {
		for i := len(*held) - 1; i >= 0; i-- {
			if (*held)[i].class == class {
				*held = append((*held)[:i], (*held)[i+1:]...)
				return
			}
		}
		return
	}
	// Ordinary call: check the callee's transitive acquisitions
	// against the held set.
	pkgPath, key, fn, ok := analysis.FuncKey(c.pass.TypesInfo, call)
	if !ok {
		return
	}
	var classes []string
	if pkgPath == c.pass.Pkg.Path() {
		if fi := funcs[key]; fi != nil {
			for cl := range fi.acquires {
				classes = append(classes, cl)
			}
			sort.Strings(classes)
		}
	} else {
		var fact Acquires
		if c.pass.ImportObjectFact(fn, &fact) {
			classes = fact.Classes
		}
	}
	for _, cl := range classes {
		c.checkOrdering(call.Pos(), cl, held)
	}
}

func (c *checker) checkOrdering(pos token.Pos, class string, held *[]heldLock) {
	r := rank(class)
	if r < 0 {
		return
	}
	for _, h := range *held {
		hr := rank(h.class)
		if hr < 0 {
			continue
		}
		if h.class == class {
			c.pass.Reportf(pos, "acquiring %s while already holding it (locked at %s): self-deadlock on a non-reentrant mutex", class, analysis.RelPosition(c.pass.Fset.Position(h.pos)))
			continue
		}
		if r <= hr {
			c.pass.Reportf(pos, "lock-order inversion: acquiring %s while holding %s (locked at %s); the canonical order takes %s first", class, h.class, analysis.RelPosition(c.pass.Fset.Position(h.pos)), class)
		}
	}
}

// acquireClass returns the lock class a call acquires, or "".
func (c *checker) acquireClass(call *ast.CallExpr) string {
	fn := analysis.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil {
		return ""
	}
	if fn.Pkg() != nil {
		if class, ok := AcquireFuncs[fn.Pkg().Path()+"."+analysis.ObjectKey(fn)]; ok {
			return class
		}
	}
	if (fn.Name() == "Lock" || fn.Name() == "RLock") && isSyncMutexMethod(fn) {
		return c.mutexClass(call)
	}
	return ""
}

// releaseClass returns the lock class a call releases, or "".
func (c *checker) releaseClass(call *ast.CallExpr) string {
	fn := analysis.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil {
		return ""
	}
	if fn.Pkg() != nil {
		if class, ok := ReleaseFuncs[fn.Pkg().Path()+"."+analysis.ObjectKey(fn)]; ok {
			return class
		}
	}
	if (fn.Name() == "Unlock" || fn.Name() == "RUnlock") && isSyncMutexMethod(fn) {
		return c.mutexClass(call)
	}
	return ""
}

func isSyncMutexMethod(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "sync"
}

// mutexClass names the mutex a Lock/Unlock call operates on:
// "pkg.Type.field" for struct fields, "pkg.name" for package-level
// variables, the bare name for locals, "" when unidentifiable.
func (c *checker) mutexClass(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		s := c.pass.TypesInfo.Selections[x]
		if s == nil {
			return ""
		}
		t := s.Recv()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return ""
		}
		return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + s.Obj().Name()
	case *ast.Ident:
		obj := c.pass.TypesInfo.ObjectOf(x)
		if obj == nil {
			return ""
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		return obj.Name()
	}
	return ""
}
