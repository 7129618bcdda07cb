// Package detmerge guards the repeatability pillar on the reduction
// paths (DESIGN §15): everything reachable from the compaction entry
// point, the grouping pipeline's bucket merge, the engine's candidate
// scorer and the ILS restart reduction must combine results in
// deterministic index order, because two runs of the same optimization
// must produce byte-identical architectures.
//
// The analyzer walks the in-package call graph from the Roots entry
// points and flags, inside every reachable function:
//
//   - ranging over a map, unless the loop appends its key or value to
//     a slice the same function sorts (the collect-then-sort idiom); a
//     sort of anything else does not order the walk;
//
//   - a select with two or more receive cases — arrival-order
//     reduction;
//
//   - a call to an imported function carrying the MapOrder fact (its
//     body has a map range the first rule would flag), which is how
//     nondeterminism hiding in a helper package reaches the merge
//     path.
//
// The MapOrder fact is exported for every function in every analyzed
// package, so the check crosses package boundaries without whole-
// program analysis. Additional roots can be declared in source with a
// //sitlint:detmerge-root comment on the line above the function
// declaration.
package detmerge

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"sitam/internal/analysis"
)

// Roots lists the merge-path entry points as "pkgpath.key" (key is
// Name or Type.Name for methods). Mutable for the analysistest
// fixtures.
var Roots = map[string]bool{
	"sitam/internal/compaction.GreedyWith":      true,
	"sitam/internal/core.scoreCandidates":       true,
	"sitam/internal/core.Engine.OptimizeILSCtx": true,
}

// rootMarker promotes a function to a root from source.
const rootMarker = "//sitlint:detmerge-root"

// MapOrder is the object fact exported for functions whose body ranges
// over a map without collecting into a slice it sorts: callers on a
// deterministic merge path must not depend on their iteration order.
type MapOrder struct{}

func (*MapOrder) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name:      "detmerge",
	Doc:       "parallel reduction paths must merge in deterministic index order",
	Run:       run,
	FactTypes: []analysis.Fact{(*MapOrder)(nil)},
}

type funcNode struct {
	decl *ast.FuncDecl
	key  string
}

func run(pass *analysis.Pass) error {
	// Collect functions, export MapOrder facts, find this package's
	// roots.
	var nodes []*funcNode
	byKey := map[string]*funcNode{}
	var roots []*funcNode
	markers := markerLines(pass)
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
			n := &funcNode{decl: fd, key: analysis.ObjectKey(obj)}
			nodes = append(nodes, n)
			byKey[n.key] = n
			if hasUnorderedMapRange(pass, fd.Body) {
				pass.ExportObjectFact(obj, &MapOrder{})
			}
			pos := pass.Fset.Position(fd.Pos())
			if Roots[pass.Pkg.Path()+"."+n.key] || markers[posKey(pos.Filename, pos.Line)] {
				roots = append(roots, n)
			}
		}
	}
	if len(roots) == 0 {
		return nil
	}

	// BFS over the in-package call graph, recording the root that
	// first reaches each function.
	rootOf := map[string]string{}
	queue := roots
	for _, r := range roots {
		rootOf[r.key] = r.key
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		ast.Inspect(n.decl.Body, func(nd ast.Node) bool {
			call, ok := nd.(*ast.CallExpr)
			if !ok {
				return true
			}
			if pkgPath, key, _, ok := analysis.FuncKey(pass.TypesInfo, call); ok && pkgPath == pass.Pkg.Path() {
				if m := byKey[key]; m != nil && rootOf[key] == "" {
					rootOf[key] = rootOf[n.key]
					queue = append(queue, m)
				}
			}
			return true
		})
	}

	for _, n := range nodes {
		if root := rootOf[n.key]; root != "" {
			checkReachable(pass, n, root)
		}
	}
	return nil
}

// checkReachable flags the nondeterministic constructs inside one
// merge-path function, which root reaches.
func checkReachable(pass *analysis.Pass, n *funcNode, root string) {
	sorted := sortedSlices(pass, n.decl.Body)
	ast.Inspect(n.decl.Body, func(nd ast.Node) bool {
		switch v := nd.(type) {
		case *ast.RangeStmt:
			if isMapType(pass.TypesInfo.TypeOf(v.X)) && !collectsInto(pass, v, sorted) {
				pass.Reportf(v.Pos(), "map iteration on the deterministic merge path: collect keys and sort, or index by position (reachable from merge root %s)", root)
			}
		case *ast.SelectStmt:
			if receiveCases(v) >= 2 {
				pass.Reportf(v.Pos(), "select-based reduction merges in arrival order; receive from workers in index order instead")
			}
		case *ast.CallExpr:
			fn := analysis.CalleeFunc(pass.TypesInfo, v)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() == pass.Pkg.Path() {
				return true
			}
			var fact MapOrder
			if pass.ImportObjectFact(fn, &fact) {
				pass.Reportf(v.Pos(), "call to %s.%s on the deterministic merge path: its body ranges over a map in nondeterministic order", fn.Pkg().Path(), fn.Name())
			}
		}
		return true
	})
}

// hasUnorderedMapRange reports a map range in body that does not
// collect into a slice the body sorts — the exported MapOrder property.
func hasUnorderedMapRange(pass *analysis.Pass, body *ast.BlockStmt) bool {
	sorted := sortedSlices(pass, body)
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if r, ok := n.(*ast.RangeStmt); ok && isMapType(pass.TypesInfo.TypeOf(r.X)) && !collectsInto(pass, r, sorted) {
			found = true
		}
		return !found
	})
	return found
}

// sortedSlices returns the variables and fields body sorts: the first
// argument of every call into sort or slices.Sort*, seen through
// conversions and wrappers (sort.Sort(byID(ids)) sorts ids).
func sortedSlices(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	sorted := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if path := fn.Pkg().Path(); path == "sort" || path == "slices" && strings.HasPrefix(fn.Name(), "Sort") {
			if obj := sliceObject(pass, call.Args[0]); obj != nil {
				sorted[obj] = true
			}
		}
		return true
	})
	return sorted
}

// sliceObject returns the variable or field an expression names,
// looking through parentheses and through the first argument of a
// call; nil for anything else.
func sliceObject(pass *analysis.Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pass.TypesInfo.ObjectOf(e)
	case *ast.SelectorExpr:
		return pass.TypesInfo.ObjectOf(e.Sel)
	case *ast.CallExpr:
		if len(e.Args) > 0 {
			return sliceObject(pass, e.Args[0])
		}
	}
	return nil
}

// collectsInto reports whether the map range's body appends its key or
// value to one of the sorted slices — the collect-then-sort idiom, the
// only map range whose order a later sort erases.
func collectsInto(pass *analysis.Pass, r *ast.RangeStmt, sorted map[types.Object]bool) bool {
	vars := map[types.Object]bool{}
	for _, e := range []ast.Expr{r.Key, r.Value} {
		if id, ok := e.(*ast.Ident); ok {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				vars[obj] = true
			}
		}
	}
	if len(vars) == 0 || len(sorted) == 0 {
		return false
	}
	found := false
	ast.Inspect(r.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 || !isAppend(pass, call) || !sorted[sliceObject(pass, call.Args[0])] {
			return !found
		}
		for _, arg := range call.Args[1:] {
			found = found || mentions(pass, arg, vars)
		}
		return !found
	})
	return found
}

// isAppend reports a call of the append builtin.
func isAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, _ := ast.Unparen(call.Fun).(*ast.Ident)
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// mentions reports whether e refers to one of vars.
func mentions(pass *analysis.Pass, e ast.Expr, vars map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && vars[pass.TypesInfo.ObjectOf(id)] {
			found = true
		}
		return !found
	})
	return found
}

func receiveCases(s *ast.SelectStmt) int {
	n := 0
	for _, cc := range s.Body.List {
		cl, ok := cc.(*ast.CommClause)
		if !ok || cl.Comm == nil {
			continue // default case
		}
		switch c := cl.Comm.(type) {
		case *ast.ExprStmt, *ast.AssignStmt:
			_ = c
			n++
		}
	}
	return n
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// markerLines collects the lines holding //sitlint:detmerge-root
// comments; a function declared on the following line is a root.
func markerLines(pass *analysis.Pass) map[string]bool {
	lines := map[string]bool{}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, rootMarker) {
					pos := pass.Fset.Position(c.Pos())
					lines[posKey(pos.Filename, pos.Line+1)] = true
				}
			}
		}
	}
	return lines
}

func posKey(file string, line int) string {
	return fmt.Sprintf("%s:%d", file, line)
}
