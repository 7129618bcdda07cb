// Package detmerge guards the repeatability pillar on the parallel
// reduction paths (DESIGN §15): everything reachable from the
// compaction entry point, the grouping pipeline's bucket merge and the
// parallel evaluator's candidate map must combine results in
// deterministic index order, because two runs of the same optimization
// must produce byte-identical architectures.
//
// The analyzer walks the in-package call graph from the Roots entry
// points and flags, inside every reachable function:
//
//   - ranging over a map, unless the function also sorts (a
//     collect-then-sort.Ints walk is the sanctioned idiom);
//
//   - a select with two or more receive cases — arrival-order
//     reduction;
//
//   - a call to an imported function carrying the MapOrder fact (its
//     body ranges over a map without sorting), which is how
//     nondeterminism hiding in a helper package reaches the merge
//     path.
//
// The MapOrder fact is exported for every function in every analyzed
// package, so the check crosses package boundaries without whole-
// program analysis. Additional roots can be declared in source with a
// //sitlint:detmerge-root comment on the line above the function
// declaration. Per-site exemptions use //sitlint:allow detmerge.
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
	"sitam/internal/compaction.GreedyWith":                true,
	"sitam/internal/core.ParallelEvaluator.mapCandidates": true,
}

// rootMarker promotes a function to a root from source.
const rootMarker = "//sitlint:detmerge-root"

// MapOrder is the object fact exported for functions whose body ranges
// over a map without sorting: callers on a deterministic merge path
// must not depend on their iteration order.
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
			if hasUnsortedMapRange(pass, fd.Body) {
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

	// BFS over the in-package call graph.
	reachable := map[string]bool{}
	queue := roots
	for _, r := range roots {
		reachable[r.key] = true
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
				if m := byKey[key]; m != nil && !reachable[key] {
					reachable[key] = true
					queue = append(queue, m)
				}
			}
			return true
		})
	}

	for _, n := range nodes {
		if reachable[n.key] {
			checkReachable(pass, n)
		}
	}
	return nil
}

// checkReachable flags the nondeterministic constructs inside one
// merge-path function.
func checkReachable(pass *analysis.Pass, n *funcNode) {
	sorted := containsSortCall(pass, n.decl.Body)
	ast.Inspect(n.decl.Body, func(nd ast.Node) bool {
		switch v := nd.(type) {
		case *ast.RangeStmt:
			if isMapType(pass.TypesInfo.TypeOf(v.X)) && !sorted {
				pass.Reportf(v.Pos(), "map iteration on the deterministic merge path: collect keys and sort, or index by position (reachable from %s)", rootsLabel())
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

// hasUnsortedMapRange reports a map range in a body with no sort call
// — the exported MapOrder property.
func hasUnsortedMapRange(pass *analysis.Pass, body *ast.BlockStmt) bool {
	if containsSortCall(pass, body) {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if r, ok := n.(*ast.RangeStmt); ok && isMapType(pass.TypesInfo.TypeOf(r.X)) {
			found = true
		}
		return !found
	})
	return found
}

// containsSortCall reports any call into sort or slices.Sort* — the
// sanctioned collect-then-sort idiom.
func containsSortCall(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort":
			found = true
		case "slices":
			if strings.HasPrefix(fn.Name(), "Sort") {
				found = true
			}
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

func rootsLabel() string { return "GreedyWith/ParallelEvaluator merge roots" }
