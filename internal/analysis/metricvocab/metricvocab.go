// Package metricvocab pins the Prometheus exposition surface to the
// closed DESIGN §13 vocabulary (DESIGN §15): every series name and
// label key that can reach the sitamd /metrics endpoint must be a
// compile-time member of Vocab/LabelKeys, so a fleet's dashboards and
// alerts never meet an unplanned series.
//
// The analyzer checks the name argument of every
// Counter/Gauge/Histogram/HistogramBuckets call on an *obs.Registry in
// Scope. The argument must be one of:
//
//   - a constant string in Vocab;
//
//   - an obs.Labels(...) call whose name is a constant in Vocab and
//     whose label keys (the even variadic positions) are constants in
//     LabelKeys — label values stay free;
//
//   - a call to a function carrying the VocabFunc fact: every one of
//     its returns is a single constant string in Vocab (the closed-
//     switch helper idiom). The fact crosses package boundaries.
//
// Snapshot reads (res.Metrics.Counter(...)) are not registrations and
// are out of scope.
package metricvocab

import (
	"go/ast"
	"go/constant"
	"go/types"

	"sitam/internal/analysis"
)

// Scope lists the packages whose metric registrations are checked.
// Mutable for the analysistest fixtures.
var Scope = map[string]bool{
	"sitam/internal/serve": true,
}

// Vocab is the closed set of series names from DESIGN §13.
var Vocab = map[string]bool{
	"serve_shed":          true,
	"serve_admitted":      true,
	"serve_queue_depth":   true,
	"serve_running":       true,
	"serve_panics":        true,
	"serve_job_ms":        true,
	"serve_cache_entries": true,
	"serve_replayed":      true,
	"serve_orphaned":      true,
	"serve_reused":        true,
	"serve_done":          true,
	"serve_partial":       true,
	"serve_failed":        true,
	"serve_canceled":      true,
	"sitam_jobs_total":    true,
	"sitam_job_phase_ms":  true,
	"sitam_build_info":    true,
}

// LabelKeys is the closed set of label keys.
var LabelKeys = map[string]bool{
	"state":     true,
	"phase":     true,
	"version":   true,
	"goversion": true,
}

// registryMethods are the series-creating entry points on
// *obs.Registry.
var registryMethods = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true, "HistogramBuckets": true,
}

const obsPath = "sitam/internal/obs"

// VocabFunc is the object fact exported for functions whose every
// return is a single constant string inside Vocab — sanctioned
// series-name helpers.
type VocabFunc struct{}

func (*VocabFunc) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name:      "metricvocab",
	Doc:       "metric series names and label keys must come from the closed DESIGN §13 vocabulary",
	Run:       run,
	FactTypes: []analysis.Fact{(*VocabFunc)(nil)},
}

func run(pass *analysis.Pass) error {
	// Fact export first (everywhere), so same-package helper calls
	// resolve during the check below.
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if returnsOnlyVocab(pass, fd) {
				if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					pass.ExportObjectFact(obj, &VocabFunc{})
				}
			}
		}
	}
	if !Scope[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isRegistryMethod(pass, call) && len(call.Args) > 0 {
				checkName(pass, call.Args[0])
			}
			return true
		})
	}
	return nil
}

// checkName validates one series-name argument.
func checkName(pass *analysis.Pass, arg ast.Expr) {
	arg = ast.Unparen(arg)
	if name, ok := constString(pass, arg); ok {
		if !Vocab[name] {
			pass.Reportf(arg.Pos(), "metric series %q is not in the DESIGN §13 vocabulary", name)
		}
		return
	}
	if call, ok := arg.(*ast.CallExpr); ok {
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == obsPath && fn.Name() == "Labels" {
			checkLabels(pass, call)
			return
		}
		if fn != nil {
			var fact VocabFunc
			if pass.ImportObjectFact(fn, &fact) {
				return
			}
		}
	}
	pass.Reportf(arg.Pos(), "metric series name is not a compile-time member of the DESIGN §13 vocabulary: use a Vocab constant, obs.Labels, or a closed-switch helper")
}

// checkLabels validates an obs.Labels(name, k, v, k, v, ...) call.
func checkLabels(pass *analysis.Pass, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	if name, ok := constString(pass, call.Args[0]); !ok {
		pass.Reportf(call.Args[0].Pos(), "obs.Labels series name is not a compile-time member of the DESIGN §13 vocabulary")
	} else if !Vocab[name] {
		pass.Reportf(call.Args[0].Pos(), "metric series %q is not in the DESIGN §13 vocabulary", name)
	}
	for i := 1; i < len(call.Args); i += 2 {
		if key, ok := constString(pass, call.Args[i]); !ok {
			pass.Reportf(call.Args[i].Pos(), "obs.Labels label key is not a compile-time constant")
		} else if !LabelKeys[key] {
			pass.Reportf(call.Args[i].Pos(), "label key %q is not in the closed label vocabulary", key)
		}
	}
}

// returnsOnlyVocab reports whether every return in the function yields
// a single constant string contained in Vocab.
func returnsOnlyVocab(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Results == nil || len(fd.Type.Results.List) != 1 {
		return false
	}
	returns := 0
	ok := true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		ret, isRet := n.(*ast.ReturnStmt)
		if !isRet {
			return true
		}
		returns++
		if len(ret.Results) != 1 {
			ok = false
			return true
		}
		if name, isConst := constString(pass, ret.Results[0]); !isConst || !Vocab[name] {
			ok = false
		}
		return true
	})
	return ok && returns > 0
}

func isRegistryMethod(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != obsPath || !registryMethods[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	return isNamed && named.Obj().Name() == "Registry"
}

func constString(pass *analysis.Pass, expr ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[ast.Unparen(expr)]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
