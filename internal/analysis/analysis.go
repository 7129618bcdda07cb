// Package analysis is a small, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis vocabulary: an Analyzer is a named
// check with a Run function, a Pass hands the Run function one
// type-checked package, and diagnostics are reported through the Pass.
//
// The subset mirrors the x/tools names (Analyzer, Pass, Diagnostic,
// Reportf, Fact, ExportObjectFact/ImportObjectFact) so that, should the
// real module ever become available to this repo, the analyzers port by
// changing one import path. The subset includes object facts: an
// analyzer can attach a fact to a package-level object while analyzing
// its defining package and read it back when a later package
// references that object. Facts flow through a Session — one per lint
// run, which analyzes the packages in dependency order — and are keyed
// by (analyzer, package path, object key) strings rather than object
// identity, so a fact exported while type-checking a package from
// source is found again when the same object is reached through
// compiled export data.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
)

// Analyzer describes one lint pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. By convention a
	// lowercase single word.
	Name string

	// Doc is the analyzer's documentation: first line summary, then
	// the invariant it enforces.
	Doc string

	// Run applies the analyzer to one package, reporting diagnostics
	// through pass.Report. The returned error aborts the whole lint
	// run and is reserved for analyzer bugs, not findings.
	Run func(pass *Pass) error

	// FactTypes lists prototype values (pointers to struct types
	// implementing Fact) of every fact kind the analyzer exports or
	// imports; an ExportObjectFact of an unlisted type panics.
	FactTypes []Fact
}

// Fact is an observation an analyzer attaches to an object in one
// package and consumes in downstream packages. Implementations are
// pointers to structs; the AFact marker method keeps arbitrary types
// out of the fact store.
type Fact interface{ AFact() }

// Pass is the interface between one Analyzer and one type-checked
// package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. Set by the driver; analyzers
	// normally call Reportf instead.
	Report func(Diagnostic)

	session *Session
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// RelPosition formats pos as file:line:col, with the file relative to
// the working directory when it lies below it. sitlint prints each
// diagnostic's own position this way, and a message that names another
// position uses it too, so a finding reads the same in every checkout.
func RelPosition(pos token.Position) string {
	name := pos.Filename
	if cwd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
	}
	return fmt.Sprintf("%s:%d:%d", name, pos.Line, pos.Column)
}

// InTestFile reports whether pos lies in a _test.go file. The sitlint
// analyzers skip test files: tests deliberately violate invariants to
// prove the production code defends them, and the run-time checks
// they exercise are the dynamic counterpart of these static ones.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.File(pos).Name(), "_test.go")
}

// ObjectKey is the session-stable name of a package-level object:
// "Name" for functions, variables and types, "Recv.Name" for methods
// (pointer receivers dereferenced). The key deliberately carries no
// type identity so that the source-checked and export-data views of
// the same object agree.
func ObjectKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return named.Obj().Name() + "." + fn.Name()
			}
		}
	}
	return obj.Name()
}

// ExportObjectFact attaches fact to obj for downstream packages. The
// object must belong to some package (builtins are ignored) and the
// fact's type must be listed in the analyzer's FactTypes.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || obj.Pkg() == nil {
		return
	}
	p.checkFactType(fact)
	p.session.setFact(p.Analyzer.Name, obj.Pkg().Path(), ObjectKey(obj), fact)
}

// ImportObjectFact copies the fact of the receiver's analyzer attached
// to obj into fact (a pointer to the matching struct type) and reports
// whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	p.checkFactType(fact)
	return p.session.getFact(p.Analyzer.Name, obj.Pkg().Path(), ObjectKey(obj), fact)
}

func (p *Pass) checkFactType(fact Fact) {
	t := reflect.TypeOf(fact)
	for _, proto := range p.Analyzer.FactTypes {
		if reflect.TypeOf(proto) == t {
			return
		}
	}
	panic(fmt.Sprintf("%s: fact type %T not declared in FactTypes", p.Analyzer.Name, fact))
}

// Package is one loaded, type-checked package an analyzer can run on.
// Both the sitlint driver and the analysistest fixture runner produce
// this shape.
type Package struct {
	Path      string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// factKey names one stored fact. Object facts are keyed by strings so
// they survive the source-vs-export-data object identity split.
type factKey struct {
	analyzer string
	pkg      string
	object   string
	typ      reflect.Type
}

// Session carries the cross-package state of one lint run: the fact
// store. A Session is not safe for concurrent use; drivers analyze
// packages sequentially in dependency order.
type Session struct {
	facts map[factKey]Fact
}

// NewSession returns an empty session.
func NewSession() *Session {
	return &Session{facts: map[factKey]Fact{}}
}

func (s *Session) setFact(analyzer, pkg, object string, fact Fact) {
	s.facts[factKey{analyzer, pkg, object, reflect.TypeOf(fact)}] = fact
}

func (s *Session) getFact(analyzer, pkg, object string, fact Fact) bool {
	stored, ok := s.facts[factKey{analyzer, pkg, object, reflect.TypeOf(fact)}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// RunSession applies one analyzer to one package inside an ongoing
// session and returns its diagnostics sorted by position: facts
// exported by earlier packages are visible, and facts exported here
// stay for later packages.
func RunSession(s *Session, a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	var out []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		session:   s,
	}
	pass.Report = func(d Diagnostic) {
		if d.Analyzer == "" {
			d.Analyzer = a.Name
		}
		out = append(out, d)
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// FuncFromPkg resolves a call expression to a package-level function
// or method object declared in the package with the given import path,
// or nil. Builtins, conversions and locals yield nil.
func FuncFromPkg(info *types.Info, call *ast.CallExpr, pkgPath string) *types.Func {
	fn := CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return nil
	}
	return fn
}

// CalleeFunc resolves a call's callee to a *types.Func (function or
// method), or nil for builtins, conversions and calls of non-named
// function values.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// FuncKey is the fact object key of a call's callee together with its
// defining package path — the handle analyzers use to look up facts
// for both in-package and imported functions. ok is false for
// builtins, conversions and dynamic calls.
func FuncKey(info *types.Info, call *ast.CallExpr) (pkgPath, key string, fn *types.Func, ok bool) {
	fn = CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", "", nil, false
	}
	return fn.Pkg().Path(), ObjectKey(fn), fn, true
}
