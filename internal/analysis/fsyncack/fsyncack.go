// Package fsyncack enforces the durability contract of the two on-disk
// journals (DESIGN §15): the serve job journal acknowledges a write
// only after fsync, and the persistent cache file funnels every raw
// write through its checksummed record encoder. The analyzer pins both
// properties to the file descriptors themselves.
//
// Three rules:
//
//  1. ownership — a Write-family call on a journal fd field
//     (JournalFields) outside a method of the owning type is an error:
//     all mutation goes through the owner's append path.
//
//  2. sync-before-ack — inside an owner method, a Write on the journal
//     fd must be followed by a Sync on the same fd later in the same
//     function, unless the written bytes come from a registered
//     checksummed encoder (ChecksumWriters) — the cache file's
//     deliberately unsynced, checksummed appends.
//
//  3. durable acknowledgement — owner methods that Sync the journal fd
//     export the Durable fact; any call to a Durable function whose
//     error is discarded (expression statement, blank assignment, or
//     defer) is flagged, because the caller acknowledges work whose
//     durability it never learned. The fact crosses package
//     boundaries: the scheduler's journal.Append calls are checked in
//     sitam/internal/serve against facts exported from the same pass,
//     and external callers of core.(*CacheFile).Sync are checked
//     wherever they live.
package fsyncack

import (
	"go/ast"
	"go/token"
	"go/types"

	"sitam/internal/analysis"
)

// Scope lists the packages that own journal fds; rules 1 and 2 and the
// fact export run there. Mutable for the analysistest fixtures.
var Scope = map[string]bool{
	"sitam/internal/serve": true,
	"sitam/internal/core":  true,
}

// JournalFields names the fd struct fields under the durability
// contract, as "pkgpath.Type.field".
var JournalFields = map[string]bool{
	"sitam/internal/serve.Journal.f":  true,
	"sitam/internal/core.CacheFile.f": true,
}

// ChecksumWriters names the record encoders whose output may be
// written without an immediate fsync (torn tails are detected by
// checksum on the next open), as "pkgpath.name".
var ChecksumWriters = map[string]bool{
	"sitam/internal/core.appendCacheRecord": true,
}

// writeMethods are the (*os.File) mutation entry points rule 1 and 2
// intercept.
var writeMethods = map[string]bool{"Write": true, "WriteString": true, "WriteAt": true}

// Durable is the object fact exported for owner methods that fsync a
// journal fd: their error return carries the durability verdict and
// must not be discarded.
type Durable struct{}

func (*Durable) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name:      "fsyncack",
	Doc:       "journal writes fsync before acknowledgement; durable-call errors must be checked",
	Run:       run,
	FactTypes: []analysis.Fact{(*Durable)(nil)},
}

func run(pass *analysis.Pass) error {
	if Scope[pass.Pkg.Path()] {
		for _, f := range pass.Files {
			if pass.InTestFile(f.Pos()) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkOwnerRules(pass, fd)
			}
		}
	}
	// Rule 3 runs everywhere: Durable facts flow to any importer.
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		checkDiscardedDurable(pass, f)
	}
	return nil
}

// checkOwnerRules applies rules 1 and 2 to one function and exports
// the Durable fact.
func checkOwnerRules(pass *analysis.Pass, fd *ast.FuncDecl) {
	owner := receiverTypeName(pass, fd)

	// Idents assigned from a checksummed encoder anywhere in the
	// function may be written raw.
	checksummed := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isChecksumWriter(pass, call) {
				continue
			}
			if id, ok := assign.Lhs[i].(*ast.Ident); ok {
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
					checksummed[obj] = true
				}
			}
		}
		return true
	})

	type fieldCall struct {
		call  *ast.CallExpr
		field string
	}
	var writes []fieldCall
	syncs := map[string][]token.Pos{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, field, ok := journalFieldCall(pass, call)
		if !ok {
			return true
		}
		switch {
		case writeMethods[name]:
			if owner == "" || !ownsField(owner, field) {
				pass.Reportf(call.Pos(), "raw %s on journal fd %s outside its owner's methods: all mutation goes through the owner's append path", name, field)
				return true
			}
			// Checksummed-encoder escape: bytes carry their own
			// integrity check, torn tails are repaired on open.
			if len(call.Args) > 0 {
				switch arg := ast.Unparen(call.Args[0]).(type) {
				case *ast.CallExpr:
					if isChecksumWriter(pass, arg) {
						return true
					}
				case *ast.Ident:
					if obj := pass.TypesInfo.ObjectOf(arg); obj != nil && checksummed[obj] {
						return true
					}
				}
			}
			writes = append(writes, fieldCall{call, field})
		case name == "Sync":
			syncs[field] = append(syncs[field], call.Pos())
		}
		return true
	})

	for _, w := range writes {
		synced := false
		for _, pos := range syncs[w.field] {
			if pos > w.call.Pos() {
				synced = true
				break
			}
		}
		if !synced {
			pass.Reportf(w.call.Pos(), "write to journal fd %s with no fsync before the function returns: the append is acknowledged before it is durable", w.field)
		}
	}

	if owner != "" && len(syncs) > 0 {
		if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
			pass.ExportObjectFact(obj, &Durable{})
		}
	}
}

// checkDiscardedDurable applies rule 3 to one file.
func checkDiscardedDurable(pass *analysis.Pass, f *ast.File) {
	report := func(call *ast.CallExpr, fn *types.Func) {
		pass.Reportf(call.Pos(), "call to %s discards the error that carries its durability verdict", fn.Name())
	}
	durableCall := func(expr ast.Expr) (*ast.CallExpr, *types.Func, bool) {
		call, ok := ast.Unparen(expr).(*ast.CallExpr)
		if !ok {
			return nil, nil, false
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return nil, nil, false
		}
		var fact Durable
		if !pass.ImportObjectFact(fn, &fact) {
			return nil, nil, false
		}
		return call, fn, true
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, fn, ok := durableCall(s.X); ok {
				report(call, fn)
			}
		case *ast.DeferStmt:
			if fn := analysis.CalleeFunc(pass.TypesInfo, s.Call); fn != nil {
				var fact Durable
				if pass.ImportObjectFact(fn, &fact) {
					report(s.Call, fn)
				}
			}
		case *ast.AssignStmt:
			if len(s.Rhs) != 1 {
				return true
			}
			call, fn, ok := durableCall(s.Rhs[0])
			if !ok {
				return true
			}
			for _, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
					return true
				}
			}
			report(call, fn)
		}
		return true
	})
}

// journalFieldCall matches a method call on a JournalFields fd and
// returns the method name and the field class.
func journalFieldCall(pass *analysis.Pass, call *ast.CallExpr) (name, field string, ok bool) {
	sel, selOK := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !selOK {
		return "", "", false
	}
	inner, innerOK := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !innerOK {
		return "", "", false
	}
	s := pass.TypesInfo.Selections[inner]
	if s == nil {
		return "", "", false
	}
	named, namedOK := derefNamed(s.Recv())
	if !namedOK || named.Obj().Pkg() == nil {
		return "", "", false
	}
	field = named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + s.Obj().Name()
	if !JournalFields[field] {
		return "", "", false
	}
	return sel.Sel.Name, field, true
}

// receiverTypeName returns "pkgpath.Type" for a method, "" otherwise.
func receiverTypeName(pass *analysis.Pass, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	named, ok := derefNamed(t)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// ownsField reports whether the owner type prefix matches the field
// class "pkg.Type.field".
func ownsField(owner, field string) bool {
	return len(field) > len(owner) && field[:len(owner)] == owner && field[len(owner)] == '.'
}

func isChecksumWriter(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	return fn != nil && fn.Pkg() != nil && ChecksumWriters[fn.Pkg().Path()+"."+analysis.ObjectKey(fn)]
}

func derefNamed(t types.Type) (*types.Named, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}
