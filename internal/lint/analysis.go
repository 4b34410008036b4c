// Package lint implements vchain's project-specific static analyzers:
// mechanical enforcement of the invariants the codebase otherwise
// carries only as convention. Each analyzer encodes one rule that has
// already cost a real bug or that a future PR could silently erode:
//
//   - commitpath: (block, ADS) commits flow through the core/shard
//     choke points — no direct storage backend mutation elsewhere.
//   - lockio: no file/network I/O or proving while a node/shard
//     publish mutex is held (the crash-recovery torn-state race).
//   - typederr: sentinel errors are matched with errors.Is, never ==,
//     and are wrapped with %w, never flattened through %v.
//   - ctxflow: exported concurrency entry points in the service and
//     proofs layers accept a context.Context.
//
// TestRepositoryLintClean runs the suite over the whole module as part
// of `go test ./...`; cmd/vchain-lint runs it from the command line (a
// subset with -run, machine-readable with -json). The framework below
// is a minimal, self-contained analogue of golang.org/x/tools/go/analysis
// (which is not vendored here): an Analyzer inspects one type-checked
// package at a time through a Pass and reports position-anchored
// diagnostics.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named, self-contained check. Analyzers are stateless
// and safe to run over any package; each one narrows itself to the
// packages its invariant governs (see scope helpers below).
type Analyzer struct {
	// Name identifies the analyzer in reports, -run filters, and
	// vchainlint:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description: first line is a summary.
	Doc string
	// Run inspects the package behind pass and reports findings. A
	// returned error aborts the whole run (it means the analyzer is
	// broken, not that the code has findings).
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed files, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's expression/object tables.
	Info *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional
// file:line:col: message [analyzer] form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file. Analyzers
// whose invariant governs production code paths (ctxflow, commitpath)
// skip test files, where poking internals directly is the point.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// pathHasSuffix reports whether pkgPath is suffix or ends in /suffix.
// Matching by suffix rather than full path keeps the analyzers honest
// in their own fixtures, whose packages live under synthetic roots
// (e.g. lockio/internal/core) mirroring the real layout.
func pathHasSuffix(pkgPath, suffix string) bool {
	return pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix)
}

// pathHasAnySuffix reports whether pkgPath matches any of the suffixes.
func pathHasAnySuffix(pkgPath string, suffixes ...string) bool {
	for _, s := range suffixes {
		if pathHasSuffix(pkgPath, s) {
			return true
		}
	}
	return false
}

// calleeFunc resolves the function or method a call invokes, or nil
// for calls through function-typed variables, built-ins, and type
// conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// declaredIn reports whether obj is declared in a package whose import
// path matches suffix (see pathHasSuffix).
func declaredIn(obj types.Object, suffix string) bool {
	return obj != nil && obj.Pkg() != nil && pathHasSuffix(obj.Pkg().Path(), suffix)
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// hasContextParam reports whether the function type accepts a
// context.Context anywhere in its parameter list.
func hasContextParam(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}
