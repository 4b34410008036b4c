package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxFlow keeps cancellation plumbed through the layers where a query
// can fan out or block: the RPC service and the proof engine.
// context.Context is threaded end to end (client deadline → wire →
// server → planner → proofs) precisely because an uncancellable
// blocking path wedges the whole SP when one shard or peer stalls.
// This analyzer stops regressions: an exported function in those
// layers that spawns goroutines or blocks on channels must accept a
// context.Context. The sanctioned legacy shape is a thin wrapper
// delegating to the ctx-taking variant (Serve → ServeCtx): the wrapper
// itself neither spawns nor blocks, so it passes. The window planner is
// out of scope: it walks on the calling goroutine and blocks only
// inside the proof engine's Run.WaitCtx.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "exported concurrency entry points accept a context.Context\n\n" +
		"Flags exported functions in internal/service and internal/proofs that start " +
		"goroutines or block on channels without a ctx parameter.",
	Run: runCtxFlow,
}

// ctxFlowPackages are the packages in scope.
var ctxFlowPackages = []string{
	"internal/service",
	"internal/proofs",
}

func runCtxFlow(pass *Pass) error {
	if !pathHasAnySuffix(pass.Pkg.Path(), ctxFlowPackages...) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if pass.InTestFile(fd.Pos()) {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil || !methodOnExportedType(fn) || hasContextParam(fn.Signature()) {
				continue
			}
			if op, pos := firstBlockingOp(pass, fd.Body); op != "" {
				pass.Reportf(pos, "exported %s %s but accepts no context.Context: add a ctx parameter (or delegate to a Ctx variant)", fd.Name.Name, op)
			}
		}
	}
	return nil
}

// methodOnExportedType reports whether fn is a plain function or a
// method on an exported receiver type — methods on unexported types
// are not part of the package's surface.
func methodOnExportedType(fn *types.Func) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return true
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Exported()
	}
	return true
}

// firstBlockingOp finds the first goroutine spawn or blocking channel
// operation directly in body. Function literals are skipped: what a
// callback does when invoked is its caller's concern, and goroutine
// bodies are already behind the flagged `go` statement.
func firstBlockingOp(pass *Pass, body *ast.BlockStmt) (op string, pos token.Pos) {
	// Comm statements of a select carrying a default clause are
	// non-blocking attempts, not blocking channel ops.
	nonBlocking := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if op != "" {
			return false
		}
		if nonBlocking[n] {
			return false
		}
		switch node := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			op, pos = "starts a goroutine", node.Pos()
			return false
		case *ast.SendStmt:
			op, pos = "sends on a channel", node.Pos()
			return false
		case *ast.UnaryExpr:
			if node.Op == token.ARROW {
				op, pos = "receives from a channel", node.Pos()
				return false
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range node.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				op, pos = "blocks in a select", node.Pos()
				return false
			}
			for _, c := range node.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					nonBlocking[cc.Comm] = true
				}
			}
		case *ast.RangeStmt:
			if tv, ok := pass.Info.Types[node.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					op, pos = "ranges over a channel", node.Pos()
					return false
				}
			}
		}
		return true
	})
	return op, pos
}
