package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockIO enforces the publish-lock discipline that fixed the
// crash-recovery torn-state race: while a node/shard mutex is held, no
// file or network I/O and no disjointness proving may run — those
// belong either before the critical section or in a designated
// choke-point callee. The one sanctioned shape is the
// *Locked-suffix convention: commitLocked-style functions take no lock
// themselves (their callers do) and are the reviewed, atomic
// check-persist-publish path, so calls to same-package *Locked
// functions under a lock are exempt. The deliberate whole-node freeze
// (core.FullNode.RestartSlot, behind shard restart) carries a
// function-scoped vchainlint:ignore directive instead.
//
// The check is intra-procedural with one level of same-package call
// propagation: a lock-holding function calling a same-package function
// that itself performs I/O is flagged unless the callee follows the
// *Locked convention.
var LockIO = &Analyzer{
	Name: "lockio",
	Doc: "no I/O or proving under node/shard publish locks\n\n" +
		"Flags file/network I/O, storage backend access, and " +
		"ProveDisjoint while a sync mutex is held, in internal/core, internal/shard, " +
		"and internal/subscribe.",
	Run: runLockIO,
}

// lockIOScope lists the package suffixes whose locks are publish
// locks. The storage layer itself is excluded by construction: a log
// engine's whole job is I/O under its own mutex.
var lockIOScope = []string{
	"internal/core",
	"internal/shard",
	"internal/subscribe",
}

// osIOFuncs are the file-touching entry points of package os;
// metadata-only helpers (IsNotExist, Getenv, ...) stay usable under a
// lock.
var osIOFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true, "MkdirTemp": true,
	"Remove": true, "RemoveAll": true, "Rename": true, "Truncate": true,
	"Mkdir": true, "MkdirAll": true, "Link": true, "Symlink": true,
}

// ioPkgFuncs are the blocking helpers of package io.
var ioPkgFuncs = map[string]bool{
	"Copy": true, "CopyN": true, "CopyBuffer": true, "ReadAll": true,
	"ReadFull": true, "WriteString": true,
}

// storageOps are the backend operations that move bytes.
var storageOps = map[string]bool{
	"Append": true, "Truncate": true, "Read": true, "Open": true,
}

// forbiddenOp classifies a callee as an operation banned under a
// publish lock, returning a human-readable description.
func forbiddenOp(fn *types.Func) (string, bool) {
	if fn == nil {
		return "", false
	}
	if fn.Name() == "ProveDisjoint" {
		return "disjointness proving (ProveDisjoint)", true
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	recv := fn.Signature().Recv()
	switch pkg.Path() {
	case "os":
		if recv != nil || osIOFuncs[fn.Name()] {
			return fmt.Sprintf("file I/O (os.%s)", fn.Name()), true
		}
	case "net":
		return fmt.Sprintf("network I/O (net.%s)", fn.Name()), true
	case "io":
		if recv == nil && ioPkgFuncs[fn.Name()] {
			return fmt.Sprintf("blocking I/O (io.%s)", fn.Name()), true
		}
	}
	if declaredIn(fn, "internal/storage") && storageOps[fn.Name()] {
		return fmt.Sprintf("storage backend %s", fn.Name()), true
	}
	return "", false
}

// lockEntry is one currently-held mutex: the receiver expression it
// was locked through, and where.
type lockEntry struct {
	expr string
	pos  token.Pos
}

type lockioScan struct {
	pass *Pass
	// funcIO maps same-package functions to a description of the I/O
	// they perform directly, for one-level call propagation.
	funcIO map[*types.Func]string
}

func runLockIO(pass *Pass) error {
	if !pathHasAnySuffix(pass.Pkg.Path(), lockIOScope...) {
		return nil
	}
	s := &lockioScan{pass: pass, funcIO: map[*types.Func]string{}}

	// Pre-pass: which functions in this package perform I/O directly?
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if desc, bad := forbiddenOp(calleeFunc(pass.Info, call)); bad {
					if _, seen := s.funcIO[fn]; !seen {
						s.funcIO[fn] = desc
					}
				}
				return true
			})
		}
	}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				s.scanStmts(fd.Body.List, &[]lockEntry{})
			}
		}
	}
	return nil
}

// lockOp classifies a statement-level call as a sync mutex
// acquisition/release, returning the lock's receiver expression.
func (s *lockioScan) lockOp(call *ast.CallExpr) (expr, op string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, _ := s.pass.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return types.ExprString(sel.X), fn.Name()
	}
	return "", ""
}

// scanStmts walks a statement list in execution order, maintaining the
// set of held locks.
func (s *lockioScan) scanStmts(stmts []ast.Stmt, held *[]lockEntry) {
	for _, st := range stmts {
		s.scanStmt(st, held)
	}
}

func (s *lockioScan) scanStmt(stmt ast.Stmt, held *[]lockEntry) {
	switch st := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if expr, op := s.lockOp(call); op != "" {
				switch op {
				case "Lock", "RLock":
					*held = append(*held, lockEntry{expr: expr, pos: call.Pos()})
				case "Unlock", "RUnlock":
					s.release(held, expr)
				}
				return
			}
		}
		s.checkNode(st.X, held)
	case *ast.DeferStmt:
		if expr, op := s.lockOp(st.Call); op == "Unlock" || op == "RUnlock" {
			// Held until return: the scan simply never releases expr.
			_ = expr
			return
		}
		// A deferred call runs before any deferred unlock registered
		// earlier, i.e. still under the lock.
		s.checkNode(st.Call, held)
	case *ast.GoStmt:
		// The spawned goroutine does not inherit the caller's locks,
		// but its argument expressions evaluate synchronously.
		for _, arg := range st.Call.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				s.scanStmts(lit.Body.List, &[]lockEntry{})
			} else {
				s.checkNode(arg, held)
			}
		}
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			s.scanStmts(lit.Body.List, &[]lockEntry{})
		}
	case *ast.BlockStmt:
		s.scanStmts(st.List, held)
	case *ast.IfStmt:
		if st.Init != nil {
			s.scanStmt(st.Init, held)
		}
		s.checkNode(st.Cond, held)
		s.scanStmts(st.Body.List, held)
		if st.Else != nil {
			s.scanStmt(st.Else, held)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			s.scanStmt(st.Init, held)
		}
		if st.Cond != nil {
			s.checkNode(st.Cond, held)
		}
		s.scanStmts(st.Body.List, held)
		if st.Post != nil {
			s.scanStmt(st.Post, held)
		}
	case *ast.RangeStmt:
		s.checkNode(st.X, held)
		s.scanStmts(st.Body.List, held)
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.scanStmt(st.Init, held)
		}
		if st.Tag != nil {
			s.checkNode(st.Tag, held)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.scanStmts(cc.Body, held)
			}
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			s.scanStmt(st.Init, held)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.scanStmts(cc.Body, held)
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					s.scanStmt(cc.Comm, held)
				}
				s.scanStmts(cc.Body, held)
			}
		}
	case *ast.LabeledStmt:
		s.scanStmt(st.Stmt, held)
	case nil:
	default:
		s.checkNode(st, held)
	}
}

// release drops the most recent hold of expr.
func (s *lockioScan) release(held *[]lockEntry, expr string) {
	for i := len(*held) - 1; i >= 0; i-- {
		if (*held)[i].expr == expr {
			*held = append((*held)[:i], (*held)[i+1:]...)
			return
		}
	}
}

// checkNode flags forbidden calls inside n while any lock is held.
// Function literals are scanned as their own bodies: closures defined
// under a lock are assumed to run under it (snapshot rollbacks,
// restore helpers), goroutine bodies are handled by scanStmt.
func (s *lockioScan) checkNode(n ast.Node, held *[]lockEntry) {
	ast.Inspect(n, func(node ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok {
			inherited := append([]lockEntry{}, *held...)
			s.scanStmts(lit.Body.List, &inherited)
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok || len(*held) == 0 {
			return true
		}
		lock := (*held)[len(*held)-1].expr
		fn := calleeFunc(s.pass.Info, call)
		if desc, bad := forbiddenOp(fn); bad {
			s.pass.Reportf(call.Pos(), "%s while %s is held: move it outside the critical section or into a *Locked choke-point callee", desc, lock)
			return true
		}
		// One level of propagation: same-package callees that perform
		// I/O themselves, unless they follow the *Locked convention.
		if fn != nil && fn.Pkg() == s.pass.Pkg && !strings.HasSuffix(fn.Name(), "Locked") {
			if desc, ok := s.funcIO[fn]; ok {
				s.pass.Reportf(call.Pos(), "call to %s, which performs %s, while %s is held", fn.Name(), desc, lock)
			}
		}
		return true
	})
}
