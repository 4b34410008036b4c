package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// TypedErr enforces the sentinel-error contract. The tree exposes
// typed sentinels (core.ErrSoundness, shard.ErrShardUnavailable,
// storage.ErrCorruptRecord, ...) that cross many wrapping layers —
// commit pipelines, the window planner, the retrying RPC client — so
// identity comparison silently breaks the moment anyone adds context
// with %w. Two findings:
//
//  1. comparing a sentinel with == or != (including switch cases):
//     use errors.Is;
//  2. passing a sentinel to fmt.Errorf under any verb but %w: the
//     flattened copy no longer matches errors.Is at the caller.
var TypedErr = &Analyzer{
	Name: "typederr",
	Doc: "sentinel errors are matched with errors.Is and wrapped with %w\n\n" +
		"Flags ==/!= and switch-case comparisons against exported Err* sentinels, " +
		"and fmt.Errorf calls that format a sentinel with a verb other than %w.",
	Run: runTypedErr,
}

// isSentinelRef reports whether e references an exported package-level
// error variable following the ErrXxx convention, in any package.
func isSentinelRef(info *types.Info, e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return "", false
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil {
		return "", false
	}
	if !strings.HasPrefix(v.Name(), "Err") || len(v.Name()) < 4 || !v.Exported() {
		return "", false
	}
	// Package scope only: locals named ErrX are not sentinels.
	if v.Parent() != v.Pkg().Scope() {
		return "", false
	}
	if !implementsError(v.Type()) {
		return "", false
	}
	return v.Name(), true
}

// implementsError reports whether t satisfies the error interface.
func implementsError(t types.Type) bool {
	iface, ok := t.Underlying().(*types.Interface)
	if ok {
		// The error interface itself (and supersets declaring Error).
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			if m.Name() == "Error" && m.Signature().Params().Len() == 0 {
				return true
			}
		}
	}
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if f, ok := ms.At(i).Obj().(*types.Func); ok && f.Name() == "Error" &&
			f.Signature().Params().Len() == 0 && f.Signature().Results().Len() == 1 {
			return true
		}
	}
	return false
}

func runTypedErr(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.BinaryExpr:
				if node.Op != token.EQL && node.Op != token.NEQ {
					return true
				}
				for _, side := range []ast.Expr{node.X, node.Y} {
					if name, ok := isSentinelRef(pass.Info, side); ok {
						pass.Reportf(node.Pos(), "%s compared with %s: wrapped errors never match identity, use errors.Is", name, node.Op)
						break
					}
				}
			case *ast.SwitchStmt:
				if node.Tag == nil {
					return true
				}
				for _, c := range node.Body.List {
					cc, ok := c.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, e := range cc.List {
						if name, ok := isSentinelRef(pass.Info, e); ok {
							pass.Reportf(e.Pos(), "switch case compares %s by identity: wrapped errors never match, use errors.Is", name)
						}
					}
				}
			case *ast.CallExpr:
				checkErrorfSentinel(pass, node)
			}
			return true
		})
	}
	return nil
}

// checkErrorfSentinel flags fmt.Errorf calls that format a sentinel
// error under a verb other than %w.
func checkErrorfSentinel(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Name() != "Errorf" || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	format, ok := stringConstant(pass.Info, call.Args[0])
	if !ok {
		return
	}
	verbs, ok := formatVerbs(format)
	if !ok {
		return
	}
	for i, arg := range call.Args[1:] {
		name, sentinel := isSentinelRef(pass.Info, arg)
		if !sentinel {
			continue
		}
		if i < len(verbs) && verbs[i] != 'w' {
			pass.Reportf(arg.Pos(), "%s formatted with %%%c: the result no longer matches errors.Is(err, %s), wrap with %%w", name, verbs[i], name)
		}
	}
}

// stringConstant evaluates e as a constant string.
func stringConstant(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// formatVerbs extracts the verb letter consuming each successive
// argument of a fmt format string. It returns ok=false on constructs
// it does not model (explicit argument indexes) rather than guessing.
func formatVerbs(format string) ([]byte, bool) {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i < len(format) && format[i] == '%' {
			continue
		}
		// Flags, width, precision; '*' consumes an argument of its own.
		for i < len(format) {
			c := format[i]
			if c == '*' {
				verbs = append(verbs, '*')
				i++
				continue
			}
			if c == '[' {
				return nil, false
			}
			if strings.ContainsRune("+-# 0.", rune(c)) || c >= '0' && c <= '9' {
				i++
				continue
			}
			break
		}
		if i >= len(format) {
			break
		}
		verbs = append(verbs, format[i])
	}
	return verbs, true
}
