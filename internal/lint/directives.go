package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// A directive is one //vchainlint:ignore comment: an explicit,
// reasoned exemption from a named analyzer. The syntax is
//
//	//vchainlint:ignore analyzer[,analyzer...] reason text
//
// A directive suppresses matching diagnostics on its own line and the
// line immediately below (so it can trail the offending statement or
// sit on its own line above it). When it appears in a function's doc
// comment, it covers the whole function body — the form used by the
// deliberate lock-freeze operation (core.FullNode.RestartSlot, behind
// shard restart), whose exemption is a property of the function, not of one
// statement. A reason is mandatory: an exemption the author cannot
// justify in half a line is a finding, not an exemption.
type directive struct {
	pos       token.Position
	analyzers []string
	reason    string
	// [from, to] is the inclusive line range the directive covers.
	from, to int
}

const directivePrefix = "//vchainlint:ignore"

// parseDirectives extracts every vchainlint:ignore directive from the
// files. Malformed directives (missing analyzer list or reason) are
// returned as diagnostics so they fail the lint run instead of
// silently suppressing nothing.
func parseDirectives(fset *token.FileSet, files []*ast.File) ([]directive, []Diagnostic) {
	var dirs []directive
	var bad []Diagnostic
	for _, f := range files {
		// Doc-comment directives widen to the whole declaration.
		span := map[*ast.Comment][2]int{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				span[c] = [2]int{fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				pos := fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Analyzer: "directive",
						Pos:      pos,
						Message:  "malformed vchainlint:ignore: want \"//vchainlint:ignore analyzer reason\"",
					})
					continue
				}
				d := directive{
					pos:       pos,
					analyzers: strings.Split(fields[0], ","),
					reason:    strings.Join(fields[1:], " "),
					from:      pos.Line,
					to:        pos.Line + 1,
				}
				if s, ok := span[c]; ok {
					d.from, d.to = s[0], s[1]
				}
				dirs = append(dirs, d)
			}
		}
	}
	return dirs, bad
}

// suppress filters diags through the directives: a diagnostic is
// dropped when a directive for its analyzer (or "all") covers its
// file and line.
func suppress(diags []Diagnostic, dirs []directive) []Diagnostic {
	if len(dirs) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		if !suppressed(d, dirs) {
			kept = append(kept, d)
		}
	}
	return kept
}

func suppressed(d Diagnostic, dirs []directive) bool {
	for _, dir := range dirs {
		if dir.pos.Filename != d.Pos.Filename {
			continue
		}
		if d.Pos.Line < dir.from || d.Pos.Line > dir.to {
			continue
		}
		for _, name := range dir.analyzers {
			if name == d.Analyzer || name == "all" {
				return true
			}
		}
	}
	return false
}
