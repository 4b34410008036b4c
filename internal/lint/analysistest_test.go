package lint

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// RunFixture loads the fixture package at testdata/src/<path>, runs
// the analyzer over it, and checks the diagnostics against the
// package's `// want "regexp"` annotations: every diagnostic must
// match a want on its line, and every want must be matched — the same
// contract as golang.org/x/tools/go/analysis/analysistest, implemented
// here on the standard library alone. Ignore directives apply, so a
// fixture can also pin the suppression behavior.
func RunFixture(t *testing.T, a *Analyzer, path string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	imp := newFixtureImporter(root, fset)
	pkg, err := loadFixturePackage(fset, imp, path, filepath.Join(root, filepath.FromSlash(path)))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", path, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s: type error: %v", path, terr)
	}
	diags, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, path, err)
	}

	wants := collectWants(t, pkg)
	for _, d := range diags {
		key := posKey{file: d.Pos.Filename, line: d.Pos.Line}
		matched := false
		for i, w := range wants[key] {
			if w.used || !w.rx.MatchString(d.Message) {
				continue
			}
			wants[key][i].used = true
			matched = true
			break
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", d.Pos.Filename, d.Pos.Line, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s:%d: no diagnostic matched want %q", key.file, key.line, w.rx.String())
			}
		}
	}
}

type posKey struct {
	file string
	line int
}

type want struct {
	rx   *regexp.Regexp
	used bool
}

// collectWants parses the `// want "rx" ["rx" ...]` annotations out of
// the fixture's comments, keyed by the comment's own line.
func collectWants(t *testing.T, pkg *Package) map[posKey][]want {
	t.Helper()
	wants := map[posKey][]want{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := posKey{file: pos.Filename, line: pos.Line}
				for _, pattern := range splitWantPatterns(t, pos, strings.TrimPrefix(text, "want ")) {
					rx, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pattern, err)
					}
					wants[key] = append(wants[key], want{rx: rx})
				}
			}
		}
	}
	return wants
}

// splitWantPatterns parses a sequence of Go-quoted strings.
func splitWantPatterns(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out
		}
		if s[0] != '"' && s[0] != '`' {
			t.Fatalf("%s:%d: malformed want annotation near %q", pos.Filename, pos.Line, s)
		}
		end := -1
		if s[0] == '`' {
			if i := strings.IndexByte(s[1:], '`'); i >= 0 {
				end = i + 1
			}
		} else {
			for i := 1; i < len(s); i++ {
				if s[i] == '\\' {
					i++
					continue
				}
				if s[i] == '"' {
					end = i
					break
				}
			}
		}
		if end < 0 {
			t.Fatalf("%s:%d: unterminated want pattern in %q", pos.Filename, pos.Line, s)
		}
		lit := s[:end+1]
		unquoted, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s:%d: bad want literal %s: %v", pos.Filename, pos.Line, lit, err)
		}
		out = append(out, unquoted)
		s = s[end+1:]
	}
}

// fixtureImporter resolves imports for analyzer test fixtures: paths
// that exist under the fixture root (testdata/src) load from there,
// everything else (the standard library) falls back to the compiler
// source importer. This is what lets a fixture package fake the shape
// of internal/storage or internal/core under a synthetic import path.
type fixtureImporter struct {
	root     string
	fset     *token.FileSet
	fallback types.Importer
	cache    map[string]*types.Package
}

func newFixtureImporter(root string, fset *token.FileSet) *fixtureImporter {
	return &fixtureImporter{
		root:     root,
		fset:     fset,
		fallback: importer.ForCompiler(fset, "source", nil),
		cache:    map[string]*types.Package{},
	}
}

func (im *fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := im.cache[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(im.root, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		pkg, err := loadFixturePackage(im.fset, im, path, dir)
		if err != nil {
			return nil, err
		}
		im.cache[path] = pkg.Types
		return pkg.Types, nil
	}
	return im.fallback.Import(path)
}

// loadFixturePackage parses and type-checks every .go file in dir as
// the fixture package path.
func loadFixturePackage(fset *token.FileSet, imp types.Importer, path, dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: fixture %s: %v", path, err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: fixture %s: no Go files in %s", path, dir)
	}
	return checkFiles(fset, imp, path, dir, names)
}
