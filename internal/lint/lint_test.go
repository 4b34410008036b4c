package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

func TestCommitPathFixture(t *testing.T) {
	RunFixture(t, CommitPath, "commitpath/app")
}

func TestCommitPathFixtureChokePointExempt(t *testing.T) {
	RunFixture(t, CommitPath, "commitpath/internal/core")
}

func TestLockIOFixture(t *testing.T) {
	RunFixture(t, LockIO, "lockio/internal/core")
}

func TestTypedErrFixture(t *testing.T) {
	RunFixture(t, TypedErr, "typederr/app")
}

func TestCtxFlowFixtureService(t *testing.T) {
	RunFixture(t, CtxFlow, "ctxflow/internal/service")
}

// TestOutOfScopePackagesUntouched runs the scoped analyzers over a
// fixture whose package path matches none of their scopes; they must
// stay silent regardless of the fixture's contents.
func TestOutOfScopePackagesUntouched(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	imp := newFixtureImporter(root, fset)
	pkg, err := loadFixturePackage(fset, imp, "commitpath/app", filepath.Join(root, "commitpath", "app"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{LockIO, CtxFlow})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("out-of-scope diagnostic: %s", d)
	}
}

func TestMalformedDirective(t *testing.T) {
	src := `package p

//vchainlint:ignore lockio
func f() {}

//vchainlint:ignore
func g() {}

//vchainlint:ignore lockio,typederr has a reason
func h() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	dirs, bad := parseDirectives(fset, []*ast.File{f})
	if len(bad) != 2 {
		t.Fatalf("want 2 malformed-directive diagnostics, got %d: %v", len(bad), bad)
	}
	for _, d := range bad {
		if d.Analyzer != "directive" || !strings.Contains(d.Message, "malformed") {
			t.Errorf("unexpected malformed diagnostic: %+v", d)
		}
	}
	if len(dirs) != 1 {
		t.Fatalf("want 1 well-formed directive, got %d", len(dirs))
	}
	d := dirs[0]
	if len(d.analyzers) != 2 || d.analyzers[0] != "lockio" || d.analyzers[1] != "typederr" {
		t.Errorf("analyzer list = %v", d.analyzers)
	}
	if d.reason != "has a reason" {
		t.Errorf("reason = %q", d.reason)
	}
	// Doc-comment directive covers the declaration it documents
	// (func h sits on line 10 of the source above).
	if d.from != 10 || d.to != 10 {
		t.Errorf("span = [%d,%d], want [10,10]", d.from, d.to)
	}
}

func TestFormatVerbs(t *testing.T) {
	cases := []struct {
		format string
		verbs  string
		ok     bool
	}{
		{"plain", "", true},
		{"%v", "v", true},
		{"%w: %v", "wv", true},
		{"100%% %v", "v", true},
		{"%-10v", "v", true},
		{"%+.3f %s", "fs", true},
		{"%*d %v", "*dv", true},
		{"%[1]v", "", false},
	}
	for _, c := range cases {
		verbs, ok := formatVerbs(c.format)
		if ok != c.ok || string(verbs) != c.verbs {
			t.Errorf("formatVerbs(%q) = %q, %v; want %q, %v", c.format, verbs, ok, c.verbs, c.ok)
		}
	}
}

// TestRepositoryLintClean runs the full analyzer suite over the real
// module: the tree must be lint-clean at every commit. This test is
// the gate; cmd/vchain-lint runs the same suite from the command line.
func TestRepositoryLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree typecheck is slow; run without -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(LoadOptions{Dir: root}, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := RunAnalyzers(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
