// Command vchain-lint runs the project's analyzer suite
// (internal/lint): commitpath, lockio, typederr and ctxflow — the
// mechanical form of the invariants this codebase's correctness
// arguments rest on.
//
// It runs over package patterns (default ./...):
//
//	vchain-lint ./...
//	vchain-lint -run lockio,ctxflow -json ./internal/...
//
// `go test ./internal/lint/` (TestRepositoryLintClean) enforces the
// same suite over the whole module; this command is for running a
// subset, or for machine-readable findings.
//
// Exit status: 0 clean, 1 findings, load errors or usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"github.com/vchain-go/vchain/internal/lint"
)

var (
	jsonOut = flag.Bool("json", false, "emit findings as a JSON array of {file,line,col,analyzer,message}")
	runList = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	tests   = flag.Bool("tests", false, "also analyze in-package _test.go files")
)

func usage() {
	fmt.Fprintf(os.Stderr, "usage: vchain-lint [-json] [-tests] [-run analyzers] [packages]\n\nanalyzers:\n")
	for _, a := range lint.All() {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, doc)
	}
	flag.PrintDefaults()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("vchain-lint: ")
	flag.Usage = usage
	flag.Parse()

	analyzers, err := selectAnalyzers(*runList)
	if err != nil {
		log.Fatal(err)
	}
	os.Exit(run(flag.Args(), analyzers, *jsonOut, *tests))
}

func selectAnalyzers(runList string) ([]*lint.Analyzer, error) {
	if runList == "" {
		return lint.All(), nil
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(runList, ",") {
		name = strings.TrimSpace(name)
		a := lint.ByName(name)
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q (see -h for the list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

func run(patterns []string, analyzers []*lint.Analyzer, jsonOut, tests bool) int {
	pkgs, err := lint.Load(lint.LoadOptions{Tests: tests}, patterns...)
	if err != nil {
		log.Fatal(err)
	}
	var loadErrs int
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "vchain-lint: %v\n", terr)
			loadErrs++
		}
	}
	diags, err := lint.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		log.Fatal(err)
	}
	emit(os.Stdout, diags, jsonOut)
	if len(diags) > 0 || loadErrs > 0 {
		return 1
	}
	return 0
}

// finding is the -json wire form of one diagnostic.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func emit(w io.Writer, diags []lint.Diagnostic, jsonOut bool) {
	if !jsonOut {
		for _, d := range diags {
			fmt.Fprintln(w, d)
		}
		return
	}
	findings := make([]finding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, finding{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	if err := enc.Encode(findings); err != nil {
		log.Fatal(err)
	}
}
