package lint

import (
	"go/ast"
)

// CommitPath enforces the single-choke-point commit discipline: every
// (block, ADS) pair reaches durable storage through
// core.FullNode.commitLocked, which checks the block still extends the
// tip before a byte lands and rolls back on divergence, whatever the
// shard count. Outside that
// package (and the storage layer itself, the fault injector that wraps
// it, and tests), a direct Append or Truncate on a storage backend
// bypasses validation and the torn-state guarantees, so any such call
// is a finding.
var CommitPath = &Analyzer{
	Name: "commitpath",
	Doc: "commits must flow through the core choke point\n\n" +
		"Flags direct Append/Truncate calls on internal/storage backend types " +
		"outside internal/core, internal/storage, and internal/fault.",
	Run: runCommitPath,
}

// commitPathExempt lists the package suffixes allowed to touch backend
// mutation directly: the commit pipeline, the storage layer itself,
// and the fault injector that wraps backends.
var commitPathExempt = []string{
	"internal/core",
	"internal/storage",
	"internal/fault",
}

func runCommitPath(pass *Pass) error {
	if pathHasAnySuffix(pass.Pkg.Path(), commitPathExempt...) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Name() != "Append" && fn.Name() != "Truncate" {
				return true
			}
			// Both the Backend interface and its concrete
			// implementations declare these methods in the storage
			// package, so the declaring package is the discriminator.
			if !declaredIn(fn, "internal/storage") || pass.InTestFile(call.Pos()) {
				return true
			}
			pass.Reportf(call.Pos(),
				"direct storage backend %s outside the commit choke point: route (block, ADS) writes through core.FullNode commits", fn.Name())
			return true
		})
	}
	return nil
}
