package lint

// All returns the full vchain analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		CommitPath,
		CtxFlow,
		LockIO,
		TypedErr,
	}
}

// ByName resolves a comma-free analyzer name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
