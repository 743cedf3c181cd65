package lint

// All returns the full egdlint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
	}
}

// knownRules is the directive vocabulary: every registered analyzer
// name is a valid //egdlint:allow rule.
func knownRules() map[string]bool {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	return known
}
