package lint

// All returns the full egdlint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		MPIErrCheck,
		MPICollective,
		MPITag,
		Determinism,
		PkgDoc,
	}
}

// SPMDSafety returns the analyzers whose findings are hangs or
// divergence rather than style: the subset worth running over test
// files too (see RunAnalyzersTests).
func SPMDSafety() []*Analyzer {
	return []*Analyzer{
		MPICollective,
	}
}

// knownRules is the directive vocabulary: every registered analyzer
// name is a valid //egdlint:allow rule regardless of which subset a
// particular run enables, so a file annotated for the full suite does
// not trip "unknown rule" findings under -tests.
func knownRules() map[string]bool {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	return known
}
