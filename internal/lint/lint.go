// Package lint is egdlint: the static check of the determinism invariant
// the paper's reproduction depends on — the game/population dynamics are
// bit-reproducible from seeded RNG streams (every rank derives Nature's
// per-generation plan from the seed, and a restart from a snapshot
// recovers bit-identically only because of it). The SPMD symmetry of the
// engine's collectives is held by its tests, which hang or fail on every
// seeded violation (README.md).
//
// Check is the one entry point. TestRepoLintsClean runs it over the
// module, so `go test ./...` fails on a finding. The package uses only
// the standard library: packages are loaded through `go list -export`
// and type-checked with go/types.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one violation of the determinism rules, or one malformed
// //egdlint:allow directive, at a source position.
type Finding struct {
	// Rule is "determinism", or "directive" for a malformed allow
	// directive (which no directive can suppress).
	Rule    string
	Pos     token.Position
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Rule, f.Message)
}

// Check loads the packages matched by patterns (resolved in dir), reads
// their //egdlint:allow directives, applies the determinism rules to the
// packages in DeterministicPaths, and returns the findings sorted by
// position. Only non-test GoFiles are checked: tests measure wall-clock
// time and iterate maps on purpose.
func Check(dir string, patterns []string) ([]Finding, error) {
	fset, pkgs, err := load(dir, patterns)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, p := range pkgs {
		allows, malformed := collectDirectives(fset, p.files)
		findings = append(findings, malformed...)
		if !isDeterministicPkg(p.types.Path()) {
			continue
		}
		c := &checker{info: p.info}
		c.report = func(pos token.Pos, format string, args ...any) {
			at := fset.Position(pos)
			if !allows.allowed(at) {
				findings = append(findings, Finding{Rule: rule, Pos: at, Message: fmt.Sprintf(format, args...)})
			}
		}
		for _, f := range p.files {
			c.checkFile(f)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return findings, nil
}
