// Package lint is egdlint: a suite of static analyzers enforcing the
// MPI-usage and determinism invariants the paper's reproduction depends
// on — every rank executes the same collective sequence (Blue Gene's
// collective network assumes SPMD symmetry) and the game/population
// dynamics are bit-reproducible from seeded RNG streams (a restart from a
// snapshot recovers bit-identically only because of it).
//
// The package is a self-contained, stdlib-only reimplementation of the
// subset of golang.org/x/tools/go/analysis that the suite needs: the
// container has no module proxy access, so the x/tools dependency is
// gated out and the Analyzer/Pass surface below mirrors its API shape.
// Porting an analyzer to the real framework is a mechanical change of
// import paths.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check, mirroring analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in findings and in
	// //egdlint:allow directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer reports.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package,
// mirroring analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is a diagnostic resolved to a file position and tagged with
// the analyzer that produced it.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// RunAnalyzers loads the packages matched by patterns (resolved in dir)
// and applies every analyzer to each, honouring //egdlint:allow
// suppression directives. Findings come back sorted by position.
// Malformed directives (missing reason, unknown rule) are themselves
// reported under the pseudo-analyzer "directive".
func RunAnalyzers(dir string, patterns []string, analyzers []*Analyzer) ([]Finding, error) {
	fset, pkgs, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	return runOnPackages(fset, pkgs, analyzers, "")
}

// RunAnalyzersTests loads each package's in-package test variant
// (production files plus TestGoFiles type-checked together) and applies
// the analyzers — callers pass SPMDSafety(), not All(): test files
// legitimately use bare tag literals, discarded errors, and wall-clock
// time, but a rank-conditioned collective in a test is the same hang it
// is in production. Findings are filtered to _test.go files; the production
// files were already covered by the plain run.
func RunAnalyzersTests(dir string, patterns []string, analyzers []*Analyzer) ([]Finding, error) {
	fset, pkgs, err := LoadTests(dir, patterns)
	if err != nil {
		return nil, err
	}
	return runOnPackages(fset, pkgs, analyzers, "_test.go")
}

func runOnPackages(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer, fileSuffix string) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		fs, err := runOnPackage(fset, pkg, analyzers)
		if err != nil {
			return nil, err
		}
		for _, f := range fs {
			if fileSuffix != "" && !strings.HasSuffix(f.Pos.Filename, fileSuffix) {
				continue
			}
			findings = append(findings, f)
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
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// runOnPackage applies the analyzers to one loaded package and filters
// the diagnostics through its allow directives.
func runOnPackage(fset *token.FileSet, pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	// The directive vocabulary is every registered rule, not just the
	// analyzers this run enables: an allow for a suite-run analyzer must
	// not become an "unknown rule" finding under a subset run.
	allows, findings := collectDirectives(fset, pkg.Files, knownRules())
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		pass.report = func(d Diagnostic) {
			pos := fset.Position(d.Pos)
			if allows.allowed(a.Name, pos) {
				return
			}
			findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	return findings, nil
}
