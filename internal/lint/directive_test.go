package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseDirectiveFile runs collectDirectives over one source string.
func parseDirectiveFile(t *testing.T, src string) (allowSet, []Finding, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "d.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	allows, findings := collectDirectives(fset, []*ast.File{f}, knownRules())
	return allows, findings, fset
}

func at(line int) token.Position {
	return token.Position{Filename: "d.go", Line: line}
}

// A trailing directive suppresses its own line; a standalone one the
// line immediately below — and only that line: the window must not leak
// two lines down or across a block boundary.
func TestDirectiveSuppressionWindow(t *testing.T) {
	src := `package p

func f() {
	g() //egdlint:allow mpitag trailing form covers this line
}

func g() {
	//egdlint:allow mpitag standalone form covers the next line
	g()
	g()
}
`
	allows, findings, _ := parseDirectiveFile(t, src)
	if len(findings) != 0 {
		t.Fatalf("well-formed directives produced findings: %v", findings)
	}
	// Trailing: line 4 carries the directive, so lines 4 and 5 are in its
	// window; the flagged statement is on 4.
	if !allows.allowed("mpitag", at(4)) {
		t.Error("trailing directive does not cover its own line")
	}
	// Standalone on line 8 covers 8 and 9 (the statement below) but not
	// 10: a second statement is outside the window.
	if !allows.allowed("mpitag", at(9)) {
		t.Error("standalone directive does not cover the line below")
	}
	if allows.allowed("mpitag", at(10)) {
		t.Error("window leaks two lines below the directive")
	}
	// The closing brace boundary: line 5 is inside the trailing window by
	// the line arithmetic, but line 6 (the blank between functions) and
	// anything in g's body before its own directive are not.
	if allows.allowed("mpitag", at(6)) || allows.allowed("mpitag", at(7)) {
		t.Error("window crossed the function boundary")
	}
	// The directive names mpitag only; other rules stay live on the line.
	if allows.allowed("mpicollective", at(4)) {
		t.Error("suppression bled into a rule the directive did not name")
	}
}

// Each malformed shape yields exactly one "directive" finding and does
// not cost the well-formed directive beside it.
func TestDirectiveMalformed(t *testing.T) {
	src := `package p

//egdlint:allow
//egdlint:allow nosuchrule with a reason
//egdlint:allow mpicollective
//egdlint:allow determinism valid: suppresses the line below
var x int
`
	allows, findings, _ := parseDirectiveFile(t, src)
	if len(findings) != 3 {
		t.Fatalf("got %d directive findings, want 3: %v", len(findings), findings)
	}
	wants := []struct {
		line int
		frag string
	}{
		{3, "needs a rule name and a reason"},
		{4, `unknown rule "nosuchrule"`},
		{5, "mpicollective needs a reason"},
	}
	for i, w := range wants {
		f := findings[i]
		if f.Analyzer != "directive" {
			t.Errorf("finding %d analyzer = %q, want directive", i, f.Analyzer)
		}
		if f.Pos.Line != w.line || !strings.Contains(f.Message, w.frag) {
			t.Errorf("finding %d = %d:%q, want line %d containing %q", i, f.Pos.Line, f.Message, w.line, w.frag)
		}
	}
	if !allows.allowed("determinism", at(7)) {
		t.Error("valid determinism directive in the same file was dropped")
	}
}

// The directive vocabulary is every registered analyzer, independent of
// the subset a run enables: knownRules must cover All().
func TestKnownRulesCoversAllAnalyzers(t *testing.T) {
	known := knownRules()
	for _, a := range All() {
		if !known[a.Name] {
			t.Errorf("knownRules missing %q", a.Name)
		}
	}
	for _, a := range SPMDSafety() {
		if !known[a.Name] {
			t.Errorf("knownRules missing SPMD analyzer %q", a.Name)
		}
	}
}
