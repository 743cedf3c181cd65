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
	allows, findings := collectDirectives(fset, []*ast.File{f})
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
	g() //egdlint:allow determinism trailing form covers this line
}

func g() {
	//egdlint:allow determinism standalone form covers the next line
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
	if !allows.allowed(at(4)) {
		t.Error("trailing directive does not cover its own line")
	}
	// Standalone on line 8 covers 8 and 9 (the statement below) but not
	// 10: a second statement is outside the window.
	if !allows.allowed(at(9)) {
		t.Error("standalone directive does not cover the line below")
	}
	if allows.allowed(at(10)) {
		t.Error("window leaks two lines below the directive")
	}
	// The closing brace boundary: line 5 is inside the trailing window by
	// the line arithmetic, but line 6 (the blank between functions) and
	// anything in g's body before its own directive are not.
	if allows.allowed(at(6)) || allows.allowed(at(7)) {
		t.Error("window crossed the function boundary")
	}
}

// Each malformed shape yields exactly one "directive" finding and does
// not cost the well-formed directive beside it.
func TestDirectiveMalformed(t *testing.T) {
	src := `package p

//egdlint:allow
//egdlint:allow nosuchrule with a reason
//egdlint:allow determinism
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
		{5, "determinism needs a reason"},
	}
	for i, w := range wants {
		f := findings[i]
		if f.Rule != "directive" {
			t.Errorf("finding %d rule = %q, want directive", i, f.Rule)
		}
		if f.Pos.Line != w.line || !strings.Contains(f.Message, w.frag) {
			t.Errorf("finding %d = %d:%q, want line %d containing %q", i, f.Pos.Line, f.Message, w.line, w.frag)
		}
	}
	if !allows.allowed(at(7)) {
		t.Error("valid determinism directive in the same file was dropped")
	}
}

// A directive naming a deleted analyzer is an unknown rule: it reports a
// finding and suppresses nothing, so a stale allow cannot hide a line.
func TestDirectiveRetiredRules(t *testing.T) {
	src := `package p

//egdlint:allow mpierrcheck the analyzer was deleted
//egdlint:allow mpicollective the analyzer was deleted
//egdlint:allow mpitag the analyzer was deleted
//egdlint:allow pkgdoc the rule moved to egddoc
var x int
`
	allows, findings, _ := parseDirectiveFile(t, src)
	retired := []string{"mpierrcheck", "mpicollective", "mpitag", "pkgdoc"}
	if len(findings) != len(retired) {
		t.Fatalf("got %d directive findings, want %d: %v", len(findings), len(retired), findings)
	}
	for i, name := range retired {
		if f := findings[i]; f.Rule != "directive" || !strings.Contains(f.Message, `unknown rule "`+name+`"`) {
			t.Errorf("finding %d = %s %q, want directive naming unknown rule %q", i, f.Rule, f.Message, name)
		}
		if allows.allowed(at(3+i)) || allows.allowed(at(4+i)) {
			t.Errorf("directive for deleted %s suppressed a line", name)
		}
	}
}

// The rule name must be set off from the prefix by white space: a
// directive glued to it is malformed and suppresses nothing.
func TestDirectiveNeedsSeparator(t *testing.T) {
	src := `package p

//egdlint:allowdeterminism glued to the prefix
var x int
`
	allows, findings, _ := parseDirectiveFile(t, src)
	if len(findings) != 1 || findings[0].Rule != "directive" || findings[0].Pos.Line != 3 ||
		!strings.Contains(findings[0].Message, "followed by white space") {
		t.Fatalf("got %v, want one directive finding on line 3 about the missing white space", findings)
	}
	if allows.allowed(at(3)) || allows.allowed(at(4)) {
		t.Error("a directive glued to the prefix suppressed a line")
	}
}
