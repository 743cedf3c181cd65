package lint

import (
	"go/ast"
	"go/token"
	"strings"
	"unicode"
)

// directivePrefix introduces a suppression comment. Grammar:
//
//	//egdlint:allow determinism <reason...>
//
// The directive suppresses determinism findings on its own line and on
// the line immediately below it (so it works both as a trailing comment
// and as a standalone comment above the flagged statement). The reason
// is mandatory: an allow without one is itself a finding, and so is one
// whose rule name is not set off from the prefix by white space.
const directivePrefix = "//egdlint:allow"

// allowSet records, per file, the lines a directive covers.
type allowSet map[string]map[int]bool // filename -> line

func (s allowSet) add(pos token.Position) {
	byLine := s[pos.Filename]
	if byLine == nil {
		byLine = make(map[int]bool)
		s[pos.Filename] = byLine
	}
	byLine[pos.Line] = true
	byLine[pos.Line+1] = true
}

func (s allowSet) allowed(pos token.Position) bool {
	return s[pos.Filename][pos.Line]
}

// collectDirectives scans every comment in the package for
// //egdlint:allow directives. It returns the suppression set plus
// findings for malformed directives: a missing reason or a rule other
// than determinism (both under the pseudo-rule "directive", which cannot
// itself be suppressed).
func collectDirectives(fset *token.FileSet, files []*ast.File) (allowSet, []Finding) {
	allows := make(allowSet)
	var findings []Finding
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				if problem := parseDirective(c.Text); problem != "" {
					findings = append(findings, Finding{Rule: "directive", Pos: pos, Message: problem})
					continue
				}
				allows.add(pos)
			}
		}
	}
	return allows, findings
}

// parseDirective parses one //egdlint:allow comment (text includes the
// prefix). It returns "" for a well-formed directive and otherwise one
// single-line problem message for the "directive" pseudo-rule: the fuzz
// target FuzzDirective holds it to that.
func parseDirective(text string) (problem string) {
	rest := strings.TrimPrefix(text, directivePrefix)
	fields := strings.Fields(rest)
	switch {
	case rest != "" && rest == strings.TrimLeftFunc(rest, unicode.IsSpace):
		return "egdlint:allow must be followed by white space"
	case len(fields) == 0:
		return "egdlint:allow needs a rule name and a reason"
	case fields[0] != rule:
		return "egdlint:allow names unknown rule " + quote(fields[0])
	case len(fields) < 2:
		return "egdlint:allow " + fields[0] + " needs a reason"
	}
	return ""
}

func quote(s string) string { return `"` + s + `"` }
