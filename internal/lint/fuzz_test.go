package lint

import (
	"strings"
	"testing"
	"unicode"
)

// FuzzDirective holds the //egdlint:allow parser to its contract: it
// never panics, it accepts exactly the directives that name the
// determinism rule and give a reason, separated from the prefix by white
// space, and it rejects every other one with one single-line problem
// message (the "directive" finding collectDirectives reports).
func FuzzDirective(f *testing.F) {
	f.Add("//egdlint:allow determinism wall-clock is display-only here")
	f.Add("//egdlint:allow")
	f.Add("//egdlint:allow ")
	f.Add("//egdlint:allow determinism")
	f.Add("//egdlint:allow nosuchrule because reasons")
	f.Add("//egdlint:allow\t\tdeterminism odd spacing")
	f.Add("//egdlint:allow \x00 binary junk \xff")
	f.Add("//egdlint:allowdeterminism no space after prefix")
	f.Add("//egdlint:allow mpitag names an analyzer that was deleted")
	f.Fuzz(func(t *testing.T, text string) {
		problem := parseDirective(text)
		rest := strings.TrimPrefix(text, directivePrefix)
		fields := strings.Fields(rest)
		separated := rest != strings.TrimLeftFunc(rest, unicode.IsSpace)
		wellFormed := separated && len(fields) >= 2 && fields[0] == rule
		if (problem == "") != wellFormed {
			t.Fatalf("parseDirective(%q) = problem %q; well-formed: %v", text, problem, wellFormed)
		}
		if strings.ContainsAny(problem, "\n\r") {
			t.Fatalf("parseDirective(%q) problem spans lines: %q", text, problem)
		}
	})
}
