package lint

import (
	"strings"
	"testing"
)

// FuzzDirective holds the //egdlint:allow parser to its contract: it
// never panics, a well-formed directive yields a known rule and no
// problem, and every malformed one yields exactly one problem message
// (the "directive" finding collectDirectives reports) and no rule —
// never both, never neither.
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
		known := knownRules()
		rule, problem, ok := parseDirective(text, known)
		if ok {
			if problem != "" {
				t.Fatalf("parseDirective(%q) ok but with problem %q", text, problem)
			}
			if !known[rule] {
				t.Fatalf("parseDirective(%q) accepted unknown rule %q", text, rule)
			}
			return
		}
		if rule != "" {
			t.Fatalf("parseDirective(%q) rejected but returned rule %q", text, rule)
		}
		if problem == "" {
			t.Fatalf("parseDirective(%q) rejected without a problem message", text)
		}
		if strings.ContainsAny(problem, "\n\r") {
			t.Fatalf("parseDirective(%q) problem spans lines: %q", text, problem)
		}
	})
}
