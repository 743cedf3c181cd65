package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, dir, name, content string) {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// A tree with valid relative links, heading anchors, external URLs and
// fenced code blocks lints clean.
func TestCleanTree(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "README.md", `# Top

See [the guide](docs/GUIDE.md) and [its setup](docs/GUIDE.md#setup-steps).
Self link: [below](#details). External: [site](https://example.com/x.md).

	[not a link in indented code? still fine](docs/GUIDE.md)

`+"```"+`
[broken inside fence](nope.md)
# not a heading
`+"```"+`

## Details
`)
	write(t, dir, "docs/GUIDE.md", `# Guide

## Setup Steps!

Back to [readme](../README.md#details).
`)
	var out, errw strings.Builder
	if code := run([]string{"-dir", dir}, &out, &errw); code != 0 {
		t.Fatalf("clean tree exited %d:\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "clean") {
		t.Errorf("missing clean summary: %s", out.String())
	}
}

// Missing files and missing anchors are reported with file:line and the
// run exits 1.
func TestBrokenLinks(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "README.md", `# Top

[gone](docs/MISSING.md)
[bad anchor](#no-such-heading)
[bad cross anchor](OTHER.md#nope)
`)
	write(t, dir, "OTHER.md", "# Other\n")
	var out, errw strings.Builder
	code := run([]string{"-dir", dir}, &out, &errw)
	if code != 1 {
		t.Fatalf("broken tree exited %d:\n%s%s", code, out.String(), errw.String())
	}
	got := out.String()
	for _, want := range []string{
		"README.md:3", "MISSING.md does not exist",
		"README.md:4", "no heading anchor #no-such-heading",
		"README.md:5", "no heading anchor #nope",
		"3 problem(s)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// Duplicate headings get GitHub's -1/-2 suffixes; inline code in headings
// contributes its text.
func TestAnchorSlugs(t *testing.T) {
	for heading, want := range map[string]string{
		"## Some Heading!":      "some-heading",
		"### `code` & symbols":  "code--symbols",
		"# A_b-c 9":             "a_b-c-9",
		"#notaheading":          "",
		"## [Linked](x.md) Hdr": "linkedxmd-hdr",
	} {
		if got := headingAnchor(heading); got != want {
			t.Errorf("headingAnchor(%q) = %q, want %q", heading, got, want)
		}
	}

	dir := t.TempDir()
	write(t, dir, "A.md", `# Dup

[first](#dup-1)
[second](#dup-2)

## Dup
## Dup
`)
	var out, errw strings.Builder
	if code := run([]string{"-dir", dir}, &out, &errw); code != 0 {
		t.Fatalf("duplicate-heading anchors broken:\n%s%s", out.String(), errw.String())
	}
}

// testdata directories are fixtures, not documentation: their broken
// links must not fail the repo check.
func TestSkipsTestdata(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "README.md", "# ok\n")
	write(t, dir, "testdata/FIXTURE.md", "[broken](missing.md)\n")
	write(t, dir, ".hidden/SECRET.md", "[broken](missing.md)\n")
	var out, errw strings.Builder
	if code := run([]string{"-dir", dir}, &out, &errw); code != 0 {
		t.Fatalf("testdata fixtures failed the check:\n%s%s", out.String(), errw.String())
	}
}

// Explicit file arguments check only those files but still resolve their
// targets relative to -dir.
func TestExplicitFiles(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "GOOD.md", "# g\n[ok](OTHER.md)\n")
	write(t, dir, "BAD.md", "[gone](nope.md)\n")
	write(t, dir, "OTHER.md", "# o\n")
	var out, errw strings.Builder
	if code := run([]string{"-dir", dir, "GOOD.md"}, &out, &errw); code != 0 {
		t.Fatalf("explicit clean file exited %d:\n%s%s", code, out.String(), errw.String())
	}
	out.Reset()
	if code := run([]string{"-dir", dir, "BAD.md"}, &out, &errw); code != 1 {
		t.Fatalf("explicit broken file exited %d:\n%s", code, out.String())
	}
}

// The real repository documentation must be link-clean — the same
// invariant the CI docs job enforces.
func TestRepoDocsLinkClean(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-dir", "../.."}, &out, &errw)
	if code == 2 {
		t.Fatalf("egddoc failed to run: %s", errw.String())
	}
	if code != 0 {
		t.Errorf("repository docs have broken links:\n%s", out.String())
	}
}

// A back-ticked repository path in a living document must name a file that
// exists; history documents, globs, package-qualified symbols, fenced code
// and directories without an extension are not paths to check.
func TestStalePaths(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "internal/sim/spec.go", "// Package sim is a stub.\npackage sim\n")
	write(t, dir, "scripts/smoke.sh", "#!/bin/sh\n")
	body := "# Top\n\n" +
		"Lives: `internal/sim/spec.go`, `internal/sim/spec.go:12`, `scripts/smoke.sh -quick`.\n" +
		"Gone: `internal/server/spec.go` and `cmd/egdold/main.go:7`.\n" +
		"Not paths: `internal/*/README.md`, `internal/mpi.ParseFault`, `internal/sim`, `other/dir/file.go`.\n\n" +
		"```\n`docs/FENCED.md`\n```\n"
	write(t, dir, "README.md", body)
	write(t, dir, "docs/GUIDE.md", "# Guide\n\nSee `docs/MISSING.md`.\n")
	write(t, dir, "internal/sim/README.md", "# sim\n\n`bench/nope.go`\n")
	write(t, dir, "CHANGES.md", "Deleted `internal/server/durable.go`.\n")
	write(t, dir, "bench/README.md", "Writes `bench/out/trace.json`.\n")

	var out, errw strings.Builder
	if code := run([]string{"-dir", dir}, &out, &errw); code != 1 {
		t.Fatalf("stale paths exited %d:\n%s%s", code, out.String(), errw.String())
	}
	got := out.String()
	for _, want := range []string{
		"README.md:4: stale path `internal/server/spec.go`",
		"README.md:4: stale path `cmd/egdold/main.go`",
		"docs/GUIDE.md:3: stale path `docs/MISSING.md`",
		"internal/sim/README.md:3: stale path `bench/nope.go`",
		"4 problem(s)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// Inline code in a living document that names a package directory or a
// selector of egdsim's scale subcommand is held to the tree and to
// core.Artefacts(): deleting an example, or citing a table the catalogue
// does not have, fails the check.
func TestStaleCommands(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "cmd/egdsim/main.go", "// Command egdsim.\npackage main\n")
	write(t, dir, "examples/spatial/main.go", "// Command spatial.\npackage main\n")
	write(t, dir, "README.md", "# Top\n\n"+
		"Run `go run ./examples/spatial` or `go run ./cmd/egdsim scale -table 6 -fig 3`.\n"+
		"Gone: `go run ./examples/wsls -gens 100` and `./cmd/egdold`.\n"+
		"Regenerated by `egdsim scale -table 5`, `cmd/egdsim scale -fig 2 -csv`; `egdsim -table 9` is not scale's.\n\n"+
		"```\ngo run ./examples/fenced\n```\n")
	write(t, dir, "CHANGES.md", "Deleted `go run ./examples/wsls`; `egdsim scale -table 5` never existed.\n")

	var out, errw strings.Builder
	if code := run([]string{"-dir", dir}, &out, &errw); code != 1 {
		t.Fatalf("stale commands exited %d:\n%s%s", code, out.String(), errw.String())
	}
	got := out.String()
	for _, want := range []string{
		"README.md:4: stale path `examples/wsls`",
		"README.md:4: stale path `cmd/egdold`",
		"README.md:5: stale citation: egdsim scale has no table5",
		"README.md:5: stale citation: egdsim scale has no fig2",
		"4 problem(s)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// Every Go package carries a package comment: a non-main package in
// godoc's "Package <name>" form, a command in any form. One documented file
// covers the package, test files and testdata are not packages to check,
// and explicit file arguments check only the named markdown.
func TestPackageDocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		files map[string]string
		want  string // the finding, or "" for a clean tree
	}{
		{"good", map[string]string{
			"good/a.go":       "// Package good is documented in the canonical form.\npackage good\n",
			"good/b.go":       "package good\n",
			"good/a_test.go":  "package good\n",
			"testdata/x/x.go": "package x\n",
		}, ""},
		{"missing", map[string]string{
			"missing/b.go": "package missing\n",
			"missing/a.go": "\npackage missing\n",
		}, "missing/a.go:2: package missing has no package comment; document it in godoc's \"Package missing ...\" form"},
		{"wrongform", map[string]string{
			"wrongform/a.go": "// Documents the package without godoc's canonical opening.\npackage wrongform\n",
		}, `wrongform/a.go:1: package comment for wrongform must start "Package wrongform"`},
		{"mainmissing", map[string]string{
			"cmd/tool/main.go": "package main\n\nfunc main() {}\n",
		}, "cmd/tool/main.go:1: command package has no doc comment"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			write(t, dir, "README.md", "# ok\n")
			for name, src := range tc.files {
				write(t, dir, name, src)
			}
			var out, errw strings.Builder
			code := run([]string{"-dir", dir}, &out, &errw)
			if tc.want == "" {
				if code != 0 {
					t.Fatalf("exited %d:\n%s%s", code, out.String(), errw.String())
				}
				return
			}
			if code != 1 || !strings.Contains(out.String(), tc.want) || !strings.Contains(out.String(), "1 problem(s)") {
				t.Fatalf("exited %d, want 1 and the one finding %q:\n%s%s", code, tc.want, out.String(), errw.String())
			}
			out.Reset()
			if code := run([]string{"-dir", dir, "README.md"}, &out, &errw); code != 0 {
				t.Fatalf("explicit markdown file exited %d:\n%s", code, out.String())
			}
		})
	}
}
