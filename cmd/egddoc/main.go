// Command egddoc is the repository's documentation checker: it walks the
// tree for .md files and verifies that every relative link resolves to an
// existing file and that every fragment resolves to a GitHub-style heading
// anchor in its target document. External schemes (http, https, mailto) are
// skipped — CI must not depend on the network. In the living documents
// (livingDoc) it also checks what inline code cites: a repository path
// (`internal/sim/spec.go`) or package directory (`internal/sim`,
// `go run ./cmd/egdsim`) must exist, and an `egdsim scale -table N` or
// `-fig N` must select an entry of core.Artefacts(). Walking the tree, it
// also holds every Go package to a package comment (pkgDocs).
//
//	egddoc              check every .md and Go package under the current directory
//	egddoc -dir path    check a tree rooted elsewhere
//	egddoc README.md docs/KERNEL.md   check only the named files
//
// Exit status: 0 clean, 1 problems found, 2 operational error.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"unicode"

	"repro/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// linkPattern matches inline markdown links and images: [text](target).
// Nested brackets and reference-style links are out of scope — the repo's
// documentation uses inline links exclusively.
var linkPattern = regexp.MustCompile(`!?\[[^\]]*\]\(([^()\s]+(?:\([^()]*\))?[^()\s]*)\)`)

// pathPattern matches a back-ticked repository file path: one of the source
// directories, a slash-separated name and a lower-case file extension, ending
// at the closing back-tick, an argument, a :line suffix or a #fragment.
// Globs (`internal/*/README.md`) and package-qualified symbols
// (`internal/mpi.ParseFault`) do not match.
var pathPattern = regexp.MustCompile("`((?:cmd|internal|docs|scripts|examples|bench)/[\\w./-]*\\.[a-z0-9]+)[`\\s:#]")

// In an inline code span, pkgDirPattern matches a word that is a package
// directory (internal/NAME, cmd/NAME, ./examples/NAME, with or without the
// ./ a go command gives it — pathPattern needs a file extension) and
// artefactPattern a selector of egdsim's scale subcommand. A glob or a
// package-qualified symbol is not a package directory.
var (
	codeSpan        = regexp.MustCompile("`[^`]+`")
	pkgDirPattern   = regexp.MustCompile(`^(?:\./)?((?:cmd|internal|examples)/[\w-]+(?:/[\w-]+)*)/?$`)
	artefactPattern = regexp.MustCompile(`-(table|fig) (\d+)`)
)

// spanWord splits a code span into the words pkgDirPattern looks at.
func spanWord(r rune) bool { return unicode.IsSpace(r) || strings.ContainsRune("`,;()=|", r) }

// livingDoc matches, relative to the root, the documents that describe the
// repository as it is; only their back-ticked paths are checked. The rest —
// change log, roadmap, the issue being worked, the paper's material, the
// benchmark's notes on its output files — record history or name generated
// files, and name absent paths on purpose.
var livingDoc = regexp.MustCompile(`^(?:README|DESIGN|EXPERIMENTS)\.md$|^docs/[^/]+\.md$|^internal/[^/]+/README\.md$`)

// doc is one parsed markdown file: its link occurrences and the set of
// GitHub-style anchors its headings generate.
type doc struct {
	links   []link
	paths   []link // back-ticked repository paths (pathPattern, pkgDirPattern)
	ids     []link // catalogue IDs cited as `egdsim scale` selectors (artefactPattern)
	anchors map[string]bool
}

type link struct {
	line   int
	target string
}

// parseDoc scans one markdown file, skipping fenced code blocks (``` or
// ~~~) so shell snippets containing [x](y) or # comments neither produce
// false links nor false anchors.
func parseDoc(path string) (*doc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d := &doc{anchors: map[string]bool{}}
	seen := map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	inFence := false
	fence := ""
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if inFence {
			if strings.HasPrefix(trimmed, fence) {
				inFence = false
			}
			continue
		}
		if strings.HasPrefix(trimmed, "```") || strings.HasPrefix(trimmed, "~~~") {
			inFence = true
			fence = trimmed[:3]
			continue
		}
		if strings.HasPrefix(trimmed, "#") {
			if a := headingAnchor(trimmed); a != "" {
				if n := seen[a]; n > 0 {
					d.anchors[fmt.Sprintf("%s-%d", a, n)] = true
				} else {
					d.anchors[a] = true
				}
				seen[a]++
			}
		}
		for _, m := range linkPattern.FindAllStringSubmatch(line, -1) {
			target := m[1]
			// Strip an optional link title: [t](file.md "title").
			if i := strings.IndexAny(target, " \t"); i >= 0 {
				target = target[:i]
			}
			target = strings.Trim(target, "<>")
			d.links = append(d.links, link{line: lineNo, target: target})
		}
		for _, m := range pathPattern.FindAllStringSubmatch(line, -1) {
			d.paths = append(d.paths, link{line: lineNo, target: m[1]})
		}
		for _, span := range codeSpan.FindAllString(line, -1) {
			for _, w := range strings.FieldsFunc(span, spanWord) {
				if m := pkgDirPattern.FindStringSubmatch(w); m != nil {
					d.paths = append(d.paths, link{line: lineNo, target: m[1]})
				}
			}
			if !strings.Contains(span, "egdsim scale ") {
				continue
			}
			for _, m := range artefactPattern.FindAllStringSubmatch(span, -1) {
				d.ids = append(d.ids, link{line: lineNo, target: m[1] + m[2]})
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return d, nil
}

// headingAnchor converts "## Some Heading!" to GitHub's anchor slug:
// lowercase, punctuation dropped, spaces and hyphens kept as hyphens.
func headingAnchor(line string) string {
	text := strings.TrimLeft(line, "#")
	if text == line || (text != "" && text[0] != ' ' && text[0] != '\t') {
		return "" // "#!/bin/sh"-style lines are not headings
	}
	text = strings.TrimSpace(text)
	// Inline code and link syntax contribute their text only.
	text = strings.NewReplacer("`", "", "[", "", "]", "").Replace(text)
	var b strings.Builder
	for _, r := range strings.ToLower(text) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		case r == ' ' || r == '\t':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// external matches a link target that leaves the repository: URL schemes
// and protocol-relative references are not checked.
var external = regexp.MustCompile(`^(?:[a-z]+:)?//|^mailto:`)

// collect walks root for .md files and non-test .go files, skipping hidden
// directories and testdata fixtures (fixtures may deliberately contain
// broken links or undocumented packages).
func collect(root string) (docs, goFiles []string, err error) {
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "node_modules" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.EqualFold(filepath.Ext(name), ".md"):
			docs = append(docs, path)
		case strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go"):
			goFiles = append(goFiles, path)
		}
		return nil
	})
	sort.Strings(docs)
	sort.Slice(goFiles, func(i, j int) bool { // by package, then file name
		di, dj := filepath.Dir(goFiles[i]), filepath.Dir(goFiles[j])
		return di < dj || di == dj && goFiles[i] < goFiles[j]
	})
	return docs, goFiles, err
}

// pkgDocs requires every package to carry a package comment. Non-main
// packages must use godoc's canonical "Package <name> ..." opening so the
// generated documentation index reads uniformly; main packages may open
// however they like (the repo's convention is "Command <name> ..."), but
// must say something. A missing comment is reported once, at the package
// clause of the package's first file by name. The files are parsed, not
// type-checked: one package per directory, goFiles grouped by directory
// and sorted by name within it.
func pkgDocs(root string, goFiles []string) ([]string, error) {
	fset := token.NewFileSet()
	var problems []string
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		if r, err := filepath.Rel(root, p.Filename); err == nil {
			p.Filename = r
		}
		problems = append(problems, fmt.Sprintf("%s:%d: ", p.Filename, p.Line)+fmt.Sprintf(format, args...))
	}
	for i := 0; i < len(goFiles); {
		dir := filepath.Dir(goFiles[i])
		var first *ast.File
		var docs []*ast.File
		for ; i < len(goFiles) && filepath.Dir(goFiles[i]) == dir; i++ {
			f, err := parser.ParseFile(fset, goFiles[i], nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				return nil, err
			}
			if first == nil {
				first = f
			}
			if f.Doc != nil {
				docs = append(docs, f)
			}
		}
		name := first.Name.Name
		switch {
		case len(docs) == 0 && name == "main":
			report(first.Package, "command package has no doc comment; document the command (\"Command <name> ...\")")
		case len(docs) == 0:
			report(first.Package, "package %s has no package comment; document it in godoc's \"Package %s ...\" form", name, name)
		case name != "main":
			want := "Package " + name
			for _, f := range docs {
				text := f.Doc.Text()
				if !strings.HasPrefix(text, want+" ") && !strings.HasPrefix(text, want+"\n") &&
					strings.TrimRight(text, "\n") != want {
					report(f.Doc.Pos(), "package comment for %s must start %q", name, want)
				}
			}
		}
	}
	return problems, nil
}

// check verifies every link of every file and reports each broken one
// egdlint-style, as file:line: message. Cross-file fragment targets are
// parsed lazily and memoized, so linking into a file outside the checked
// set (e.g. a doc under internal/) still validates its anchors.
func check(root string, files []string) ([]string, error) {
	parsed := map[string]*doc{}
	load := func(path string) (*doc, error) {
		if d, ok := parsed[path]; ok {
			return d, nil
		}
		d, err := parseDoc(path)
		if err != nil {
			return nil, err
		}
		parsed[path] = d
		return d, nil
	}
	catalogue := map[string]bool{}
	for _, a := range core.Artefacts() {
		catalogue[a.ID] = true
	}
	var problems []string
	for _, file := range files {
		d, err := load(file)
		if err != nil {
			return nil, err
		}
		rel := file
		if r, err := filepath.Rel(root, file); err == nil {
			rel = r
		}
		report := func(line int, format string, args ...any) {
			problems = append(problems, fmt.Sprintf("%s:%d: ", rel, line)+fmt.Sprintf(format, args...))
		}
		if livingDoc.MatchString(filepath.ToSlash(rel)) {
			for _, l := range d.paths {
				if _, err := os.Stat(filepath.Join(root, filepath.FromSlash(l.target))); err != nil {
					report(l.line, "stale path `%s`: no such file or directory in the repository", l.target)
				}
			}
			for _, l := range d.ids {
				if !catalogue[l.target] {
					report(l.line, "stale citation: egdsim scale has no %s (core.Artefacts)", l.target)
				}
			}
		}
		for _, l := range d.links {
			if l.target == "" || external.MatchString(l.target) {
				continue
			}
			pathPart, frag, _ := strings.Cut(l.target, "#")
			targetFile := file
			if pathPart != "" {
				if strings.HasPrefix(pathPart, "/") {
					// Root-relative, GitHub-style: resolve against the repo root.
					targetFile = filepath.Join(root, filepath.FromSlash(pathPart))
				} else {
					targetFile = filepath.Join(filepath.Dir(file), filepath.FromSlash(pathPart))
				}
				info, err := os.Stat(targetFile)
				if err != nil {
					report(l.line, "broken link %q: %s does not exist", l.target, pathPart)
					continue
				}
				if frag != "" && info.IsDir() {
					report(l.line, "broken link %q: fragment on a directory", l.target)
					continue
				}
			}
			if frag == "" || !strings.EqualFold(filepath.Ext(targetFile), ".md") {
				continue // anchors into non-markdown files are viewer-defined
			}
			td, err := load(targetFile)
			if err != nil {
				return nil, err
			}
			if !td.anchors[strings.ToLower(frag)] {
				report(l.line, "broken link %q: no heading anchor #%s in %s", l.target, frag, pathPart)
			}
		}
	}
	return problems, nil
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("egddoc", flag.ContinueOnError)
	fs.SetOutput(errw)
	dir := fs.String("dir", ".", "repository root to resolve links against")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	files := fs.Args()
	var problems []string
	if len(files) == 0 {
		var goFiles []string
		var err error
		files, goFiles, err = collect(*dir)
		if err == nil {
			problems, err = pkgDocs(*dir, goFiles)
		}
		if err != nil {
			fmt.Fprintln(errw, "egddoc:", err)
			return 2
		}
	} else {
		for i, f := range files {
			if !filepath.IsAbs(f) {
				files[i] = filepath.Join(*dir, f)
			}
		}
	}
	broken, err := check(*dir, files)
	if err != nil {
		fmt.Fprintln(errw, "egddoc:", err)
		return 2
	}
	problems = append(problems, broken...)
	for _, p := range problems {
		fmt.Fprintln(out, p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(out, "egddoc: %d problem(s) in %d file(s) checked\n", len(problems), len(files))
		return 1
	}
	fmt.Fprintf(out, "egddoc: %d file(s) clean\n", len(files))
	return 0
}
