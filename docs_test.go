package mtsim

// Documentation enforcement: every internal package must carry a
// package-level doc comment stating its role (the godoc pass stays
// true), every relative link or anchor in the repository's markdown
// must resolve, and every markdown file a Go comment names must exist
// (docs rot fails the build). The checks run in the ordinary
// `go test ./...` lane, so CI needs no extra tooling.

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode"
)

// TestAllPackagesDocumented walks internal/ and fails for any package
// whose files all lack a package doc comment. The doc must be more than
// a restatement of the import path: require at least one full sentence
// (~40 characters).
func TestAllPackagesDocumented(t *testing.T) {
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		fset := token.NewFileSet()
		pkgs, perr := parser.ParseDir(fset, path, nil, parser.ParseComments|parser.PackageClauseOnly)
		if perr != nil {
			t.Errorf("%s: %v", path, perr)
			return nil
		}
		for name, pkg := range pkgs {
			if strings.HasSuffix(name, "_test") {
				continue
			}
			doc := ""
			for _, f := range pkg.Files {
				if f.Doc != nil && len(f.Doc.Text()) > len(doc) {
					doc = f.Doc.Text()
				}
			}
			if len(strings.TrimSpace(doc)) < 40 {
				t.Errorf("package %s (%s) has no package-level doc comment; state its role and invariants", name, path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// mdFiles returns every markdown file the link check covers: the repo
// root, docs/, and any markdown shipped beside examples.
func mdFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	for _, glob := range []string{"*.md", "docs/*.md", "examples/*/*.md"} {
		matches, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	if len(files) < 5 {
		t.Fatalf("markdown glob found only %v — link check is not covering the repo", files)
	}
	return files
}

// githubSlug reduces a heading to its GitHub anchor: lowercase, spaces
// to hyphens, punctuation dropped (letters, digits, hyphens and
// underscores survive, including non-ASCII letters).
func githubSlug(heading string) string {
	heading = strings.TrimSpace(heading)
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r == ' ':
			b.WriteRune('-')
		case r == '-' || r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(r)
		}
	}
	return b.String()
}

var (
	mdLinkRe    = regexp.MustCompile(`\]\(([^()\s]+)\)`)
	mdHeadingRe = regexp.MustCompile(`(?m)^#{1,6}\s+(.+?)\s*#*\s*$`)
	mdCodeRe    = regexp.MustCompile("(?s)```.*?```|`[^`\n]*`")
)

// anchorsOf collects the GitHub anchors of every heading in a file.
func anchorsOf(t *testing.T, path string) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	anchors := map[string]bool{}
	seen := map[string]int{}
	for _, m := range mdHeadingRe.FindAllStringSubmatch(string(raw), -1) {
		slug := githubSlug(m[1])
		if n := seen[slug]; n > 0 {
			anchors[slug+"-"+string(rune('0'+n))] = true
		} else {
			anchors[slug] = true
		}
		seen[slug]++
	}
	return anchors
}

// TestMarkdownLinksResolve verifies every relative markdown link: the
// target file must exist, and a #fragment must match a heading anchor in
// the target (or, for bare #fragments, the current file).
func TestMarkdownLinksResolve(t *testing.T) {
	for _, file := range mdFiles(t) {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		// Links inside code spans/fences are not links.
		content := mdCodeRe.ReplaceAllString(string(raw), "")
		for _, m := range mdLinkRe.FindAllStringSubmatch(content, -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			pathPart, frag, hasFrag := strings.Cut(target, "#")
			resolved := file
			if pathPart != "" {
				resolved = filepath.Join(filepath.Dir(file), pathPart)
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s: broken link %q (%s does not exist)", file, target, resolved)
					continue
				}
			}
			if hasFrag && strings.HasSuffix(strings.ToLower(resolved), ".md") {
				if !anchorsOf(t, resolved)[frag] {
					t.Errorf("%s: link %q points at missing anchor #%s in %s", file, target, frag, resolved)
				}
			}
		}
	}
}

var (
	citedTestRe   = regexp.MustCompile(`\bTest[A-Z][A-Za-z0-9_]*`)
	definedTestRe = regexp.MustCompile(`(?m)^func (Test[A-Za-z0-9_]*)\(`)
)

// TestCitedTestsExist fails when a markdown file cites a Test… name that
// no _test.go file in the repository defines, so a deleted or renamed
// test cannot stay on record as a guard. README.md indexes the
// documentation: root-level markdown it does not link to (the change log,
// the paper's abstract, quoted related work, planning notes) is exempt,
// because it may name tests that were removed or are yet to be written.
// Markdown below the root is always checked.
func TestCitedTestsExist(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	indexed := map[string]bool{"README.md": true}
	for _, m := range mdLinkRe.FindAllStringSubmatch(string(readme), -1) {
		target, _, _ := strings.Cut(m[1], "#")
		indexed[filepath.Clean(target)] = true
	}
	defined := map[string]bool{}
	cited := map[string][]string{} // test name -> files citing it
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(path, "_test.go"):
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range definedTestRe.FindAllStringSubmatch(string(raw), -1) {
				defined[m[1]] = true
			}
		case strings.HasSuffix(path, ".md") && (filepath.Dir(path) != "." || indexed[path]):
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, name := range citedTestRe.FindAllString(string(raw), -1) {
				cited[name] = append(cited[name], path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !defined["TestCitedTestsExist"] {
		t.Fatal("scan found no test definitions — the walk is not covering the repo")
	}
	for name, files := range cited {
		if !defined[name] {
			t.Errorf("%s cited in %s, but no _test.go file defines it", name, strings.Join(slices.Compact(files), ", "))
		}
	}
}

// mdCitationRe matches a markdown file named in prose: an upper-case
// base name such as PERFORMANCE.md, with any path before it
// (docs/ARCHITECTURE.md), taken relative to the repository root.
var mdCitationRe = regexp.MustCompile(`(?:[\w.-]+/)*[A-Z][A-Z0-9_]*\.md\b`)

// TestGoCommentCitationsExist fails when a comment in the root module's
// Go files names a markdown file that does not exist, so a doc comment
// cannot send readers to a document that was never written or was
// removed. bench/ is a module of its own and is not scanned.
func TestGoCommentCitationsExist(t *testing.T) {
	scanned := 0
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "bench" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		scanned++
		for _, group := range f.Comments {
			for _, cite := range mdCitationRe.FindAllString(group.Text(), -1) {
				if _, err := os.Stat(cite); err != nil {
					t.Errorf("%s: comment cites %s, which does not exist", path, cite)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned < 50 {
		t.Fatalf("scanned only %d Go files — the walk is not covering the module", scanned)
	}
}
