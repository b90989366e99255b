package regcast_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocReferencesExist cross-checks doc.go: every file it names
// (README.md, DESIGN.md, EXPERIMENTS.md, bench_test.go, ...) and every
// package directory it mentions must actually exist, so the package
// documentation can never dangle again.
func TestDocReferencesExist(t *testing.T) {
	src, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}

	fileRe := regexp.MustCompile(`[A-Za-z0-9_]+\.(?:md|go)`)
	files := fileRe.FindAllString(string(src), -1)
	if len(files) == 0 {
		t.Fatal("doc.go names no files; the cross-check is vacuous")
	}
	seen := map[string]bool{}
	for _, f := range files {
		if seen[f] {
			continue
		}
		seen[f] = true
		if _, err := os.Stat(f); err != nil {
			t.Errorf("doc.go references %s, which does not exist: %v", f, err)
		}
	}
	for _, want := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "bench_test.go"} {
		if !seen[want] {
			t.Errorf("doc.go no longer references %s; keep the guided-tour pointers", want)
		}
	}

	pkgRe := regexp.MustCompile(`internal/[a-z0-9/]+`)
	for _, dir := range pkgRe.FindAllString(string(src), -1) {
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			t.Errorf("doc.go references package %s, which is not a directory", dir)
		}
	}
}

// TestExperimentsSectionReferencesExist holds the quoted section names that
// point into EXPERIMENTS.md to its headings: every quote after
// `EXPERIMENTS.md, ` in README.md, DESIGN.md, the verify skill and the
// repo's Go files, and every `see "…"` quote inside EXPERIMENTS.md itself,
// must start one of its # headings. Whitespace (and a Go comment's //) is
// normalised first, because quotes wrap across lines.
func TestExperimentsSectionReferencesExist(t *testing.T) {
	exp, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var headings []string
	for _, line := range strings.Split(string(exp), "\n") {
		if h := strings.TrimLeft(line, "#"); h != line {
			headings = append(headings, strings.TrimSpace(h))
		}
	}
	files := []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	comment := regexp.MustCompile(`\n[ \t]*//`)
	quotes := 0
	check := func(where string, quote *regexp.Regexp, src []byte) {
		text := strings.Join(strings.Fields(comment.ReplaceAllString(string(src), " ")), " ")
		for _, m := range quote.FindAllStringSubmatch(text, -1) {
			quotes++
			if !slices.ContainsFunc(headings, func(h string) bool { return strings.HasPrefix(h, m[1]) }) {
				t.Errorf("%s quotes EXPERIMENTS.md section %q, which starts no heading there", where, m[1])
			}
		}
	}
	afterName := regexp.MustCompile(`EXPERIMENTS\.md, "([^"]+)"`)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		check(f, afterName, src)
	}
	check("EXPERIMENTS.md", regexp.MustCompile(`see "([^"]+)"`), exp)
	if quotes == 0 {
		t.Error("no section of EXPERIMENTS.md is quoted anywhere; the cross-check is vacuous")
	}
}
