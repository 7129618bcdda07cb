// Package analysistest runs an analyzer over fixture packages and
// checks its diagnostics against // want comments, mirroring the
// golang.org/x/tools/go/analysis/analysistest contract on the subset
// sitlint needs.
//
// Fixtures live under <analyzer package>/testdata/src/<name>/ and are
// type-checked as package path <name> against the real module: a
// fixture may import sitam/internal/tam, context, math/rand — anything
// reachable from the module root. Expectations are trailing comments:
//
//	r.Width = 3 // want `direct write to tam\.Rail field Width`
//
// The payload is a Go string literal (backquoted or double-quoted)
// holding a regular expression; several literals on one line expect
// several diagnostics. Every diagnostic must be wanted and every want
// must be matched, both at exact (file, line) positions. Fixture files
// are parsed by absolute path, as the module loader's are, and no
// message may name that path: a finding must read the same in every
// checkout.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"sitam/internal/analysis"
	"sitam/internal/analysis/load"
)

// resolver is shared across all analyzer test packages in one process:
// building the dependency universe shells out to go list once.
var (
	resolverOnce sync.Once
	resolver     *load.Resolver
	resolverErr  error
)

// extraStd lists stdlib packages fixtures may import beyond the
// module's own dependency closure.
var extraStd = []string{"context", "os", "sort", "sync"}

func sharedResolver() (*load.Resolver, error) {
	resolverOnce.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			resolverErr = err
			return
		}
		resolver, resolverErr = load.NewResolver(root, append([]string{"./..."}, extraStd...)...)
	})
	return resolver, resolverErr
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysistest: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Run checks the analyzer against each named fixture package under
// testdata/src relative to the test's working directory. The fixtures
// share one analysis session and are checked in the order given, so a
// later fixture may import an earlier one (the import path is the
// fixture directory name) and observe the facts exported while it was
// analyzed — the fixture leg of cross-package fact propagation.
func Run(t *testing.T, a *analysis.Analyzer, fixtures ...string) {
	t.Helper()
	r, err := sharedResolver()
	if err != nil {
		t.Fatal(err)
	}
	session := analysis.NewSession()
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range fixtures {
		dir := filepath.Join(testdata, "src", name)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var files []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				files = append(files, filepath.Join(dir, e.Name()))
			}
		}
		if len(files) == 0 {
			t.Fatalf("%s: fixture has no .go files", name)
		}
		pkg, err := r.CheckFiles(name, files...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		diags, err := analysis.RunSession(session, a, pkg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(t, pkg, diags)
		for _, d := range diags {
			if strings.Contains(d.Message, testdata) {
				t.Errorf("%s: message names an absolute path: %s", analysis.RelPosition(pkg.Fset.Position(d.Pos)), d.Message)
			}
		}
	}
}

// want is one expectation: a regexp at a (file, line).
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func check(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				idx := strings.Index(text, "want ")
				if idx < 0 || strings.TrimSpace(text[:idx]) != "" {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, lit := range wantRE.FindAllString(text[idx+len("want "):], -1) {
					payload, err := strconv.Unquote(lit)
					if err != nil {
						t.Fatalf("%s:%d: bad want literal %s: %v", pos.Filename, pos.Line, lit, err)
					}
					re, err := regexp.Compile(payload)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, payload, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}
