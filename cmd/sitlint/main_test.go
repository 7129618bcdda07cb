package main

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// buildTool builds the sitlint binary into the test's temp dir.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sitlint")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sitlint")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/sitlint: %v\n%s", err, out)
	}
	return bin
}

// copyModule copies the module's non-test sources (and the files they
// embed) into a fresh directory, leaving out testdata, hidden
// directories and nested modules, and returns the copy's root.
func copyModule(t *testing.T, root string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel == "." {
				return nil
			}
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// ctxViolations reintroduces a ctxflow violation in
// internal/sischedule, one of ctxflow's target packages: an exported
// loop that feeds context.Background to context-aware work.
var ctxViolations = map[string]string{
	"internal/sischedule/zz_violation.go": `package sischedule

import "context"

func ZZViolate(items []int) int64 {
	var total int64
	for _, x := range items {
		total += int64(zzEval(context.Background(), x))
	}
	return total
}

func zzEval(ctx context.Context, x int) int { return x }
`,
}

// factViolations holds one source file per package, each reintroducing
// violations of the fact-based analyzers where the real invariants
// live.
//
//   - internal/serve: lockorder (a return while holding the scheduler
//     lock, and a Job-before-Scheduler inversion), fsyncack (a raw
//     journal-fd write outside the owner, a discarded same-package
//     Journal.Append error, and a discarded cross-package
//     core.CacheFile.Sync error — the last one is only found if core's
//     Durable fact exists before serve is analyzed) and metricvocab (a
//     concatenated series name).
//   - internal/compaction: a map range on a declared detmerge root.
var factViolations = map[string]string{
	"internal/serve/zz_violation.go": `package serve

func zzLockLeak(s *Scheduler, x bool) {
	s.mu.Lock()
	if x {
		return
	}
	s.mu.Unlock()
}

func zzInvert(s *Scheduler, j *Job) {
	j.mu.Lock()
	defer j.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
}

func zzRawWrite(j *Journal, b []byte) {
	j.f.Write(b)
}

func zzDiscard(s *Scheduler) {
	s.journal.Append(JournalEntry{})
}

func zzCrossDiscard(s *Scheduler) {
	s.cache.Sync()
}

func zzBadMetric(s *Scheduler, name string) {
	s.cfg.Metrics.Counter("zz_" + name).Inc()
}
`,
	"internal/compaction/zz_violation.go": `package compaction

//sitlint:detmerge-root
func zzMerge(m map[int]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}
`,
}

// checkViolations runs sitlint over a copy of the module with the
// given violation files added, and requires exit 2 and exactly want
// diagnostics per analyzer, every one of them in a violation file.
// The source tree itself is never written.
func checkViolations(t *testing.T, files map[string]string, want map[string]int) {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks a copy of the whole module; skipped in -short mode")
	}
	bin := buildTool(t)
	mod := copyModule(t, repoRoot(t))
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(mod, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cmd := exec.Command(bin)
	cmd.Dir = mod
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("sitlint on reintroduced violations: err=%v, want exit 2\nstdout:\n%s\nstderr:\n%s", err, out, stderr.String())
	}

	got := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.SplitN(line, ": ", 3)
		if len(fields) != 3 || !strings.Contains(fields[0], "zz_violation.go:") {
			t.Errorf("diagnostic outside the violation files: %q", line)
			continue
		}
		got[fields[1]]++
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			want[name] = 0
		}
	}
	for name, n := range want {
		if got[name] != n {
			t.Errorf("analyzer %s: got %d diagnostics, want %d", name, got[name], n)
		}
	}
	if t.Failed() {
		t.Logf("output:\n%s", out)
	}
}

// TestVettoolFlagsReintroducedViolations requires sitlint to flag the
// ctxflow violation and nothing else. (The name dates from the go vet
// -vettool mode; sitlint now has one mode.)
func TestVettoolFlagsReintroducedViolations(t *testing.T) {
	checkViolations(t, ctxViolations, map[string]int{"ctxflow": 1})
}

// TestVettoolReintroducedFactViolations requires sitlint to flag the
// fact-based violations, the cross-package Sync discard among them,
// and nothing else.
func TestVettoolReintroducedFactViolations(t *testing.T) {
	checkViolations(t, factViolations, map[string]int{
		"detmerge":    1,
		"lockorder":   2, // return-while-held + inversion
		"fsyncack":    3, // raw fd write + discarded Append + discarded cross-package Sync
		"metricvocab": 1,
	})
}

// TestStandaloneCleanTree runs sitlint over the whole module and
// requires a clean exit: the repository must stay free of the
// invariant violations the suite enforces.
func TestStandaloneCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module; skipped in -short mode")
	}
	bin := buildTool(t)
	cmd := exec.Command(bin)
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("sitlint failed: %v\n%s", err, out)
	}
}
