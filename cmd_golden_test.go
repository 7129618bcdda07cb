package sitam

// Golden-file regression tests for the CLI tools: stdout of fixed-seed
// runs is compared byte-for-byte against files under testdata/golden.
// Regenerate with:
//
//	go test -run TestGolden -update
//
// Each case is also a CLI-level differential check: the same command
// re-run at a different -workers count must reproduce the golden
// stdout exactly (cache counters go to stderr, which is not golden).
// Cases with a cache leg also re-run on a persistent -cache-file,
// fresh and then warm: a cache file must never change a printed
// number.

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/golden")

// goldenRun executes a tool capturing stdout alone and returns it with
// the exit code; stderr is logged for diagnosis only.
func goldenRun(t *testing.T, name string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binaries(t), name), args...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %v: %v\nstderr: %s", name, args, err, stderr.String())
		}
		code = ee.ExitCode()
	}
	if stderr.Len() > 0 {
		t.Logf("%s stderr:\n%s", name, stderr.String())
	}
	return stdout.String(), code
}

// checkGolden compares got against testdata/golden/<file>, rewriting
// the file under -update.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", file)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestGolden -update` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("stdout differs from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// goldenCases are the fixed-seed CLI invocations under golden lockdown.
// wantCode is the expected exit status; workers sweeps re-run the same
// command at several -workers values, all of which must match the one
// golden file.
var goldenCases = []struct {
	name     string
	file     string
	tool     string
	args     []string
	wantCode int
	workers  []string // -workers values to sweep; empty = run args as-is once

	// cacheFill, when non-nil, adds the cache leg: a run with these
	// extra args fills a fresh -cache-file unless empty, then two runs
	// of the golden command on that file must match the golden stdout.
	cacheFill []string
}{
	{
		name: "tamopt_d695",
		file: "tamopt_d695.golden",
		tool: "tamopt",
		args: []string{"-soc", "d695", "-w", "12", "-nr", "1500", "-g", "2", "-seed", "1"},

		workers: []string{"1", "2", "8"},
		// The file first holds the InTest-only baseline's entries,
		// which must not answer the SI-aware run's lookups.
		cacheFill: []string{"-baseline"},
	},
	{
		name: "tamopt_d695_ils_restarts",
		file: "tamopt_d695_ils_restarts.golden",
		tool: "tamopt",
		args: []string{"-soc", "d695", "-w", "12", "-nr", "1500", "-g", "2", "-seed", "1",
			"-ils", "3", "-restarts", "2"},

		workers: []string{"1", "8"},
	},
	{
		// -timeout 1ns expires before the first pattern is generated, so
		// the run deterministically takes the "nothing usable yet" path:
		// SOC summary, then the RESULT PARTIAL (deadline) marker, exit 3.
		name:     "tamopt_partial_deadline",
		file:     "tamopt_partial_deadline.golden",
		tool:     "tamopt",
		args:     []string{"-soc", "d695", "-w", "12", "-nr", "1500", "-g", "2", "-seed", "1", "-timeout", "1ns"},
		wantCode: 3,
		workers:  []string{"1", "8"},
	},
	{
		// Markdown output carries no elapsed-time line, so the quick
		// sweep is byte-stable (Format's header is not).
		name:    "socbench_quick_p34392",
		file:    "socbench_quick_p34392.golden",
		tool:    "socbench",
		args:    []string{"-quick", "-soc", "p34392", "-markdown", "-seed", "1"},
		workers: []string{"1", "8"},
		// One file across the sweep: baseline and SI-aware runs of
		// every grouping share it, fresh and then warm.
		cacheFill: []string{},
	},
}

func TestGoldenCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("golden CLI runs take a few seconds")
	}
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			sweeps := tc.workers
			if len(sweeps) == 0 {
				sweeps = []string{""}
			}
			var first string
			for i, w := range sweeps {
				args := tc.args
				if w != "" {
					args = append(append([]string{}, args...), "-workers", w)
				}
				out, code := goldenRun(t, tc.tool, args...)
				if code != tc.wantCode {
					t.Fatalf("workers=%q: exit code %d, want %d\n%s", w, code, tc.wantCode, out)
				}
				if i == 0 {
					first = out
					checkGolden(t, tc.file, out)
					continue
				}
				if out != first {
					t.Errorf("workers=%q stdout differs from workers=%q:\n%s", w, sweeps[0], diffHint(first, out))
				}
			}
			if tc.cacheFill != nil {
				checkCacheLeg(t, tc.tool, tc.args, tc.cacheFill, first)
			}
		})
	}
}

// checkCacheLeg fills a fresh cache file with a run of args+fill (when
// fill is non-empty), then runs args on that file twice and compares
// both outputs with want.
func checkCacheLeg(t *testing.T, tool string, args, fill []string, want string) {
	t.Helper()
	cf := []string{"-cache-file", filepath.Join(t.TempDir(), "eval.cache")}
	with := func(extra ...[]string) []string {
		out := append([]string{}, args...)
		for _, e := range extra {
			out = append(out, e...)
		}
		return out
	}
	if len(fill) > 0 {
		if _, code := goldenRun(t, tool, with(fill, cf)...); code != 0 {
			t.Fatalf("cache fill %v: exit code %d", fill, code)
		}
	}
	for _, leg := range []string{"first", "warm"} {
		out, code := goldenRun(t, tool, with(cf)...)
		if code != 0 || out != want {
			t.Errorf("%s run on the cache file: exit code %d, stdout vs golden:\n%s", leg, code, diffHint(want, out))
		}
	}
}

// diffHint points at the first line where two outputs diverge.
func diffHint(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n-%s\n+%s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
