package sitam

// End-to-end tests of the observability surface: the tamopt -trace |
// sitrace walkthrough from the README, the -stats metrics snapshot,
// and the -budget partial-result path.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"sitam/internal/report"
)

func TestE2ETraceWalkthrough(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.jsonl")
	jsonPath := filepath.Join(dir, "run.json")
	out := runTool(t, "tamopt", "-soc", "d695", "-w", "12", "-nr", "1500", "-g", "2",
		"-workers", "1", "-trace", trace, "-stats", "-json", jsonPath)
	if !strings.Contains(out, "run metrics:") || !strings.Contains(out, "evals") {
		t.Errorf("tamopt -stats output missing metrics:\n%s", out)
	}
	if !strings.Contains(out, "cache_hits") {
		t.Errorf("tamopt -stats output missing cache counters:\n%s", out)
	}

	// Schema validation via sitrace -check.
	out = runTool(t, "sitrace", "-check", trace)
	if !strings.Contains(out, "trace OK") {
		t.Errorf("sitrace -check output:\n%s", out)
	}

	// The summary reports phases and the convergence endpoint, which
	// must equal the timeSOC of the JSON report.
	f, err := os.Open(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := report.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	out = runTool(t, "sitrace", trace)
	want := fmt.Sprintf("final best objective: %d", doc.TimeSOC)
	if !strings.Contains(out, want) {
		t.Errorf("sitrace summary missing %q:\n%s", want, out)
	}
	for _, section := range []string{"phases:", "si schedule", "candidates evaluated:"} {
		if !strings.Contains(out, section) {
			t.Errorf("sitrace summary missing %q:\n%s", section, out)
		}
	}

	// The curve CSV ends at the same objective.
	out = runTool(t, "sitrace", "-curve", trace)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 || lines[0] != "seq,evals,best" {
		t.Fatalf("sitrace -curve output:\n%s", out)
	}
	if !strings.HasSuffix(lines[len(lines)-1], fmt.Sprintf(",%d", doc.TimeSOC)) {
		t.Errorf("curve ends with %q, want best %d", lines[len(lines)-1], doc.TimeSOC)
	}
}

// TestE2ETamoptBudget caps the evaluation budget: tamopt must still
// print a result, mark it partial with the budget cause, and exit with
// the documented partial-result code 3.
func TestE2ETamoptBudget(t *testing.T) {
	cmd := exec.Command(filepath.Join(binaries(t), "tamopt"),
		"-soc", "d695", "-w", "12", "-nr", "1000", "-g", "2", "-workers", "1", "-budget", "200")
	code, out := exitCode(t, cmd)
	if code != 3 {
		t.Fatalf("exit code = %d, want 3 (partial)\n%s", code, out)
	}
	if !strings.Contains(out, "RESULT PARTIAL (budget)") {
		t.Errorf("output missing budget partial marker:\n%s", out)
	}
	if !strings.Contains(out, "T_soc") {
		t.Errorf("partial run printed no result:\n%s", out)
	}
}

func TestE2ESitraceRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte(`{"seq":0,"type":"nonsense"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(binaries(t), "sitrace"), "-check", bad)
	code, out := exitCode(t, cmd)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "unknown event type") {
		t.Errorf("sitrace error output:\n%s", out)
	}
}
