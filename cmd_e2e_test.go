package sitam

// End-to-end tests of the command-line tools: each binary is compiled
// once into a temp dir and driven with small workloads, checking exit
// status and the shape of its output.

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

var buildOnce sync.Once
var buildDir string
var buildErr error

// TestMain removes the directory binaries built the tools into once
// every test of the package has run.
func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

func binaries(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "sitam-bin")
		if buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", buildDir+string(os.PathSeparator), "./cmd/...")
		out, err := cmd.CombinedOutput()
		if err != nil {
			buildErr = err
			t.Logf("go build output:\n%s", out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building binaries: %v", buildErr)
	}
	return buildDir
}

func runTool(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binaries(t), name), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestE2ESocinfo(t *testing.T) {
	out := runTool(t, "socinfo", "-soc", "d695", "-w", "1,8,16")
	for _, want := range []string{"d695", "c6288", "lower bound", "TR-Architect"} {
		if !strings.Contains(out, want) {
			t.Errorf("socinfo output missing %q:\n%s", want, out)
		}
	}
}

func TestE2ETamopt(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "out.json")
	out := runTool(t, "tamopt", "-soc", "d695", "-w", "12", "-nr", "1500", "-g", "2",
		"-gantt", "-json", jsonPath)
	for _, want := range []string{"architecture:", "SI schedule", "T_soc", "Gantt"} {
		if !strings.Contains(out, want) {
			t.Errorf("tamopt output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"schema\": 1") {
		t.Errorf("json output malformed:\n%s", data)
	}
	// Baseline and ILS modes run too.
	if out := runTool(t, "tamopt", "-soc", "d695", "-w", "12", "-nr", "1000", "-g", "2", "-baseline"); !strings.Contains(out, "T_soc") {
		t.Errorf("baseline mode output:\n%s", out)
	}
	if out := runTool(t, "tamopt", "-soc", "d695", "-w", "12", "-nr", "1000", "-g", "2", "-ils", "3"); !strings.Contains(out, "T_soc") {
		t.Errorf("ils mode output:\n%s", out)
	}
}

func TestE2ESigenSicompactPipe(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "raw.pat")
	comp := filepath.Join(dir, "comp.pat")
	out := runTool(t, "sigen", "-soc", "d695", "-nr", "800", "-o", raw, "-stats")
	if !strings.Contains(out, "wrote 800 patterns") || !strings.Contains(out, "care bits") {
		t.Errorf("sigen output:\n%s", out)
	}
	out = runTool(t, "sicompact", "-soc", "d695", "-g", "2", "-o", comp, raw)
	if !strings.Contains(out, "compacted") || !strings.Contains(out, "groups") {
		t.Errorf("sicompact output:\n%s", out)
	}
	if _, err := os.Stat(comp); err != nil {
		t.Fatal(err)
	}
	// Topology modes of sigen.
	out = runTool(t, "sigen", "-soc", "d695", "-model", "ma", "-fanout", "1", "-width", "8", "-k", "2")
	if !strings.Contains(out, "space ") {
		t.Errorf("sigen ma output:\n%s", out)
	}
	out = runTool(t, "sigen", "-soc", "d695", "-model", "mt", "-fanout", "1", "-width", "6", "-k", "1", "-cap", "500")
	if !strings.Contains(out, "wrote 500 patterns") {
		t.Errorf("sigen mt output:\n%s", out)
	}
}

func TestE2ESocbenchQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("socbench quick sweep takes a few seconds")
	}
	out := runTool(t, "socbench", "-quick", "-soc", "p34392", "-markdown")
	for _, want := range []string{"motivation estimate", "#### p34392", "| Wmax |"} {
		if !strings.Contains(out, want) {
			t.Errorf("socbench output missing %q:\n%s", want, out)
		}
	}
	out = runTool(t, "socbench", "-coverage", "-quick")
	if !strings.Contains(out, "coverage") {
		t.Errorf("socbench coverage output:\n%s", out)
	}
}

func TestE2EToolRejectsBadFlags(t *testing.T) {
	cmd := exec.Command(filepath.Join(binaries(t), "tamopt"), "-soc", "nonexistent")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Errorf("tamopt accepted unknown SOC:\n%s", out)
	}
	cmd = exec.Command(filepath.Join(binaries(t), "sicompact"))
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Errorf("sicompact accepted missing args:\n%s", out)
	}
}

// TestE2ESicompactRejectsEmptyPattern feeds sicompact a pattern file
// whose last pattern has no care positions: a pattern with no care
// core belongs to no SI group, so grouping must reject it with an
// error naming it, not crash.
func TestE2ESicompactRejectsEmptyPattern(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "raw.pat")
	runTool(t, "sigen", "-soc", "d695", "-nr", "3", "-o", raw)
	f, err := os.OpenFile(raw, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("p w=1\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"1", "2"} {
		code, out := exitCode(t, exec.Command(filepath.Join(binaries(t), "sicompact"), "-soc", "d695", "-g", g, raw))
		if code == 0 {
			t.Fatalf("-g %s: sicompact accepted a pattern without care positions:\n%s", g, out)
		}
		if !strings.Contains(out, "pattern 3") || !strings.Contains(out, "no care positions") {
			t.Errorf("-g %s: error does not name the empty pattern:\n%s", g, out)
		}
		if strings.Contains(out, "goroutine ") || strings.Contains(out, "panic") {
			t.Errorf("-g %s: sicompact crashed:\n%s", g, out)
		}
	}
}

// exitCode runs a tool and returns its exit code and combined output,
// treating any exit (clean or not) as a result rather than a failure.
func exitCode(t *testing.T, cmd *exec.Cmd) (int, string) {
	t.Helper()
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("%v: %v\n%s", cmd.Args, err, out)
	}
	return ee.ExitCode(), string(out)
}

// TestE2ETamoptTimeout drives tamopt into a deadline mid-optimization:
// it must still print a result, mark it partial, and exit with the
// documented partial-result code 3.
func TestE2ETamoptTimeout(t *testing.T) {
	cmd := exec.Command(filepath.Join(binaries(t), "tamopt"),
		"-soc", "p93791", "-w", "40", "-nr", "4000", "-g", "2", "-ils", "100000",
		"-timeout", "2s")
	code, out := exitCode(t, cmd)
	if code != 3 {
		t.Fatalf("exit code = %d, want 3 (partial)\n%s", code, out)
	}
	if !strings.Contains(out, "RESULT PARTIAL (deadline)") {
		t.Errorf("output missing partial marker:\n%s", out)
	}
	if !strings.Contains(out, "T_soc") && !strings.Contains(out, "architecture:") {
		t.Errorf("partial run printed no result:\n%s", out)
	}
}

// TestE2ETamoptSIGINT interrupts a long tamopt run and checks the
// signal is treated like a deadline: partial marker, exit code 3.
func TestE2ETamoptSIGINT(t *testing.T) {
	cmd := exec.Command(filepath.Join(binaries(t), "tamopt"),
		"-soc", "p93791", "-w", "40", "-nr", "4000", "-g", "2", "-ils", "100000")
	var buf strings.Builder
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(1500 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	out := buf.String()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("tamopt survived SIGINT without exit code: %v\n%s", err, out)
	}
	if ee.ExitCode() != 3 {
		t.Fatalf("exit code = %d, want 3 (partial)\n%s", ee.ExitCode(), out)
	}
	if !strings.Contains(out, "RESULT PARTIAL (interrupted)") {
		t.Errorf("output missing interrupted marker:\n%s", out)
	}
}

// TestE2ESigenTimeout checks sigen writes the generated prefix, keeps
// stdout parseable, and reports the partial marker on stderr. Its
// second of generation writes hundreds of megabytes, so the test keeps
// only the head of stdout and counts the rest.
func TestE2ESigenTimeout(t *testing.T) {
	cmd := exec.Command(filepath.Join(binaries(t), "sigen"),
		"-soc", "p93791", "-nr", "50000000", "-timeout", "1s")
	stdout := &headWriter{limit: 4096}
	var stderr strings.Builder
	cmd.Stdout = stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 3 {
		t.Fatalf("err = %v, want exit code 3\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "RESULT PARTIAL (deadline)") {
		t.Errorf("stderr missing partial marker:\n%s", stderr.String())
	}
	if !strings.Contains(string(stdout.head), "space ") {
		t.Errorf("stdout (%d bytes) is not a pattern file:\n%.200s", stdout.n, stdout.head)
	}
}

// headWriter keeps the first limit bytes written to it and counts all
// of them.
type headWriter struct {
	head  []byte
	limit int
	n     int64
}

func (w *headWriter) Write(p []byte) (int, error) {
	if room := w.limit - len(w.head); room > 0 {
		w.head = append(w.head, p[:min(room, len(p))]...)
	}
	w.n += int64(len(p))
	return len(p), nil
}

// TestE2EErrorsGoToStderr pins the CLI hygiene contract: an input
// error produces a non-zero (and non-partial) exit code and lands on
// stderr, leaving stdout clean.
func TestE2EErrorsGoToStderr(t *testing.T) {
	cmd := exec.Command(filepath.Join(binaries(t), "tamopt"), "-soc", "nonexistent")
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("err = %v, want exit code 1\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "tamopt:") {
		t.Errorf("stderr missing prefixed error:\n%s", stderr.String())
	}
	if strings.Contains(stdout.String(), "error") {
		t.Errorf("error text leaked to stdout:\n%s", stdout.String())
	}
}

// --- sitamd daemon e2e ------------------------------------------------

// syncBuffer is a goroutine-safe writer the daemon's streams land in
// while the test polls for landmark lines.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRE = regexp.MustCompile(`listening on (http://\S+)`)

// startSitamd launches the daemon on a free port and waits for its
// listen line. The caller owns shutdown.
func startSitamd(t *testing.T, args ...string) (*exec.Cmd, *syncBuffer, string) {
	t.Helper()
	return startDaemon(t, filepath.Join(binaries(t), "sitamd"), args...)
}

// startDaemon is startSitamd for the sitamd executable at bin.
func startDaemon(t *testing.T, bin string, args ...string) (*exec.Cmd, *syncBuffer, string) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	out := &syncBuffer{}
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			return cmd, out, m[1]
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("sitamd never printed its listen line:\n%s", out.String())
	return nil, nil, ""
}

// submitJob posts a job and returns its ID.
func submitJob(t *testing.T, base, body string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, raw)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	return acc.ID
}

// jobStatus fetches a job's status record.
func jobStatus(t *testing.T, base, id string) (state, errMsg string, partial bool, ok bool) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return "", "", false, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", "", false, false
	}
	var st struct {
		State  string `json:"state"`
		Error  string `json:"error"`
		Result *struct {
			Partial bool `json:"partial"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", "", false, false
	}
	return st.State, st.Error, st.Result != nil && st.Result.Partial, true
}

func waitJobState(t *testing.T, base, id, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if state, _, _, ok := jobStatus(t, base, id); ok && state == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	state, errMsg, _, _ := jobStatus(t, base, id)
	t.Fatalf("job %s never reached %s (state %s, err %q)", id, want, state, errMsg)
}

// TestE2ESitamdServeDrain runs the full daemon lifecycle: serve a job
// to completion, SIGTERM, graceful drain, metrics flush, exit 0.
func TestE2ESitamdServeDrain(t *testing.T) {
	cmd, out, base := startSitamd(t)
	id := submitJob(t, base, `{"soc":"d695","wmax":12,"nr":200,"groups":2,"seed":1}`)
	waitJobState(t, base, id, "done")

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("drain exit: %v\n%s", err, out.String())
	}
	for _, want := range []string{"draining: admission closed", "final metrics snapshot", "serve_done", "drained cleanly"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("daemon output missing %q:\n%s", want, out.String())
		}
	}
}

// TestE2ESitamdJournalKill9 is the crash-recovery gate: kill -9 the
// daemon with one finished job and one mid-flight, restart on the same
// journal, and check the finished result replays while the crash
// victim is closed out as failed.
func TestE2ESitamdJournalKill9(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "jobs.jsonl")
	cmd, _, base := startSitamd(t, "-journal", journal, "-test-hooks", "-workers", "2")

	// Job A exhausts a tiny eval budget -> terminal partial, journaled.
	a := submitJob(t, base, `{"soc":"d695","wmax":12,"nr":200,"groups":2,"seed":1,"budget":5}`)
	waitJobState(t, base, a, "partial")
	// Job B stalls mid-flight -> the crash victim.
	b := submitJob(t, base, `{"soc":"d695","wmax":12,"nr":200,"groups":2,"seed":1,"chaos":{"sleepMS":60000}}`)
	waitJobState(t, base, b, "running")

	if err := cmd.Process.Kill(); err != nil { // kill -9: no drain, no journal close
		t.Fatal(err)
	}
	cmd.Wait()

	cmd2, out2, base2 := startSitamd(t, "-journal", journal)
	state, _, partial, ok := jobStatus(t, base2, a)
	if !ok || state != "partial" || !partial {
		t.Errorf("job %s after restart: state=%s partial=%v ok=%v, want replayed partial", a, state, partial, ok)
	}
	state, errMsg, _, ok := jobStatus(t, base2, b)
	if !ok || state != "failed" || !strings.Contains(errMsg, "crashed") {
		t.Errorf("job %s after restart: state=%s err=%q ok=%v, want failed crash record", b, state, errMsg, ok)
	}
	// The recovered daemon keeps serving and continues the ID sequence.
	c := submitJob(t, base2, `{"soc":"d695","wmax":12,"nr":200,"groups":2,"seed":1}`)
	if c == a || c == b {
		t.Errorf("recovered daemon reused job ID %s", c)
	}
	waitJobState(t, base2, c, "done")

	cmd2.Process.Signal(syscall.SIGTERM)
	if err := cmd2.Wait(); err != nil {
		t.Fatalf("recovered daemon drain exit: %v\n%s", err, out2.String())
	}
}

// TestE2ESitamdReuseAcrossRestart drives the build identity of real
// executables: sitamd restarted on its journal answers a repeat from
// the job its first process computed, and a second build of sitamd
// (the same executable with bytes appended) restarted on that journal
// computes the repeat afresh, with an equal result.
func TestE2ESitamdReuseAcrossRestart(t *testing.T) {
	sitamd := filepath.Join(binaries(t), "sitamd")
	exe, err := os.ReadFile(sitamd)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := filepath.Join(t.TempDir(), "sitamd")
	if err := os.WriteFile(rebuilt, append(exe, "another build"...), 0o755); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(t.TempDir(), "jobs.jsonl")
	type status struct {
		ID          string         `json:"id"`
		Result      map[string]any `json:"result"`
		ReusedFrom  string         `json:"reusedFrom"`
		TraceEvents int            `json:"traceEvents"`
	}
	// serve runs one d695 job on a daemon of bin and drains it.
	serve := func(bin string) status {
		t.Helper()
		cmd, out, base := startDaemon(t, bin, "-journal", journal)
		id := submitJob(t, base, `{"soc":"d695","wmax":16,"nr":2000,"groups":3,"seed":7}`)
		waitJobState(t, base, id, "done")
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("drain exit: %v\n%s", err, out.String())
		}
		return st
	}

	first := serve(sitamd)
	if first.ReusedFrom != "" || first.TraceEvents == 0 || first.Result == nil {
		t.Fatalf("first job %+v, want a computed result", first)
	}
	again := serve(sitamd)
	if again.ReusedFrom != first.ID || !reflect.DeepEqual(again.Result, first.Result) {
		t.Errorf("repeat after a restart: %+v, want reused from %s with %v", again, first.ID, first.Result)
	}
	other := serve(rebuilt)
	if other.ReusedFrom != "" || other.TraceEvents == 0 || !reflect.DeepEqual(other.Result, first.Result) {
		t.Errorf("repeat on another build: %+v, want computed with %v", other, first.Result)
	}
}

// TestE2ESitamdSecondSIGINTForcesExit pins the escape hatch: a second
// interrupt during a slow graceful drain exits 130 immediately.
func TestE2ESitamdSecondSIGINTForcesExit(t *testing.T) {
	cmd, out, base := startSitamd(t, "-test-hooks", "-drain", "30s")
	id := submitJob(t, base, `{"soc":"d695","wmax":12,"nr":200,"groups":2,"seed":1,"chaos":{"sleepMS":60000}}`)
	waitJobState(t, base, id, "running")

	// First interrupt: the drain starts and blocks on the sleeping job.
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(out.String(), "draining") && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	// Second interrupt: forced exit, code 130.
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 130 {
		t.Fatalf("err = %v, want exit code 130\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "forcing exit") {
		t.Errorf("output missing forced-exit marker:\n%s", out.String())
	}
}

// TestE2ETamoptSIGINTDrainBanner checks the batch CLIs advertise the
// force-exit escape hatch when interrupted. The forced exit itself is
// pinned where it can be exercised deterministically: the daemon e2e
// above (slow drain on a stalled job) and the cli package's re-exec
// test — a second SIGINT against tamopt's millisecond drain coalesces
// with the first in the runtime's signal queue more often than not.
func TestE2ETamoptSIGINTDrainBanner(t *testing.T) {
	cmd := exec.Command(filepath.Join(binaries(t), "tamopt"),
		"-soc", "p93791", "-w", "40", "-nr", "4000", "-g", "2", "-ils", "100000")
	out := &syncBuffer{}
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(1500 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 3 {
		t.Fatalf("err = %v, want exit code 3\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "press Ctrl-C again to force exit") {
		t.Errorf("output missing force-exit hint:\n%s", out.String())
	}
}
