package sitam

// End-to-end tests of the fleet-telemetry path: sitamd's negotiated
// Prometheus exposition, the flight-recorder trace replay, and the
// sitrace -diff comparison of two daemon-produced traces.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sitam/internal/obs"
)

func httpGet(t *testing.T, url, accept string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestE2ESitamdTelemetry drives the daemon through two jobs and then
// walks the whole telemetry surface: a Prometheus scrape that the
// strict format validator accepts, byte-stable trace replays, a
// sitrace -check pass on a daemon trace (job spans balance), and a
// nonempty sitrace -diff between the two runs.
func TestE2ESitamdTelemetry(t *testing.T) {
	cmd, _, base := startSitamd(t)
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	id1 := submitJob(t, base, `{"soc":"d695","wmax":12,"nr":200,"groups":2,"seed":1}`)
	waitJobState(t, base, id1, "done")
	id2 := submitJob(t, base, `{"soc":"d695","wmax":16,"nr":400,"groups":2,"seed":7}`)
	waitJobState(t, base, id2, "done")

	// A Prometheus scrape parses cleanly and carries the job counters.
	resp, prom := httpGet(t, base+"/metrics", "text/plain")
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("scrape Content-Type = %q", ct)
	}
	if err := obs.ValidatePrometheus(bytes.NewReader(prom)); err != nil {
		t.Errorf("daemon exposition invalid: %v\n%s", err, prom)
	}
	if !bytes.Contains(prom, []byte(`sitam_jobs_total{state="done"} 2`)) {
		t.Errorf("exposition missing done-jobs counter:\n%s", prom)
	}
	// The JSON default is untouched.
	resp, jsonBody := httpGet(t, base+"/metrics", "")
	if resp.Header.Get("Content-Type") != "application/json" || !bytes.Contains(jsonBody, []byte(`"serve_done"`)) {
		t.Errorf("JSON metrics changed shape:\n%s", jsonBody)
	}

	// Trace replays are byte-stable and land on disk for sitrace.
	dir := t.TempDir()
	var traceFiles []string
	for _, id := range []string{id1, id2} {
		_, first := httpGet(t, base+"/v1/jobs/"+id+"/trace", "")
		_, second := httpGet(t, base+"/v1/jobs/"+id+"/trace", "")
		if !bytes.Equal(first, second) {
			t.Fatalf("trace replay of %s not byte-stable", id)
		}
		name := filepath.Join(dir, id+".jsonl")
		if err := os.WriteFile(name, first, 0o644); err != nil {
			t.Fatal(err)
		}
		traceFiles = append(traceFiles, name)
	}

	// A daemon trace passes the strict check: schema, global spans,
	// per-job spans, power budget.
	if out := runTool(t, "sitrace", "-check", traceFiles[0]); !strings.Contains(out, "trace OK") {
		t.Errorf("sitrace -check on daemon trace:\n%s", out)
	}

	// And the two runs diff into a nonempty phase/convergence report.
	out, err := exec.Command(filepath.Join(binaries(t), "sitrace"),
		"-diff", traceFiles[0], traceFiles[1]).CombinedOutput()
	if err != nil {
		t.Fatalf("sitrace -diff: %v\n%s", err, out)
	}
	for _, want := range []string{"diff:", "phases:", "si schedule", "convergence:", "final best:"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("sitrace -diff output missing %q:\n%s", want, out)
		}
	}
}

// TestE2ESitamdSampledRecording runs one job on a daemon whose trace
// bound is far below the job's event count and checks the sampled
// recording end to end: at most 64 events besides the phase spans,
// totals that match the job status, byte-stable replays, and a
// sitrace -check pass that reports the elided events.
func TestE2ESitamdSampledRecording(t *testing.T) {
	const limit = 64
	cmd, _, base := startSitamd(t, "-trace-events", strconv.Itoa(limit))
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	id := submitJob(t, base, `{"soc":"d695","wmax":16,"nr":400,"groups":2,"seed":7}`)
	waitJobState(t, base, id, "done")
	_, body := httpGet(t, base+"/v1/jobs/"+id, "")
	var st struct {
		TraceEvents int `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	resp, first := httpGet(t, base+"/v1/jobs/"+id+"/trace", "")
	_, second := httpGet(t, base+"/v1/jobs/"+id+"/trace", "")
	if resp.StatusCode != http.StatusOK || !bytes.Equal(first, second) {
		t.Fatalf("trace replay status %d, byte-stable %v", resp.StatusCode, bytes.Equal(first, second))
	}
	events, err := obs.ReadJSONL(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	var phases int
	for _, ev := range events {
		if ev.Type == obs.PhaseStart || ev.Type == obs.PhaseEnd {
			phases++
		}
	}
	if len(events) > limit+phases {
		t.Errorf("recording keeps %d events (%d phase), want at most %d besides the phase events", len(events), phases, limit)
	}
	total, err := strconv.Atoi(resp.Header.Get("X-Sitam-Trace-Total"))
	if err != nil || total != st.TraceEvents || total <= limit {
		t.Errorf("X-Sitam-Trace-Total = %q, status traceEvents %d; want equal and above %d", resp.Header.Get("X-Sitam-Trace-Total"), st.TraceEvents, limit)
	}
	dropped := total - len(events)
	if got := resp.Header.Get("X-Sitam-Trace-Dropped"); got != strconv.Itoa(dropped) {
		t.Errorf("X-Sitam-Trace-Dropped = %q, want %d (total %d minus %d lines)", got, dropped, total, len(events))
	}

	name := filepath.Join(t.TempDir(), id+".jsonl")
	if err := os.WriteFile(name, first, 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("trace OK: %d events, %d elided", len(events), dropped)
	if out := runTool(t, "sitrace", "-check", name); !strings.Contains(out, want) {
		t.Errorf("sitrace -check on a sampled recording: got\n%s\nwant %q", out, want)
	}
}
