package serve

// Tests of the fleet-telemetry surface: the content-negotiated
// Prometheus exposition on /metrics, the flight recorder, and the
// byte-stable trace replay endpoint.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"sitam/internal/obs"
)

func getWithAccept(t *testing.T, url, accept string) (*http.Response, []byte) {
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

func TestHTTPMetricsContentNegotiation(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{Config: Config{Workers: 2}})
	acc, _ := postJob(t, ts, quickReq())
	waitHTTPTerminal(t, ts, acc.ID)

	// Default (no Accept, and explicit JSON): the historical JSON
	// snapshot, unchanged for existing clients.
	for _, accept := range []string{"", "application/json", "*/*", "application/json, text/plain"} {
		resp, body := getWithAccept(t, ts.URL+"/metrics", accept)
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("Accept %q: Content-Type = %q, want application/json", accept, ct)
		}
		if !bytes.Contains(body, []byte(`"serve_admitted"`)) {
			t.Errorf("Accept %q: JSON body missing counters:\n%s", accept, body)
		}
	}

	// text/plain negotiates the Prometheus 0.0.4 exposition, and the
	// format validator parses every scrape without error.
	for _, accept := range []string{"text/plain", "text/plain; version=0.0.4", "text/plain, application/json", "application/openmetrics-text"} {
		resp, body := getWithAccept(t, ts.URL+"/metrics", accept)
		if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
			t.Errorf("Accept %q: Content-Type = %q, want %q", accept, ct, obs.PromContentType)
		}
		if err := obs.ValidatePrometheus(bytes.NewReader(body)); err != nil {
			t.Errorf("Accept %q: exposition invalid: %v\n%s", accept, err, body)
		}
		for _, want := range []string{
			"# TYPE serve_admitted counter",
			"# TYPE sitam_jobs_total counter",
			`sitam_jobs_total{state="done"} 1`,
			"# TYPE sitam_job_phase_ms histogram",
			`sitam_job_phase_ms_bucket{phase="si schedule",le="+Inf"}`,
			"# TYPE serve_job_ms histogram",
			"serve_job_ms_bucket{le=\"+Inf\"} 1",
			"# TYPE sitam_build_info gauge",
			"sitam_build_info{goversion=",
		} {
			if !strings.Contains(string(body), want) {
				t.Errorf("Accept %q: exposition missing %q:\n%s", accept, want, body)
			}
		}
	}
}

func TestHTTPTraceReplayByteStable(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{Config: Config{Workers: 1}})
	acc, _ := postJob(t, ts, quickReq())
	waitHTTPTerminal(t, ts, acc.ID)

	resp, first := getWithAccept(t, ts.URL+"/v1/jobs/"+acc.ID+"/trace", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d\n%s", resp.StatusCode, first)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	resp2, second := getWithAccept(t, ts.URL+"/v1/jobs/"+acc.ID+"/trace", "")
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(first, second) {
		t.Error("two replays of one finished job differ")
	}

	// The replay parses as a valid trace, every event carries the
	// job-correlation ID, and job spans balance.
	events, err := obs.ReadJSONL(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty replayed trace")
	}
	if err := obs.ValidateTrace(events); err != nil {
		t.Error(err)
	}
	if err := obs.ValidateJobSpans(events); err != nil {
		t.Error(err)
	}
	for i := range events {
		if events[i].Job != acc.ID {
			t.Fatalf("event %d carries job %q, want %q", i, events[i].Job, acc.ID)
		}
	}

	// Unknown jobs 404; unfinished jobs 409 with a pointer to /events.
	resp, _ = getWithAccept(t, ts.URL+"/v1/jobs/j999999/trace", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job trace status = %d, want 404", resp.StatusCode)
	}
}

func TestHTTPTraceConflictWhileRunning(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{Config: Config{Workers: 1, TestHooks: true}})
	acc, _ := postJob(t, ts, sleepReq(2000))
	job, err := srv.Scheduler().Job(acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateRunning)
	resp, body := getWithAccept(t, ts.URL+"/v1/jobs/"+acc.ID+"/trace", "")
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("running job trace status = %d, want 409\n%s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("/events")) {
		t.Errorf("409 body should point at the event stream:\n%s", body)
	}
	job.Cancel()
	waitHTTPTerminal(t, ts, acc.ID)
}

// TestFlightRecorderEviction checks that a recording is stored as the
// job's tracer retained it, with its elision counted, and that the job
// ring evicts the oldest recording. The tracer's head/tail bound itself
// is pinned in package obs (TestJobTracerBound, TestJobTracerSampling).
func TestFlightRecorderEviction(t *testing.T) {
	fr := NewFlightRecorder(2)
	kept := make([]obs.Event, 10)
	for i := range kept {
		kept[i] = obs.Event{Seq: uint64(i), Type: obs.CandidateEvaluated, Phase: "merge", Cand: i}
	}
	fr.Record("j1", kept, 100)
	if rec := fr.Get("j1"); rec == nil || len(rec.Events) != 10 || rec.Total != 100 || rec.Dropped != 90 {
		t.Fatalf("recording = %+v, want 10 events, total 100, dropped 90", rec)
	}

	// A trace that fit is kept whole.
	fr.Record("j2", kept[:4], 4)
	if rec := fr.Get("j2"); rec.Dropped != 0 || len(rec.Events) != 4 {
		t.Errorf("short recording = %+v", rec)
	}

	// The job ring evicts the oldest recording.
	fr.Record("j3", kept[:1], 1)
	if fr.Get("j1") != nil {
		t.Error("oldest recording not evicted")
	}
	if fr.Get("j2") == nil || fr.Get("j3") == nil || fr.Len() != 2 {
		t.Errorf("ring state wrong: len=%d", fr.Len())
	}
}

// TestBoundedJobRecordings runs six jobs under a small trace bound and
// a two-job recorder: a finished job's tracer holds no events, each
// recording stays within the bound plus its phase spans and counts
// every event the job emitted, and an /events stream opened after the
// job finished replays its recording, then done.
func TestBoundedJobRecordings(t *testing.T) {
	const limit = 32
	srv, ts := newTestServer(t, ServerConfig{Config: Config{Workers: 2, RecorderJobs: 2, RecorderEvents: limit}})
	var jobs []*Job
	for seed := int64(1); seed <= 6; seed++ {
		req := quickReq()
		req.Seed = seed
		acc, resp := postJob(t, ts, req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status = %d", resp.StatusCode)
		}
		job, err := srv.Scheduler().Job(acc.ID)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	statuses := map[string]Status{}
	for _, job := range jobs {
		statuses[job.ID] = waitTerminal(t, job)
		if n := len(job.Trace.Events()); n != 0 {
			t.Errorf("%s: finished job's tracer holds %d events", job.ID, n)
		}
	}
	if n := srv.Scheduler().Recorder().Len(); n != 2 {
		t.Fatalf("recorder holds %d recordings, want 2", n)
	}

	var retained []*Recording
	for _, job := range jobs {
		rec := srv.Scheduler().Recorder().Get(job.ID)
		if rec == nil {
			continue
		}
		retained = append(retained, rec)
		st := statuses[job.ID]
		var phases int
		for _, ev := range rec.Events {
			if ev.Type == obs.PhaseStart || ev.Type == obs.PhaseEnd {
				phases++
			}
		}
		if len(rec.Events) > limit+phases || rec.Dropped == 0 {
			t.Errorf("%s: recording keeps %d events (%d phase), drops %d; want at most %d plus phase events, some dropped", job.ID, len(rec.Events), phases, rec.Dropped, limit)
		}
		if rec.Total != st.Events || rec.Dropped != rec.Total-len(rec.Events) {
			t.Errorf("%s: recording total/dropped %d/%d, status traceEvents %d, %d kept", job.ID, rec.Total, rec.Dropped, st.Events, len(rec.Events))
		}
		if elided, err := obs.ValidateRecording(rec.Events); err != nil || elided != rec.Dropped {
			t.Errorf("%s: ValidateRecording = %d, %v; want %d elided", job.ID, elided, err, rec.Dropped)
		}
		if err := obs.ValidateJobSpans(rec.Events); err != nil {
			t.Errorf("%s: %v", job.ID, err)
		}
	}
	if len(retained) != 2 {
		t.Fatalf("%d jobs have recordings, want 2", len(retained))
	}

	// A stream opened after the job finished replays the recording.
	rec := retained[1]
	resp, err := http.Get(ts.URL + "/v1/jobs/" + rec.JobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var streamed []obs.Event
	var done Status
	err = readSSE(resp.Body, func(ev sseEvent) bool {
		switch ev.name {
		case "trace":
			var e obs.Event
			if err := json.Unmarshal([]byte(ev.data), &e); err != nil {
				t.Errorf("trace event payload: %v", err)
			}
			streamed = append(streamed, e)
		case "done":
			if err := json.Unmarshal([]byte(ev.data), &done); err != nil {
				t.Errorf("done event payload: %v", err)
			}
			return true
		}
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(rec.Events) {
		t.Fatalf("stream carried %d trace events, recording holds %d", len(streamed), len(rec.Events))
	}
	for i := range streamed {
		if streamed[i] != rec.Events[i] {
			t.Fatalf("streamed event %d = %+v, recording has %+v", i, streamed[i], rec.Events[i])
		}
	}
	if done.ID != rec.JobID || !done.State.Terminal() || done.Events != rec.Total {
		t.Errorf("done event = %+v, want %s terminal with %d trace events", done, rec.JobID, rec.Total)
	}
}

// TestFlightRecorderConcurrent is the -race proof for the recorder:
// concurrent recorders and readers over a small ring.
func TestFlightRecorderConcurrent(t *testing.T) {
	fr := NewFlightRecorder(8)
	events := make([]obs.Event, 16)
	for i := range events {
		events[i] = obs.Event{Seq: uint64(i), Type: obs.CandidateEvaluated, Phase: "merge"}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("j%d-%d", w, i)
				fr.Record(id, events, 64)
				if rec := fr.Get(id); rec != nil {
					if rec.Dropped != 48 || len(rec.Events) != 16 {
						t.Errorf("recording %s stored wrong: %d kept, %d dropped", id, len(rec.Events), rec.Dropped)
						return
					}
				}
				fr.Len()
			}
		}(w)
	}
	wg.Wait()
	if fr.Len() != 8 {
		t.Errorf("ring len = %d, want 8", fr.Len())
	}
}
