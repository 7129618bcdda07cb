package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg ServerConfig) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Scheduler().Drain(ctx)
		ts.Close()
	})
	return srv, ts
}

func postJob(t *testing.T, ts *httptest.Server, req Request) (submitAccepted, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var acc submitAccepted
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
			t.Fatal(err)
		}
	}
	return acc, resp
}

func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitHTTPTerminal(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st := getStatus(t, ts, id); st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never terminal", id)
	return Status{}
}

func TestHTTPSubmitAndResult(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{Config: Config{Workers: 2}})
	acc, resp := postJob(t, ts, quickReq())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if acc.ID == "" || acc.StatusURL == "" || acc.EventsURL == "" {
		t.Fatalf("incomplete 202 body: %+v", acc)
	}
	st := waitHTTPTerminal(t, ts, acc.ID)
	if st.State != StateDone || st.Result == nil || st.Result.TimeSOC <= 0 {
		t.Fatalf("status = %+v, want done with result", st)
	}

	// The metrics endpoint exposes the registry snapshot.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["serve_admitted"] != 1 || snap.Counters["serve_done"] != 1 {
		t.Errorf("metrics counters = %v, want 1 admitted / 1 done", snap.Counters)
	}
}

func TestHTTPValidationAndNotFound(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{Config: Config{Workers: 1}})
	for name, mutate := range map[string]func(*Request){
		"invalid algo":           func(r *Request) { r.Algo = "quantum" },
		"unknown benchmark":      func(r *Request) { r.SOC = "nope" },
		"unparsable source":      func(r *Request) { r.SOC, r.Source = "", "Module x" },
		"more groups than cores": func(r *Request) { r.Parts = 64 },
		"core ID above the bound": func(r *Request) {
			r.SOC, r.Source = "", "SocName big\nModule 1\nInputs 1\nOutputs 1\nPatterns 1\nModule 4000000\nInputs 1\nOutputs 2\nPatterns 1\n"
		},
	} {
		bad := quickReq()
		mutate(&bad)
		if _, resp := postJob(t, ts, bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"nonsense`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status = %d, want 400", resp.StatusCode)
	}
	gresp, err := http.Get(ts.URL + "/v1/jobs/j424242")
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status = %d, want 404", gresp.StatusCode)
	}
}

// TestHTTPShedsWith503RetryAfter pins the load-shedding contract on
// the wire: saturation yields 503 with a Retry-After header.
func TestHTTPShedsWith503RetryAfter(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{
		Config: Config{Workers: 1, QueueDepth: 1, TestHooks: true, RetryAfter: 2 * time.Second},
	})
	acc, _ := postJob(t, ts, sleepReq(500))
	waitRunningHTTP(t, ts, acc.ID)
	if _, resp := postJob(t, ts, quickReq()); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit: status = %d, want 202", resp.StatusCode)
	}
	_, resp := postJob(t, ts, quickReq())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated submit: status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
}

func waitRunningHTTP(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if getStatus(t, ts, id).State == StateRunning {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never running", id)
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// readSSE parses events (and bare heartbeat comments, reported with
// name ":") from an event stream until the body closes or the callback
// says stop.
func readSSE(r io.Reader, stop func(sseEvent) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var cur sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, ": "):
			if stop(sseEvent{name: ":", data: strings.TrimPrefix(line, ": ")}) {
				return nil
			}
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.name != "":
			if stop(cur) {
				return nil
			}
			cur = sseEvent{}
		}
	}
	return sc.Err()
}

// TestHTTPSSEStreamsTraceToCompletion checks the stream carries the
// structured search trace and finishes with a done event holding the
// terminal status.
func TestHTTPSSEStreamsTraceToCompletion(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{Config: Config{Workers: 1}, Poll: 5 * time.Millisecond})
	acc, _ := postJob(t, ts, quickReq())
	resp, err := http.Get(ts.URL + acc.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	var traces int
	var done Status
	err = readSSE(resp.Body, func(ev sseEvent) bool {
		switch ev.name {
		case "trace":
			traces++
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
	if traces == 0 {
		t.Error("stream carried no trace events")
	}
	if done.State != StateDone || done.Result == nil {
		t.Errorf("done event = %+v, want terminal status with result", done)
	}
	if traces != done.Events {
		t.Errorf("streamed %d trace events, job recorded %d", traces, done.Events)
	}
}

// TestHTTPSSEHeartbeat checks idle streams stay warm with heartbeat
// comments.
func TestHTTPSSEHeartbeat(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{
		Config:    Config{Workers: 1, TestHooks: true},
		Heartbeat: 20 * time.Millisecond,
	})
	acc, _ := postJob(t, ts, sleepReq(2_000))
	resp, err := http.Get(ts.URL + acc.EventsURL + "?cancel=no")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got := make(chan struct{})
	go readSSE(resp.Body, func(ev sseEvent) bool { //nolint:errcheck
		if ev.name == ":" && ev.data == "heartbeat" {
			close(got)
			return true
		}
		return false
	})
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("no heartbeat within 5s on an idle stream")
	}
}

// TestHTTPSSEDisconnectCancelsJob pins the disconnect contract: a
// client that abandons the event stream of a live job cancels it, so
// an orphaned request cannot keep burning a worker.
func TestHTTPSSEDisconnectCancelsJob(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{
		Config: Config{Workers: 1, TestHooks: true},
		Poll:   5 * time.Millisecond,
	})
	acc, _ := postJob(t, ts, sleepReq(60_000))
	waitRunningHTTP(t, ts, acc.ID)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+acc.EventsURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Drop the connection mid-stream.
	cancel()

	job, err := srv.Scheduler().Job(acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job not cancelled after disconnect; state %s", job.State())
	}
	if st := job.Snapshot(); st.State != StateCanceled {
		t.Errorf("state = %s (%s), want canceled", st.State, st.Error)
	}
	if got := srv.Scheduler().Metrics().Snapshot().Counter("serve_canceled"); got != 1 {
		t.Errorf("serve_canceled = %d, want 1", got)
	}
}

// TestHTTPSSEDisconnectOptOut checks ?cancel=no leaves the job
// running after a disconnect.
func TestHTTPSSEDisconnectOptOut(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{
		Config: Config{Workers: 1, TestHooks: true},
		Poll:   5 * time.Millisecond,
	})
	acc, _ := postJob(t, ts, sleepReq(400))
	waitRunningHTTP(t, ts, acc.ID)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+acc.EventsURL+"?cancel=no", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancel()

	if st := waitHTTPTerminal(t, ts, acc.ID); st.State != StateDone {
		t.Errorf("state = %s (%s), want done despite disconnect", st.State, st.Error)
	}
}

func TestHTTPCancelEndpoint(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{Config: Config{Workers: 1, TestHooks: true}})
	acc, _ := postJob(t, ts, sleepReq(60_000))
	waitRunningHTTP(t, ts, acc.ID)
	req, err := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+acc.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %d, want 202", resp.StatusCode)
	}
	if st := waitHTTPTerminal(t, ts, acc.ID); st.State != StateCanceled {
		t.Errorf("state = %s, want canceled", st.State)
	}
}

func TestHTTPHealthzAndList(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{Config: Config{Workers: 1}})
	acc, _ := postJob(t, ts, quickReq())
	waitHTTPTerminal(t, ts, acc.ID)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" || health["draining"] != false {
		t.Errorf("healthz = %v", health)
	}
	lresp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list []Status
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != acc.ID {
		t.Errorf("job list = %+v, want the one submitted job", list)
	}
}

// TestErrOverloadedWrapping pins the sentinel contract: wrapped
// ErrOverloaded still matches errors.Is.
func TestErrOverloadedWrapping(t *testing.T) {
	err := fmt.Errorf("admission: %w", ErrOverloaded)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatal("wrapped ErrOverloaded lost its identity")
	}
}
