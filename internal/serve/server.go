package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"sitam/internal/obs"
)

// ServerConfig parameterizes a Server: the scheduler Config plus the
// HTTP-level knobs.
type ServerConfig struct {
	Config

	// Heartbeat is the SSE keep-alive interval (a comment line when no
	// trace events flow), so proxies and slow links do not reap idle
	// streams. 0 means 10s.
	Heartbeat time.Duration

	// Poll is the SSE trace-follow interval. 0 means 50ms.
	Poll time.Duration
}

// Server is the HTTP/JSON face of a Scheduler:
//
//	POST   /v1/jobs             submit  -> 202 {id}  | 503 + Retry-After
//	GET    /v1/jobs             list job statuses
//	GET    /v1/jobs/{id}        job status (result when terminal)
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/jobs/{id}/events SSE: search trace + heartbeats (a
//	                            finished job replays its recording);
//	                            client disconnect cancels a live job
//	                            unless ?cancel=no
//	GET    /v1/jobs/{id}/trace  flight-recorder replay of a finished
//	                            job's trace as JSONL (byte-stable)
//	GET    /metrics             obs registry snapshot: JSON by default,
//	                            Prometheus 0.0.4 text when the Accept
//	                            header prefers text/plain
//	GET    /healthz             liveness + drain state
type Server struct {
	sched     *Scheduler
	mux       *http.ServeMux
	heartbeat time.Duration
	poll      time.Duration
}

// NewServer builds a scheduler per cfg and the HTTP surface over it.
func NewServer(cfg ServerConfig) (*Server, error) {
	sched, err := NewScheduler(cfg.Config)
	if err != nil {
		return nil, err
	}
	s := &Server{sched: sched, mux: http.NewServeMux(), heartbeat: cfg.Heartbeat, poll: cfg.Poll}
	if s.heartbeat <= 0 {
		s.heartbeat = 10 * time.Second
	}
	if s.poll <= 0 {
		s.poll = 50 * time.Millisecond
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	setBuildInfo(sched.Metrics())
	return s, nil
}

// setBuildInfo publishes the conventional build-info gauge: a constant
// 1 whose labels carry the version facts a fleet dashboard joins on.
func setBuildInfo(reg *obs.Registry) {
	version := "dev"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		version = bi.Main.Version
	}
	reg.Gauge(obs.Labels("sitam_build_info", "version", version, "goversion", runtime.Version())).Set(1)
}

// Scheduler exposes the underlying scheduler (drain, direct job
// access in tests).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // response write failure leaves nothing to do
}

// submitAccepted is the 202 response body.
type submitAccepted struct {
	ID        string `json:"id"`
	State     State  `json:"state"`
	StatusURL string `json:"statusURL"`
	EventsURL string `json:"eventsURL"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	body := http.MaxBytesReader(w, r.Body, 2<<20)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "decoding request: " + err.Error()})
		return
	}
	job, err := s.sched.Submit(req)
	switch {
	case errors.Is(err, ErrOverloaded):
		// Load shedding: tell the client when to come back instead of
		// queueing unboundedly.
		w.Header().Set("Retry-After", strconv.Itoa(int((s.sched.RetryAfter()+time.Second-1)/time.Second)))
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	case errors.Is(err, ErrInvalid):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, submitAccepted{
		ID:        job.ID,
		State:     job.State(),
		StatusURL: "/v1/jobs/" + job.ID,
		EventsURL: "/v1/jobs/" + job.ID + "/events",
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.sched.Jobs()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Snapshot())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) jobOr404(w http.ResponseWriter, r *http.Request) *Job {
	job, err := s.sched.Job(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return nil
	}
	return job
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if job := s.jobOr404(w, r); job != nil {
		writeJSON(w, http.StatusOK, job.Snapshot())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.sched.Cancel(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, job.Snapshot())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.sched.Metrics().Snapshot()
	if acceptsPromText(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", obs.PromContentType)
		w.WriteHeader(http.StatusOK)
		obs.WritePrometheus(w, snap) //nolint:errcheck // response write failure leaves nothing to do
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// acceptsPromText decides the /metrics representation from the Accept
// header: the first media range naming text/plain (or the OpenMetrics
// type, which the 0.0.4 text format predates but scrapers send) wins
// over json; absent, empty or wildcard headers keep the historical
// JSON default so existing clients see no change.
func acceptsPromText(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mediaType := strings.TrimSpace(strings.SplitN(part, ";", 2)[0])
		switch mediaType {
		case "text/plain", "application/openmetrics-text":
			return true
		case "application/json", "*/*":
			return false
		}
	}
	return false
}

// handleTrace replays a finished job's flight recording as JSONL.
// Recordings are immutable, so two replays of one job are
// byte-identical; a recording past the -trace-events bound advertises
// the elision in the X-Sitam-Trace-Dropped header, and sitrace, which
// reads a trace whose events all carry a job ID as a recording, prints
// the elided count. Live jobs stream via /events instead — replay of
// an unfinished trace would not be stable.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	job := s.jobOr404(w, r)
	if job == nil {
		return
	}
	rec := s.sched.Recorder().Get(job.ID)
	if rec == nil {
		if !job.State().Terminal() {
			writeJSON(w, http.StatusConflict, errorBody{
				Error: fmt.Sprintf("job %s is %s; stream /v1/jobs/%s/events until it finishes", job.ID, job.State(), job.ID),
			})
			return
		}
		writeJSON(w, http.StatusNotFound, errorBody{
			Error: fmt.Sprintf("job %s has no retained trace (evicted from the flight recorder or replayed from the journal)", job.ID),
		})
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("X-Sitam-Trace-Total", strconv.Itoa(rec.Total))
	if rec.Dropped > 0 {
		h.Set("X-Sitam-Trace-Dropped", strconv.Itoa(rec.Dropped))
	}
	w.WriteHeader(http.StatusOK)
	obs.WriteJSONL(w, rec.Events) //nolint:errcheck // response write failure leaves nothing to do
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"draining": s.sched.Draining(),
		"jobs":     len(s.sched.Jobs()),
	})
}

// handleEvents streams the job's structured search trace as
// server-sent events ("trace" events carrying the JSONL records,
// ": heartbeat" comments on idle, one final "done" event carrying the
// terminal Status). A finished job's tracer is empty, so once the job
// is done the stream sends the rest of its flight recording, from the
// seq after the last event it sent, before "done"; an evicted or
// journal-replayed job has none. If the client disconnects while the
// job is live, the job is cancelled — an abandoned stream must not keep
// burning a worker — unless the stream was opened with ?cancel=no.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job := s.jobOr404(w, r)
	if job == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "streaming unsupported"})
		return
	}
	cancelOnDisconnect := r.URL.Query().Get("cancel") != "no"

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	next := 0 // seq after the last event sent
	send := func(events []obs.Event) {
		if len(events) == 0 {
			return
		}
		next = int(events[len(events)-1].Seq) + 1
		for _, ev := range events {
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: trace\ndata: %s\n\n", data)
		}
		fl.Flush()
	}

	poll := time.NewTicker(s.poll)
	defer poll.Stop()
	heartbeat := time.NewTicker(s.heartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			if cancelOnDisconnect && !job.State().Terminal() {
				s.sched.Cancel(job.ID) //nolint:errcheck // the job is known to exist
			}
			return
		case <-job.Done():
			if rec := s.sched.Recorder().Get(job.ID); rec != nil {
				i := sort.Search(len(rec.Events), func(i int) bool { return rec.Events[i].Seq >= uint64(next) })
				send(rec.Events[i:])
			}
			data, err := json.Marshal(job.Snapshot())
			if err == nil {
				fmt.Fprintf(w, "event: done\ndata: %s\n\n", data)
			}
			fl.Flush()
			return
		case <-poll.C:
			send(job.Trace.Since(next))
		case <-heartbeat.C:
			fmt.Fprint(w, ": heartbeat\n\n")
			fl.Flush()
		}
	}
}
