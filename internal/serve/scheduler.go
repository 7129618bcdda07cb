package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sitam/internal/core"
	"sitam/internal/obs"
)

// Config parameterizes a Scheduler.
type Config struct {
	// Workers is the number of jobs run concurrently; 0 means
	// runtime.GOMAXPROCS(0). Jobs are the unit of parallelism — each
	// job's own grouping buckets and ILS restarts default to serial
	// (MaxJobWorkers).
	Workers int

	// QueueDepth bounds the admission queue; a submit beyond it is shed
	// with ErrOverloaded. 0 means DefaultQueueDepth.
	QueueDepth int

	// MaxJobWorkers caps the per-job worker budget a request may
	// claim, spent on grouping buckets and ILS restarts. 0 means 1
	// (serial grouping and search inside each job).
	MaxJobWorkers int

	// DefaultDeadline applies when a request carries no timeout;
	// MaxDeadline clamps client-supplied values — the second deadline
	// layer that keeps an absurd request from pinning a worker forever.
	// Zero values mean DefaultJobDeadline and DefaultMaxDeadline.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration

	// MaxEvals caps (and, for requests that leave it zero, defaults)
	// the per-job evaluation budget. 0 leaves budgets unlimited.
	MaxEvals int64

	// RetryAfter is the backoff advertised with 503 responses; 0 means
	// one second.
	RetryAfter time.Duration

	// Limits bounds per-request resources; zero means DefaultLimits.
	Limits Limits

	// TestHooks honors Request.Chaos fault injection. Never enable it
	// on a production daemon.
	TestHooks bool

	// JournalPath, when non-empty, makes admissions and terminal
	// transitions durable in an append-only journal there, replayed on
	// construction.
	JournalPath string

	// CachePath, when non-empty, backs every job's evaluation cache
	// with one persistent cache file: entries costed by any job — or by
	// a previous process — seed later jobs' caches. The file is opened
	// at construction and held across drain; a locked or damaged file
	// degrades to memory-only caching with a log line, never a failed
	// startup.
	CachePath string

	// RecorderJobs bounds how many finished jobs keep their trace
	// retrievable via GET /v1/jobs/{id}/trace. RecorderEvents bounds
	// the events each job's tracer retains, while the job runs and in
	// its recording: past it the tracer keeps the first half, every
	// phase span event and a ring of the newest (obs.NewJobTracer).
	// A finished job keeps only its status, so the traces held at once
	// are bounded by (Workers + RecorderJobs) × RecorderEvents events.
	// Zero means DefaultRecorderJobs / DefaultRecorderEvents.
	RecorderJobs   int
	RecorderEvents int

	// Metrics receives the scheduler's counters and gauges; created
	// internally when nil so /metrics always has content.
	Metrics *obs.Registry

	// Logf logs operational events; nil discards.
	Logf func(format string, args ...any)

	// identity returns the running build's identity (buildIdentity);
	// tests set another.
	identity func() string
}

// Default scheduler parameters.
const (
	DefaultQueueDepth  = 64
	DefaultJobDeadline = 30 * time.Second
	DefaultMaxDeadline = 2 * time.Minute
)

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.MaxJobWorkers <= 0 {
		c.MaxJobWorkers = 1
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = DefaultJobDeadline
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = DefaultMaxDeadline
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Limits == (Limits{}) {
		c.Limits = DefaultLimits()
	}
	if c.RecorderEvents <= 0 {
		c.RecorderEvents = DefaultRecorderEvents
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.identity == nil {
		c.identity = buildIdentity
	}
}

// Scheduler is the bounded job scheduler: admission control in Submit,
// a fixed worker pool draining the queue, per-job panic isolation in
// execute, answers to repeated requests from the jobs that computed
// them, and a graceful two-phase Drain. See DESIGN.md §11 for the
// admission and drain state machines and for repeated requests.
type Scheduler struct {
	cfg      Config
	journal  *Journal
	cache    *core.CacheFile
	recorder *FlightRecorder

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	nextID   int
	draining bool
	// reuse maps a request key to the first job that computed a done
	// outcome for it, so a repeat is answered with a copy instead of a
	// run. Journal replay fills it with the jobs this build computed.
	reuse map[reuseKey]reusable
	// build is the running build's identity, which the terminal entry
	// of a computed done job records; "" without a journal.
	build string

	queue   chan *Job
	wg      sync.WaitGroup
	running atomic.Int64

	// runCtx parents every job context; runCancel fires at the drain
	// grace deadline and partial-izes everything still in flight.
	runCtx    context.Context
	runCancel context.CancelFunc

	// terminalHook, when set, runs in finalizeJob right before the job
	// turns terminal. Tests set it before the first Submit; nil in
	// production.
	terminalHook func(job *Job, state State)
}

// NewScheduler builds a scheduler, replays the journal if configured,
// and starts the worker pool.
func NewScheduler(cfg Config) (*Scheduler, error) {
	cfg.fill()
	s := &Scheduler{
		cfg:      cfg,
		jobs:     make(map[string]*Job),
		reuse:    make(map[reuseKey]reusable),
		queue:    make(chan *Job, cfg.QueueDepth),
		recorder: NewFlightRecorder(cfg.RecorderJobs),
	}
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	if cfg.JournalPath != "" {
		if err := s.recoverJournal(cfg.JournalPath); err != nil {
			return nil, err
		}
	}
	if cfg.CachePath != "" {
		cache, err := core.OpenCacheFile(cfg.CachePath)
		if err != nil {
			cfg.Logf("cache file %s unavailable (%v); jobs run memory-only", cfg.CachePath, err)
		} else {
			s.cache = cache
			cfg.Metrics.Gauge("serve_cache_entries").Set(int64(cache.Len()))
			cfg.Logf("cache file %s: %d entries loaded", cfg.CachePath, cache.Loaded())
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for job := range s.queue {
				s.execute(job)
			}
		}()
	}
	return s, nil
}

// Metrics returns the scheduler's registry (for /metrics and the final
// drain snapshot).
func (s *Scheduler) Metrics() *obs.Registry { return s.cfg.Metrics }

// Recorder returns the flight recorder holding finished jobs' traces.
func (s *Scheduler) Recorder() *FlightRecorder { return s.recorder }

// RetryAfter is the advertised backoff for shed requests.
func (s *Scheduler) RetryAfter() time.Duration { return s.cfg.RetryAfter }

// Draining reports whether the scheduler has stopped admitting jobs.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Submit validates, clamps and admits a job, or sheds it. The returned
// error is ErrOverloaded (possibly wrapped) when the queue is full or
// the scheduler is draining — the HTTP layer maps that to 503 with
// Retry-After; any other error is a rejection of the request itself.
func (s *Scheduler) Submit(req Request) (*Job, error) {
	if err := req.Validate(s.cfg.Limits); err != nil {
		return nil, fmt.Errorf("%w: %s", ErrInvalid, err)
	}
	s.clamp(&req)
	key := req.reuseKey()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.cfg.Metrics.Counter("serve_shed").Inc()
		return nil, fmt.Errorf("draining: %w", ErrOverloaded)
	}
	if len(s.queue) == cap(s.queue) {
		s.cfg.Metrics.Counter("serve_shed").Inc()
		return nil, fmt.Errorf("queue full (%d jobs): %w", cap(s.queue), ErrOverloaded)
	}

	job := newJob(fmt.Sprintf("j%06d", s.nextID+1), req, s.cfg.RecorderEvents)
	job.key = key
	jobCtx, cancel := context.WithCancel(s.runCtx)
	job.setCancel(cancel)
	job.runBase = jobCtx

	// Durability before acknowledgement: the client must never hold a
	// job ID the journal does not know about.
	if err := s.journal.Append(JournalEntry{T: "submitted", ID: job.ID, Req: &req}); err != nil {
		cancel()
		return nil, err
	}

	// The length check above makes this send non-blocking in practice;
	// the default arm is belt and braces against future refactors that
	// move the send out of the lock.
	select {
	case s.queue <- job:
	default:
		cancel()
		s.cfg.Metrics.Counter("serve_shed").Inc()
		return nil, fmt.Errorf("queue full (%d jobs): %w", cap(s.queue), ErrOverloaded)
	}
	s.nextID++
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.cfg.Metrics.Counter("serve_admitted").Inc()
	s.cfg.Metrics.Gauge("serve_queue_depth").Set(int64(len(s.queue)))
	return job, nil
}

// clamp applies the server-side caps to client-supplied knobs so the
// journaled request records the effective values.
func (s *Scheduler) clamp(req *Request) {
	d := s.cfg.DefaultDeadline
	if req.TimeoutMS > 0 {
		d = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	req.TimeoutMS = d.Milliseconds()
	if s.cfg.MaxEvals > 0 && (req.MaxEvals == 0 || req.MaxEvals > s.cfg.MaxEvals) {
		req.MaxEvals = s.cfg.MaxEvals
	}
	if req.Workers < 1 || req.Workers > s.cfg.MaxJobWorkers {
		req.Workers = s.cfg.MaxJobWorkers
	}
	if !s.cfg.TestHooks {
		req.Chaos = nil
	}
}

// Job returns the job with the given ID.
func (s *Scheduler) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("job %q: %w", id, ErrNotFound)
	}
	return job, nil
}

// Jobs returns every known job in submission order (replayed jobs
// first).
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Cancel requests cancellation of a job. A queued job terminates
// immediately; a running one is interrupted through its context and
// terminates at the engine's next cancellation check.
func (s *Scheduler) Cancel(id string) (*Job, error) {
	job, err := s.Job(id)
	if err != nil {
		return nil, err
	}
	job.Cancel()
	job.mu.Lock()
	queued := job.state == StateQueued
	job.mu.Unlock()
	if queued {
		// If a worker picked the job up in between, finalize is a
		// no-op for it and the cancelled context aborts the run.
		s.finalizeJob(job, StateCanceled, nil, "canceled before start", "")
	}
	return job, nil
}

// execute runs one job, accounts for its run and finalizes it.
func (s *Scheduler) execute(job *Job) {
	req, ok := job.setRunning()
	if !ok {
		return // canceled while still queued
	}
	s.cfg.Metrics.Gauge("serve_queue_depth").Set(int64(len(s.queue)))
	s.cfg.Metrics.Gauge("serve_running").Set(s.running.Add(1))

	deadline := time.Duration(req.TimeoutMS) * time.Millisecond
	ctx, cancel := context.WithTimeout(job.runBase, deadline)
	start := time.Now()
	state, outcome, errMsg, from := s.runJob(ctx, job, req)
	cancel()
	s.cfg.Metrics.Gauge("serve_running").Set(s.running.Add(-1))
	s.cfg.Metrics.HistogramBuckets("serve_job_ms", phaseBucketsMs).Observe(time.Since(start).Milliseconds())
	s.finalizeJob(job, state, outcome, errMsg, from)
}

// runJob runs one job and classifies how it ended, with panic
// isolation: a crash inside the job — engine bug or injected chaos —
// becomes a structured job-failure record, not a daemon crash. A job
// whose request a done job of this build already computed is not run:
// it ends done with a copy of that outcome, and from names the job
// that computed it.
func (s *Scheduler) runJob(ctx context.Context, job *Job, req Request) (state State, outcome *Outcome, errMsg, from string) {
	defer func() {
		if r := recover(); r != nil {
			s.cfg.Metrics.Counter("serve_panics").Inc()
			state, outcome, errMsg, from = StateFailed, nil, fmt.Sprintf("panic: %v", r), ""
		}
	}()

	if job.key != nil {
		s.mu.Lock()
		e, ok := s.reuse[*job.key]
		s.mu.Unlock()
		if ok {
			return StateDone, &e.outcome, "", e.id
		}
	}
	outcome, err := job.run(ctx, req, s.cfg.TestHooks, s.cache)
	if s.cache != nil {
		s.cfg.Metrics.Gauge("serve_cache_entries").Set(int64(s.cache.Len()))
	}
	switch {
	case err == nil && outcome.Partial:
		return StatePartial, outcome, "", ""
	case err == nil:
		return StateDone, outcome, "", ""
	case job.canceledByClient() && errors.Is(err, context.Canceled):
		return StateCanceled, nil, "canceled", ""
	case errors.Is(err, context.Canceled) && s.Draining():
		return StateFailed, nil, "daemon draining before any usable result", ""
	default:
		return StateFailed, nil, err.Error(), ""
	}
}

// reusable is a reuse-index entry: the job that computed a done
// outcome, and that outcome, which each reusing job gets a copy of.
type reusable struct {
	id      string
	outcome Outcome
}

// phaseBucketsMs are the fixed bucket bounds (milliseconds) of the
// per-phase job timing histograms exposed as
// sitam_job_phase_ms{phase="..."} on /metrics.
var phaseBucketsMs = []int64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}

// stateCounterKey maps a terminal state to its per-state counter
// series. The closed switch keeps every series this function can emit
// inside the DESIGN §13 vocabulary (enforced by the metricvocab
// analyzer) — a new State constant cannot leak a new series onto
// /metrics without being added here and to the vocabulary.
func stateCounterKey(state State) string {
	switch state {
	case StateDone:
		return "serve_done"
	case StatePartial:
		return "serve_partial"
	case StateCanceled:
		return "serve_canceled"
	default:
		return "serve_failed"
	}
}

// finalizeJob applies a terminal transition once: it moves the job's
// retained trace into the flight recorder, leaving the tracer empty,
// accounts for the job and indexes a computed done outcome for reuse,
// then makes the job terminal, so a reader woken by Done or a terminal
// status already sees it counted, recorded and reusable, and journals
// the transition durably afterwards, keeping the fsync out of the
// job's latency. The entry of an indexed outcome names the build. from
// names the job a reused outcome came from.
func (s *Scheduler) finalizeJob(job *Job, state State, outcome *Outcome, errMsg, from string) {
	if !job.claim() {
		return
	}
	job.release()
	events := job.Trace.Release()
	s.recorder.Record(job.ID, events, job.Trace.Len())
	s.cfg.Metrics.Counter(stateCounterKey(state)).Inc()
	s.cfg.Metrics.Counter(obs.Labels("sitam_jobs_total", "state", string(state))).Inc()
	for i := range events {
		if ev := &events[i]; ev.Type == obs.PhaseEnd {
			s.cfg.Metrics.HistogramBuckets(
				obs.Labels("sitam_job_phase_ms", "phase", ev.Phase), phaseBucketsMs,
			).Observe(ev.DurNS / 1e6)
		}
	}
	var build string
	if from != "" {
		s.cfg.Metrics.Counter("serve_reused").Inc()
	} else if state == StateDone && job.key != nil {
		build = s.build
		s.mu.Lock()
		if _, ok := s.reuse[*job.key]; !ok {
			s.reuse[*job.key] = reusable{id: job.ID, outcome: *outcome}
		}
		s.mu.Unlock()
	}
	if s.terminalHook != nil {
		s.terminalHook(job, state)
	}
	job.finalize(state, outcome, errMsg, from)
	if err := s.journal.Append(JournalEntry{T: "terminal", ID: job.ID, State: state, Result: outcome, Error: errMsg, ReusedFrom: from, Build: build}); err != nil {
		s.cfg.Logf("journal: %v", err)
	}
	s.cfg.Logf("job %s -> %s", job.ID, state)
}

// Drain gracefully shuts the scheduler down: stop admitting (Submit
// sheds with ErrOverloaded), let queued and running jobs finish until
// ctx expires, then cancel what is left so the anytime engine
// partial-izes it, and wait for the pool to exit. Idempotent and safe
// to call concurrently; the journal is closed once the pool is down.
func (s *Scheduler) Drain(ctx context.Context) {
	s.mu.Lock()
	first := !s.draining
	if first {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Grace expired: partial-ize everything still in flight. The
		// engine checks cancellation every few candidates, so the
		// unconditional wait below is short.
		s.runCancel()
		<-done
	}
	s.runCancel()
	if first {
		if err := s.journal.Close(); err != nil {
			s.cfg.Logf("journal close: %v", err)
		}
		if s.cache != nil {
			if err := s.cache.Close(); err != nil {
				s.cfg.Logf("cache file close: %v", err)
			}
		}
	}
}

// recoverJournal opens the journal and replays it: terminal entries
// resurrect finished jobs so their results stay queryable across
// restarts; submitted entries without a terminal record belonged to
// jobs in flight when the previous process died and are closed out as
// failed — durably, so the next recovery already sees them terminal.
// A journal outlives the binary that wrote it, so a replayed outcome
// answers repeats only when its entry names this build as the one that
// computed it done (see replayedReusable).
func (s *Scheduler) recoverJournal(path string) error {
	journal, entries, err := OpenJournal(path)
	if err != nil {
		return err
	}
	s.journal = journal
	s.build = s.cfg.identity()
	// Sized up front, so that filling the index does not rehash it
	// while the daemon starts.
	n := 0
	for i := range entries {
		if s.replayedReusable(&entries[i]) {
			n++
		}
	}
	s.reuse = make(map[reuseKey]reusable, n)
	for _, e := range entries {
		switch e.T {
		case "submitted":
			if e.Req == nil || s.jobs[e.ID] != nil {
				continue
			}
			s.addReplayed(newJob(e.ID, *e.Req, s.cfg.RecorderEvents))
		case "terminal":
			job := s.jobs[e.ID]
			var key *reuseKey
			if job == nil {
				job = newJob(e.ID, Request{}, s.cfg.RecorderEvents)
				s.addReplayed(job)
			} else if s.replayedReusable(&e) {
				// Built before finalize drops the inline source.
				key = job.Req.reuseKey()
			}
			if !job.finalize(e.State, e.Result, e.Error, e.ReusedFrom) {
				continue
			}
			s.cfg.Metrics.Counter("serve_replayed").Inc()
			if key != nil {
				if _, ok := s.reuse[*key]; !ok {
					s.reuse[*key] = reusable{id: e.ID, outcome: *e.Result}
				}
			}
		}
	}
	orphans := 0
	for _, id := range s.order {
		job := s.jobs[id]
		if job.State().Terminal() {
			continue
		}
		orphans++
		const msg = "daemon crashed before the job completed; resubmit"
		job.finalize(StateFailed, nil, msg, "")
		s.cfg.Metrics.Counter("serve_orphaned").Inc()
		if err := s.journal.Append(JournalEntry{T: "terminal", ID: id, State: StateFailed, Error: msg}); err != nil {
			return err
		}
	}
	if len(entries) > 0 {
		s.cfg.Logf("journal: replayed %d entries, %d jobs (%d orphaned mid-flight, closed out as failed)",
			len(entries), len(s.order), orphans)
	}
	return nil
}

// replayedReusable reports whether a replayed terminal entry may
// answer repeats: a computed done outcome whose entry names the running
// build. Entries of older journals name no build, and when the
// executable cannot be read the running build has no identity, so then
// no entry does.
func (s *Scheduler) replayedReusable(e *JournalEntry) bool {
	return s.build != "" && e.Build == s.build &&
		e.State == StateDone && e.ReusedFrom == "" && e.Result != nil
}

// addReplayed registers a journal-recovered job and advances the ID
// counter past it. Replayed jobs are never re-enqueued.
func (s *Scheduler) addReplayed(job *Job) {
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	if n := idNum(job.ID); n > s.nextID {
		s.nextID = n
	}
}

// idNum extracts the numeric suffix of a job ID ("j000042" -> 42).
func idNum(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "j"))
	return n
}
