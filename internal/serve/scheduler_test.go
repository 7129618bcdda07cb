package serve

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sitam/internal/obs"
)

// quickReq is a d695 job small enough to finish in tens of
// milliseconds.
func quickReq() Request {
	return Request{SOC: "d695", Wmax: 12, Nr: 200, Parts: 2, Seed: 1}
}

// sleepReq is a job stalled by the chaos sleep hook before any real
// work starts.
func sleepReq(ms int64) Request {
	r := quickReq()
	r.Chaos = &ChaosHook{SleepMS: ms}
	return r
}

func newTestScheduler(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s
}

func waitTerminal(t *testing.T, job *Job) Status {
	t.Helper()
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s stuck in state %s", job.ID, job.State())
	}
	return job.Snapshot()
}

func waitState(t *testing.T, job *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if job.State() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (state %s)", job.ID, want, job.State())
}

func TestSchedulerRunsJobToCompletion(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 2})
	job, err := s.Submit(quickReq())
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, job)
	if st.State != StateDone {
		t.Fatalf("state = %s (%s), want done", st.State, st.Error)
	}
	if st.Result == nil || st.Result.TimeSOC <= 0 || st.Result.Rails == 0 {
		t.Fatalf("implausible outcome: %+v", st.Result)
	}
	if st.Events == 0 {
		t.Error("job collected no trace events")
	}
	if got := s.Metrics().Snapshot().Counter("serve_done"); got != 1 {
		t.Errorf("serve_done = %d, want 1", got)
	}
}

// TestSchedulerInlineSourceFewExternals runs a job on an inline SOC
// whose 12-output core has a single WOC in reach for its external
// aggressors: pattern generation must end, and so must the job.
func TestSchedulerInlineSourceFewExternals(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1})
	src := "SocName fewext\nTotalModules 3\n" +
		"Module 0\n Name top\n Inputs 4\n Outputs 4\n" +
		"Module 1\n Name wide\n Inputs 4\n Outputs 12\n Patterns 5\n" +
		"Module 2\n Name narrow\n Inputs 2\n Outputs 1\n Patterns 3\n"
	job, err := s.Submit(Request{Source: src, Wmax: 4, Nr: 1000, Parts: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job); st.State != StateDone {
		t.Fatalf("state = %s (%s), want done", st.State, st.Error)
	}
}

// TestSchedulerDeterministicOutcomes computes one request on two
// schedulers, so the copies are two runs however the jobs are timed
// (within one scheduler a copy that starts after the first finished is
// answered from it), and requires identical outcomes: the rule that
// makes reuse correct.
func TestSchedulerDeterministicOutcomes(t *testing.T) {
	a, err := newTestScheduler(t, Config{Workers: 2}).Submit(quickReq())
	if err != nil {
		t.Fatal(err)
	}
	b, err := newTestScheduler(t, Config{Workers: 2}).Submit(quickReq())
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := waitTerminal(t, a), waitTerminal(t, b)
	if sa.State != StateDone || sb.State != StateDone {
		t.Fatalf("states %s/%s, want done/done", sa.State, sb.State)
	}
	if sa.ReusedFrom != "" || sb.ReusedFrom != "" {
		t.Fatalf("a copy was reused (%q, %q), want two computed runs", sa.ReusedFrom, sb.ReusedFrom)
	}
	if !reflect.DeepEqual(sa.Result, sb.Result) {
		t.Errorf("identical requests diverged:\n%+v\n%+v", sa.Result, sb.Result)
	}
}

// TestSchedulerShedsWhenSaturated pins the admission-control contract:
// a full queue sheds with ErrOverloaded and every admitted job still
// reaches a terminal state.
func TestSchedulerShedsWhenSaturated(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1, QueueDepth: 1, TestHooks: true})
	running, err := s.Submit(sleepReq(400))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning) // worker busy, queue empty
	queued, err := s.Submit(quickReq())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(quickReq()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third submit: err = %v, want ErrOverloaded", err)
	}
	if got := s.Metrics().Snapshot().Counter("serve_shed"); got != 1 {
		t.Errorf("serve_shed = %d, want 1", got)
	}
	for _, job := range []*Job{running, queued} {
		if st := waitTerminal(t, job); st.State != StateDone {
			t.Errorf("job %s: state %s (%s), want done", job.ID, st.State, st.Error)
		}
	}
}

func TestSchedulerClampsRequests(t *testing.T) {
	s := newTestScheduler(t, Config{
		Workers:         1,
		MaxDeadline:     time.Second,
		DefaultDeadline: 500 * time.Millisecond,
		MaxEvals:        100,
		MaxJobWorkers:   2,
	})
	req := quickReq()
	req.TimeoutMS = 3_600_000 // absurd client deadline
	req.MaxEvals = 1 << 50    // absurd budget
	req.Workers = 64
	job, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if job.Req.TimeoutMS != 1000 {
		t.Errorf("deadline clamped to %dms, want 1000", job.Req.TimeoutMS)
	}
	if job.Req.MaxEvals != 100 {
		t.Errorf("budget clamped to %d, want 100", job.Req.MaxEvals)
	}
	if job.Req.Workers != 2 {
		t.Errorf("workers clamped to %d, want 2", job.Req.Workers)
	}

	// A request with no deadline gets the server default, and chaos
	// hooks are stripped when TestHooks is off.
	job2, err := s.Submit(sleepReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if job2.Req.TimeoutMS != 500 {
		t.Errorf("default deadline = %dms, want 500", job2.Req.TimeoutMS)
	}
	if job2.Req.Chaos != nil {
		t.Error("chaos hook survived TestHooks=false")
	}
}

func TestSchedulerBudgetYieldsPartial(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1})
	req := quickReq()
	req.MaxEvals = 5 // exhausted almost immediately
	job, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, job)
	if st.State != StatePartial {
		t.Fatalf("state = %s (%s), want partial", st.State, st.Error)
	}
	if st.Result == nil || !st.Result.Partial || st.Result.Cause != "budget" {
		t.Errorf("outcome = %+v, want partial with cause budget", st.Result)
	}
}

func TestSchedulerRejectsInvalidRequests(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1})
	for name, mutate := range map[string]func(*Request){
		"no soc":       func(r *Request) { r.SOC = "" },
		"both sources": func(r *Request) { r.Source = "x" },
		"bad algo":     func(r *Request) { r.Algo = "quantum" },
		"huge nr":      func(r *Request) { r.Nr = 1 << 30 },
		"zero wmax":    func(r *Request) { r.Wmax = 0 },
		"neg budget":   func(r *Request) { r.MaxEvals = -1 },
	} {
		req := quickReq()
		mutate(&req)
		if _, err := s.Submit(req); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", name, err)
		}
	}
}

// TestSchedulerPanicIsolation pins per-job panic isolation: a crashing
// job becomes a structured failure record and the pool keeps serving.
func TestSchedulerPanicIsolation(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1, TestHooks: true})
	req := quickReq()
	req.Chaos = &ChaosHook{Panic: true}
	crash, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, crash)
	if st.State != StateFailed || !strings.Contains(st.Error, "panic: chaos") {
		t.Fatalf("state = %s (%q), want failed with panic message", st.State, st.Error)
	}
	if got := s.Metrics().Snapshot().Counter("serve_panics"); got != 1 {
		t.Errorf("serve_panics = %d, want 1", got)
	}
	// The worker that recovered the panic still serves.
	next, err := s.Submit(quickReq())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, next); st.State != StateDone {
		t.Errorf("post-panic job: state %s (%s), want done", st.State, st.Error)
	}
}

func TestSchedulerCancelQueuedAndRunning(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1, QueueDepth: 4, TestHooks: true})
	running, err := s.Submit(sleepReq(30_000))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	queued, err := s.Submit(quickReq())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, queued); st.State != StateCanceled {
		t.Errorf("queued job: state %s, want canceled", st.State)
	}
	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, running); st.State != StateCanceled {
		t.Errorf("running job: state %s (%s), want canceled", st.State, st.Error)
	}
	if _, err := s.Cancel("j999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel unknown: err = %v, want ErrNotFound", err)
	}
}

// TestSchedulerCountsBeforeTerminal pins the accounting order: when a
// job turns terminal (Done closes, status reads terminal), its state
// counter, sitam_jobs_total, serve_job_ms, its phase histograms and its
// flight-recorder entry already include it, so a reader woken by either
// never sees them one short. It covers a finished run, a job canceled
// while queued and one canceled while running.
func TestSchedulerCountsBeforeTerminal(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1, QueueDepth: 4, TestHooks: true})
	type sighting struct {
		state    State
		snap     *obs.Snapshot
		terminal bool
		recorded bool
	}
	var mu sync.Mutex
	seen := map[string]sighting{}
	s.terminalHook = func(job *Job, state State) {
		mu.Lock()
		defer mu.Unlock()
		seen[job.ID] = sighting{state, s.Metrics().Snapshot(), job.State().Terminal(), s.Recorder().Get(job.ID) != nil}
	}

	done, err := s.Submit(quickReq())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, done)
	running, err := s.Submit(sleepReq(30_000))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	queued, err := s.Submit(quickReq())
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range []*Job{queued, running} {
		if _, err := s.Cancel(job.ID); err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, job)
	}

	phases := map[string]int64{}
	for _, ev := range s.Recorder().Get(done.ID).Events {
		if ev.Type == obs.PhaseEnd {
			phases[ev.Phase]++
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, tc := range []struct {
		job            *Job
		state          State
		count, jobRuns int64 // jobs in state, jobs run, including this one
	}{
		{done, StateDone, 1, 1},
		{queued, StateCanceled, 1, 1},
		{running, StateCanceled, 2, 2},
	} {
		got, ok := seen[tc.job.ID]
		if !ok {
			t.Fatalf("%s: terminal hook never ran", tc.job.ID)
		}
		if got.state != tc.state || got.terminal {
			t.Errorf("%s: hook saw state %s (terminal %v), want %s before the transition", tc.job.ID, got.state, got.terminal, tc.state)
		}
		if !got.recorded {
			t.Errorf("%s: no flight-recorder entry before the job turned terminal", tc.job.ID)
		}
		if c := got.snap.Counter(stateCounterKey(tc.state)); c != tc.count {
			t.Errorf("%s: %s = %d before the job turned terminal, want %d", tc.job.ID, stateCounterKey(tc.state), c, tc.count)
		}
		if c := got.snap.Counter(obs.Labels("sitam_jobs_total", "state", string(tc.state))); c != tc.count {
			t.Errorf("%s: sitam_jobs_total{state=%q} = %d before the job turned terminal, want %d", tc.job.ID, tc.state, c, tc.count)
		}
		if c := got.snap.Histograms["serve_job_ms"].Count; c != tc.jobRuns {
			t.Errorf("%s: serve_job_ms count = %d before the job turned terminal, want %d", tc.job.ID, c, tc.jobRuns)
		}
	}
	if len(phases) == 0 {
		t.Fatal("finished job traced no phases")
	}
	for phase, n := range phases {
		name := obs.Labels("sitam_job_phase_ms", "phase", phase)
		if c := seen[done.ID].snap.Histograms[name].Count; c != n {
			t.Errorf("%s count = %d before the job turned terminal, want %d", name, c, n)
		}
	}
}

// TestSchedulerDrainPartializes drives a long job into a drain whose
// grace expires: the scheduler must stop admitting (shed with
// ErrOverloaded), interrupt the job, and surface its best-so-far
// result as a partial outcome.
func TestSchedulerDrainPartializes(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1})
	req := quickReq()
	req.Algo = "ils"
	req.Kicks = 1_000_000 // effectively endless at d695 size
	req.TimeoutMS = 60_000
	job, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateRunning)
	// Let the optimization get past its start solution so there is an
	// incumbent to partial-ize.
	deadline := time.Now().Add(10 * time.Second)
	for job.Trace.Len() < 300 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	s.Drain(ctx)

	if _, err := s.Submit(quickReq()); !errors.Is(err, ErrOverloaded) {
		t.Errorf("submit during drain: err = %v, want ErrOverloaded", err)
	}
	st := job.Snapshot()
	if st.State != StatePartial {
		t.Fatalf("state = %s (%s), want partial", st.State, st.Error)
	}
	if st.Result == nil || !st.Result.Partial || st.Result.TimeSOC <= 0 {
		t.Errorf("outcome = %+v, want a valid partial result", st.Result)
	}
}

// TestJournalRecovery builds a journal by hand — a finished partial
// job, a job submitted but never finished (the crash victim), and a
// torn final line — and checks recovery replays the former and closes
// out the latter durably.
func TestJournalRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	journal := strings.Join([]string{
		`{"t":"submitted","id":"j000001","req":{"soc":"d695","wmax":12,"nr":200,"groups":2,"seed":1,"algo":"si","restarts":1,"workers":1,"timeoutMS":30000}}`,
		`{"t":"terminal","id":"j000001","state":"partial","result":{"timeIn":100,"timeSI":50,"timeSOC":150,"rails":2,"partial":true,"cause":"budget","patterns":200,"groups":2,"evals":5}}`,
		`{"t":"submitted","id":"j000002","req":{"soc":"d695","wmax":12,"nr":200,"groups":2,"seed":1,"algo":"si","restarts":1,"workers":1,"timeoutMS":30000}}`,
		`{"t":"subm`, // torn by the crash mid-write
	}, "\n")
	if err := os.WriteFile(path, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}

	s := newTestScheduler(t, Config{Workers: 1, JournalPath: path})

	replayed, err := s.Job("j000001")
	if err != nil {
		t.Fatal(err)
	}
	st := replayed.Snapshot()
	if st.State != StatePartial || st.Result == nil || st.Result.TimeSOC != 150 || !st.Result.Partial {
		t.Errorf("replayed job = %+v, want the journaled partial result", st)
	}

	orphan, err := s.Job("j000002")
	if err != nil {
		t.Fatal(err)
	}
	ost := orphan.Snapshot()
	if ost.State != StateFailed || !strings.Contains(ost.Error, "crashed") {
		t.Errorf("orphan job = %+v, want failed with crash message", ost)
	}

	// New submissions continue the ID sequence past replayed jobs.
	job, err := s.Submit(quickReq())
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != "j000003" {
		t.Errorf("new job ID = %s, want j000003", job.ID)
	}
	waitTerminal(t, job)

	// A second recovery over the journal the first one repaired and
	// extended sees everything terminal, no orphans left.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Drain(ctx)
	s2 := newTestScheduler(t, Config{Workers: 1, JournalPath: path})
	for _, id := range []string{"j000001", "j000002", "j000003"} {
		job, err := s2.Job(id)
		if err != nil {
			t.Fatalf("after second recovery: %v", err)
		}
		if !job.State().Terminal() {
			t.Errorf("job %s not terminal after recovery: %s", id, job.State())
		}
	}
	if got := s2.Metrics().Snapshot().Counter("serve_orphaned"); got != 0 {
		t.Errorf("second recovery orphaned %d jobs, want 0", got)
	}
}

// TestJournalRejectsNonTerminalState pins recovery to fail closed on a
// terminal entry whose state is not terminal: NewScheduler returns an
// error naming the journal, the job and the state instead of
// finalizing the job into that state.
func TestJournalRejectsNonTerminalState(t *testing.T) {
	for _, state := range []State{StateRunning, "", "bogus"} {
		path := filepath.Join(t.TempDir(), "jobs.jsonl")
		line := `{"t":"terminal","id":"j000001","state":"` + string(state) + `"}` + "\n"
		if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := NewScheduler(Config{Workers: 1, JournalPath: path})
		if err == nil {
			s.Drain(context.Background())
			t.Fatalf("state %q: NewScheduler accepted the journal", state)
		}
		for _, want := range []string{path, "j000001", `"` + string(state) + `"`} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("state %q: error %q does not name %s", state, err, want)
			}
		}
	}
}

// TestJournalUnterminatedEntryIsTorn pins the replay of a journal whose
// last entry lost its newline to a crash: the entry is torn away like
// any cut write, so the next append starts a line of its own and the
// following recovery reads the journal back whole.
func TestJournalUnterminatedEntryIsTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	entry := `{"t":"submitted","id":"j000001","req":{"soc":"d695","wmax":12,"nr":200,"groups":2,"seed":1,"algo":"si","restarts":1,"workers":1,"timeoutMS":30000}}`
	if err := os.WriteFile(path, []byte(entry), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestScheduler(t, Config{Workers: 1, JournalPath: path})
	if job, err := s.Job("j000001"); err == nil {
		t.Fatalf("the unterminated entry was replayed: job %s is %s", job.ID, job.State())
	}
	job, err := s.Submit(quickReq())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Drain(ctx)

	s2 := newTestScheduler(t, Config{Workers: 1, JournalPath: path})
	again, err := s2.Job(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st := again.State(); st != StateDone {
		t.Errorf("job %s replayed as %s, want done", job.ID, st)
	}
}

// TestSchedulerPersistentCache pins the daemon-side cache-file
// lifecycle: entries costed by jobs of one scheduler generation are
// reloaded by the next, the warm generation's outcomes are
// byte-identical to the cold one's, and the file survives the drain.
func TestSchedulerPersistentCache(t *testing.T) {
	path := filepath.Join(t.TempDir(), "evals.sitcache")

	s1 := newTestScheduler(t, Config{Workers: 1, CachePath: path})
	if s1.cache == nil {
		t.Fatal("scheduler did not open the cache file")
	}
	a, err := s1.Submit(quickReq())
	if err != nil {
		t.Fatal(err)
	}
	sa := waitTerminal(t, a)
	if sa.State != StateDone {
		t.Fatalf("cold job state = %s (%s)", sa.State, sa.Error)
	}
	if n := s1.cache.Len(); n == 0 {
		t.Fatal("cold job persisted no cache entries")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s1.Drain(ctx)

	// "Restart": a new scheduler generation over the same file.
	s2 := newTestScheduler(t, Config{Workers: 1, CachePath: path})
	if s2.cache == nil {
		t.Fatal("restarted scheduler did not reopen the cache file")
	}
	if s2.cache.Loaded() == 0 {
		t.Fatal("restarted scheduler loaded no entries from the cache file")
	}
	b, err := s2.Submit(quickReq())
	if err != nil {
		t.Fatal(err)
	}
	sb := waitTerminal(t, b)
	if sb.State != StateDone {
		t.Fatalf("warm job state = %s (%s)", sb.State, sb.Error)
	}
	// The cache is a pure accelerator: the warm run's outcome must be
	// indistinguishable from the cold run's.
	if !reflect.DeepEqual(sa.Result, sb.Result) {
		t.Errorf("warm outcome diverged from cold:\n%+v\n%+v", sa.Result, sb.Result)
	}
	if got := s2.Metrics().Snapshot().Gauges["serve_cache_entries"]; got == 0 {
		t.Error("serve_cache_entries gauge not maintained")
	}

	// Jobs of other objectives, groupings and SOCs share the file: each
	// must still match its memory-only outcome.
	var mixed []Request
	for _, algo := range []string{"baseline", "si", "ils"} {
		for _, parts := range []int{1, 2} {
			r := quickReq()
			r.Algo, r.Parts, r.Kicks = algo, parts, 3
			mixed = append(mixed, r)
		}
	}
	other := quickReq()
	other.SOC = "p34392"
	mixed = append(mixed, other)
	mem := newTestScheduler(t, Config{Workers: 1})
	for _, req := range mixed {
		want := runJob(t, mem, req)
		if got := runJob(t, s2, req); !reflect.DeepEqual(got, want) {
			t.Errorf("%s %s g=%d: outcome on the shared cache file diverged from memory-only:\n%+v\n%+v",
				req.SOC, req.Algo, req.Parts, got, want)
		}
	}
}

// runJob submits req, waits for it and returns its outcome.
func runJob(t *testing.T, s *Scheduler, req Request) *Outcome {
	t.Helper()
	job, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, job)
	if st.State != StateDone {
		t.Fatalf("%s %s: job state = %s (%s)", req.SOC, req.Algo, st.State, st.Error)
	}
	return st.Result
}

// TestSchedulerCacheFileLocked: a second daemon generation pointed at a
// still-locked cache file must start and serve jobs memory-only.
func TestSchedulerCacheFileLocked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "evals.sitcache")
	s1 := newTestScheduler(t, Config{Workers: 1, CachePath: path})
	if s1.cache == nil {
		t.Fatal("first scheduler did not open the cache file")
	}
	s2 := newTestScheduler(t, Config{Workers: 1, CachePath: path})
	if s2.cache != nil {
		t.Fatal("second scheduler shares the locked cache file")
	}
	job, err := s2.Submit(quickReq())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job); st.State != StateDone {
		t.Fatalf("memory-only job state = %s (%s)", st.State, st.Error)
	}
}
