package serve

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// submitWait submits req and waits for the job to turn terminal.
func submitWait(t *testing.T, s *Scheduler, req Request) (*Job, Status) {
	t.Helper()
	job, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return job, waitTerminal(t, job)
}

// wantComputed fails unless st is a job that ran rather than one
// answered from the reuse index.
func wantComputed(t *testing.T, name string, st Status) {
	t.Helper()
	if st.ReusedFrom != "" || st.Events == 0 {
		t.Errorf("%s: job %s reused from %q with %d trace events, want a computed job", name, st.ID, st.ReusedFrom, st.Events)
	}
}

// TestSchedulerReuseRepeat pins a repeat's answer: the outcome the
// first job computed, a copy of it, with reusedFrom naming that job, no
// trace events of its own, serve_reused counted and serve_job_ms
// observed for both jobs.
func TestSchedulerReuseRepeat(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 2})
	a, sa := submitWait(t, s, quickReq())
	if sa.State != StateDone {
		t.Fatalf("first job: state %s (%s), want done", sa.State, sa.Error)
	}
	wantComputed(t, "first", sa)
	b, sb := submitWait(t, s, quickReq())
	if sb.State != StateDone || sb.ReusedFrom != a.ID {
		t.Fatalf("repeat: state %s, reusedFrom %q; want done, reused from %s", sb.State, sb.ReusedFrom, a.ID)
	}
	if !reflect.DeepEqual(sa.Result, sb.Result) {
		t.Errorf("repeat outcome %+v, first %+v", sb.Result, sa.Result)
	}
	if sa.Result == sb.Result {
		t.Error("the repeat shares the first job's Outcome instead of a copy")
	}
	if sb.Events != 0 || b.Trace.Len() != 0 {
		t.Errorf("repeat traced %d events, want none", sb.Events)
	}
	snap := s.Metrics().Snapshot()
	if got := snap.Counter("serve_reused"); got != 1 {
		t.Errorf("serve_reused = %d, want 1", got)
	}
	if got := snap.Counter("serve_done"); got != 2 {
		t.Errorf("serve_done = %d, want 2", got)
	}
	if got := snap.Histograms["serve_job_ms"].Count; got != 2 {
		t.Errorf("serve_job_ms count = %d, want 2", got)
	}
}

// TestSchedulerReuseKeyFields submits requests that each differ from a
// done one in one key field: every one is computed afresh.
func TestSchedulerReuseKeyFields(t *testing.T) {
	d695, err := os.ReadFile(filepath.Join("..", "soc", "benchmarks", "d695.soc"))
	if err != nil {
		t.Fatal(err)
	}
	s := newTestScheduler(t, Config{Workers: 2})
	if _, st := submitWait(t, s, quickReq()); st.State != StateDone {
		t.Fatalf("base job: state %s (%s), want done", st.State, st.Error)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Request)
	}{
		{"seed", func(r *Request) { r.Seed = 2 }},
		{"wmax", func(r *Request) { r.Wmax = 13 }},
		{"nr", func(r *Request) { r.Nr = 201 }},
		{"groups", func(r *Request) { r.Parts = 3 }},
		{"algo", func(r *Request) { r.Algo = "baseline" }},
		{"kicks", func(r *Request) { r.Kicks = 1 }},
		{"restarts", func(r *Request) { r.Restarts = 2 }},
		{"budget", func(r *Request) { r.MaxEvals = 1 << 40 }},
		{"source", func(r *Request) { r.SOC, r.Source = "", string(d695) }},
	} {
		req := quickReq()
		tc.mutate(&req)
		_, st := submitWait(t, s, req)
		if st.State != StateDone {
			t.Errorf("%s: state %s (%s), want done", tc.name, st.State, st.Error)
		}
		wantComputed(t, tc.name, st)
	}
	if got := s.Metrics().Snapshot().Counter("serve_reused"); got != 0 {
		t.Errorf("serve_reused = %d, want 0", got)
	}
}

// TestSchedulerReuseIgnoresTimeoutAndWorkers: the deadline and the
// worker count are not part of the key, so a repeat that differs only
// in them is answered from the index.
func TestSchedulerReuseIgnoresTimeoutAndWorkers(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1, MaxJobWorkers: 2})
	a, sa := submitWait(t, s, quickReq())
	if sa.State != StateDone {
		t.Fatalf("first job: state %s (%s), want done", sa.State, sa.Error)
	}
	for name, mutate := range map[string]func(*Request){
		"timeoutMS": func(r *Request) { r.TimeoutMS = 20_000 },
		"workers":   func(r *Request) { r.Workers = 2 },
	} {
		req := quickReq()
		mutate(&req)
		_, st := submitWait(t, s, req)
		if st.State != StateDone || st.ReusedFrom != a.ID || !reflect.DeepEqual(st.Result, sa.Result) {
			t.Errorf("%s: state %s, reusedFrom %q, outcome %+v; want done, reused from %s with %+v",
				name, st.State, st.ReusedFrom, st.Result, a.ID, sa.Result)
		}
	}
}

// TestSchedulerReuseOnlyComputedDone: a budget-cut partial job, a
// failed job and a chaos job are never indexed, and a chaos job is
// never answered from the index.
func TestSchedulerReuseOnlyComputedDone(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1, TestHooks: true})

	partial := quickReq()
	partial.MaxEvals = 5
	for i := 0; i < 2; i++ {
		_, st := submitWait(t, s, partial)
		if st.State != StatePartial {
			t.Fatalf("budget job %d: state %s (%s), want partial", i, st.State, st.Error)
		}
		wantComputed(t, "partial", st)
	}

	// A 1 ms deadline cuts the generation of 200,000 patterns, and a
	// cut generation fails the job.
	failing := Request{SOC: "d695", Wmax: 12, Nr: 200_000, Parts: 2, Seed: 1, TimeoutMS: 1}
	for i := 0; i < 2; i++ {
		_, st := submitWait(t, s, failing)
		if st.State != StateFailed || st.ReusedFrom != "" {
			t.Fatalf("deadline job %d: state %s (%s), reusedFrom %q; want failed, computed", i, st.State, st.Error, st.ReusedFrom)
		}
	}

	chaos := sleepReq(1)
	for i := 0; i < 2; i++ {
		_, st := submitWait(t, s, chaos)
		if st.State != StateDone {
			t.Fatalf("chaos job %d: state %s (%s), want done", i, st.State, st.Error)
		}
		wantComputed(t, "chaos", st)
	}
	// The chaos jobs left nothing in the index, and a chaos job is not
	// answered from an entry a plain job left.
	plain, st := submitWait(t, s, quickReq())
	wantComputed(t, "plain after chaos", st)
	if _, st := submitWait(t, s, chaos); st.State != StateDone {
		t.Fatalf("chaos job after a plain one: state %s (%s), want done", st.State, st.Error)
	} else {
		wantComputed(t, "chaos after plain", st)
	}
	if _, st := submitWait(t, s, quickReq()); st.ReusedFrom != plain.ID {
		t.Errorf("plain repeat reused from %q, want %s", st.ReusedFrom, plain.ID)
	}
	if got := s.Metrics().Snapshot().Counter("serve_reused"); got != 1 {
		t.Errorf("serve_reused = %d, want 1", got)
	}
}

// journalScheduler starts a one-worker scheduler on the journal at
// path, running as the build named build.
func journalScheduler(t *testing.T, path, build string) *Scheduler {
	t.Helper()
	return newTestScheduler(t, Config{Workers: 1, JournalPath: path, identity: func() string { return build }})
}

// drain drains s, closing its journal.
func drain(s *Scheduler) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Drain(ctx)
}

// TestSchedulerReuseNotAcrossRestart: a scheduler of another build
// restarted on the journal replays the reused job with its reusedFrom,
// and computes a repeat afresh instead of answering it from an outcome
// the earlier build computed.
func TestSchedulerReuseNotAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	s := journalScheduler(t, path, "build-a")
	a, sa := submitWait(t, s, quickReq())
	b, sb := submitWait(t, s, quickReq())
	if sa.State != StateDone || sb.ReusedFrom != a.ID {
		t.Fatalf("first generation: %s %s, repeat reused from %q; want done, reused from %s", a.ID, sa.State, sb.ReusedFrom, a.ID)
	}
	drain(s)

	s2 := journalScheduler(t, path, "build-b")
	replayed, err := s2.Job(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st := replayed.Snapshot(); st.State != StateDone || st.ReusedFrom != a.ID || !reflect.DeepEqual(st.Result, sa.Result) {
		t.Errorf("replayed repeat = %+v, want done, reused from %s with %+v", st, a.ID, sa.Result)
	}
	_, sc := submitWait(t, s2, quickReq())
	if sc.State != StateDone || !reflect.DeepEqual(sc.Result, sa.Result) {
		t.Errorf("repeat after restart: state %s, outcome %+v; want done with %+v", sc.State, sc.Result, sa.Result)
	}
	wantComputed(t, "repeat after restart", sc)
}

// TestSchedulerReuseAcrossRestart: a scheduler of the same build
// restarted on the journal answers a repeat as the first process would
// have: done, with a copy of the outcome the first process computed,
// reusedFrom naming that job, serve_reused counted and an empty trace.
func TestSchedulerReuseAcrossRestart(t *testing.T) {
	reuseAcrossRestart(t, quickReq())
}

// TestSchedulerReuseAcrossRestartSource: an inline-source request is
// answered after a restart the same way, so replay keys it by the
// source its submitted entry holds.
func TestSchedulerReuseAcrossRestartSource(t *testing.T) {
	d695, err := os.ReadFile(filepath.Join("..", "soc", "benchmarks", "d695.soc"))
	if err != nil {
		t.Fatal(err)
	}
	req := quickReq()
	req.SOC, req.Source = "", string(d695)
	reuseAcrossRestart(t, req)
}

// reuseAcrossRestart computes req on one scheduler, restarts on its
// journal as the same build and checks the repeat's answer.
func reuseAcrossRestart(t *testing.T, req Request) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	s := journalScheduler(t, path, "build-a")
	a, sa := submitWait(t, s, req)
	if sa.State != StateDone {
		t.Fatalf("first job: state %s (%s), want done", sa.State, sa.Error)
	}
	wantComputed(t, "first", sa)
	drain(s)

	s2 := journalScheduler(t, path, "build-a")
	b, sb := submitWait(t, s2, req)
	if sb.State != StateDone || sb.ReusedFrom != a.ID {
		t.Fatalf("repeat after restart: state %s (%s), reusedFrom %q; want done, reused from %s", sb.State, sb.Error, sb.ReusedFrom, a.ID)
	}
	if !reflect.DeepEqual(sb.Result, sa.Result) {
		t.Errorf("repeat outcome %+v, first %+v", sb.Result, sa.Result)
	}
	if sb.Events != 0 || b.Trace.Len() != 0 {
		t.Errorf("repeat traced %d events, want none", sb.Events)
	}
	if got := s2.Metrics().Snapshot().Counter("serve_reused"); got != 1 {
		t.Errorf("serve_reused = %d, want 1", got)
	}
}

// TestSchedulerReuseReplayOnlyThisBuildsDone recovers variants of the
// journal a done job left and checks which replayed outcome answers a
// repeat: the entry as written does, and no entry of another build, of
// an older journal (no build), of a run that was not computed done, of
// a job whose submitted entry is missing or carries chaos hooks, nor
// any entry when the executable cannot be read.
func TestSchedulerReuseReplayOnlyThisBuildsDone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	s := journalScheduler(t, path, "build-a")
	a, sa := submitWait(t, s, quickReq())
	if sa.State != StateDone {
		t.Fatalf("first job: state %s (%s), want done", sa.State, sa.Error)
	}
	drain(s)
	written, _, _, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != 2 || written[1].T != "terminal" || written[1].Build != "build-a" {
		t.Fatalf("journal %+v, want a submitted entry and a terminal one naming build-a", written)
	}

	for _, tc := range []struct {
		name     string
		build    string // the restarted scheduler's identity
		mutate   func(sub, term *JournalEntry)
		wantFrom string
	}{
		{name: "as written", build: "build-a", wantFrom: a.ID},
		{name: "another build", build: "build-b"},
		{name: "unreadable executable", build: ""},
		{name: "no build", build: "build-a", mutate: func(_, term *JournalEntry) { term.Build = "" }},
		{name: "no build, unreadable executable", build: "", mutate: func(_, term *JournalEntry) { term.Build = "" }},
		{name: "partial", build: "build-a", mutate: func(_, term *JournalEntry) {
			term.State, term.Result.Partial, term.Result.Cause = StatePartial, true, "budget"
		}},
		{name: "failed", build: "build-a", mutate: func(_, term *JournalEntry) {
			term.State, term.Result, term.Error = StateFailed, nil, "failed"
		}},
		{name: "canceled", build: "build-a", mutate: func(_, term *JournalEntry) {
			term.State, term.Result, term.Error = StateCanceled, nil, "canceled"
		}},
		{name: "done without a result", build: "build-a", mutate: func(_, term *JournalEntry) { term.Result = nil }},
		{name: "reused", build: "build-a", mutate: func(_, term *JournalEntry) { term.ReusedFrom = "j000009" }},
		{name: "terminal only", build: "build-a", mutate: func(sub, _ *JournalEntry) { sub.T = "" }},
		{name: "chaos", build: "build-a", mutate: func(sub, _ *JournalEntry) { sub.Req.Chaos = &ChaosHook{SleepMS: 1} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sub, term := written[0], written[1]
			req, result := *sub.Req, *term.Result
			sub.Req, term.Result = &req, &result
			if tc.mutate != nil {
				tc.mutate(&sub, &term)
			}
			var b []byte
			for _, e := range []JournalEntry{sub, term} {
				if e.T == "" {
					continue // the entry is left out
				}
				line, err := json.Marshal(e)
				if err != nil {
					t.Fatal(err)
				}
				b = append(append(b, line...), '\n')
			}
			path := filepath.Join(t.TempDir(), "jobs.jsonl")
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			s := journalScheduler(t, path, tc.build)
			s.mu.Lock()
			indexed := len(s.reuse)
			s.mu.Unlock()
			want := 0
			if tc.wantFrom != "" {
				want = 1
			}
			if indexed != want {
				t.Errorf("replay indexed %d outcomes, want %d", indexed, want)
			}
			_, st := submitWait(t, s, quickReq())
			if st.State != StateDone || !reflect.DeepEqual(st.Result, sa.Result) {
				t.Errorf("repeat: state %s (%s), outcome %+v; want done with %+v", st.State, st.Error, st.Result, sa.Result)
			}
			if tc.wantFrom == "" {
				wantComputed(t, "repeat", st)
			} else if st.ReusedFrom != tc.wantFrom {
				t.Errorf("repeat reused from %q, want %s", st.ReusedFrom, tc.wantFrom)
			}
		})
	}
}

// TestSchedulerReuseBuildIdentity pins the identity's form: 16 hex
// digits of a file's SHA-256, equal for equal bytes, different for a
// copy with a byte appended, and empty for a file that cannot be read.
func TestSchedulerReuseBuildIdentity(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := fileIdentity(write("a", "sitamd")), fileIdentity(write("b", "sitamd")), fileIdentity(write("c", "sitamd\x00"))
	if len(a) != 16 || strings.Trim(a, "0123456789abcdef") != "" {
		t.Errorf("identity %q, want 16 hex digits", a)
	}
	if a != b || a == c {
		t.Errorf("identities %q, %q (same bytes) and %q (a byte appended)", a, b, c)
	}
	if id := fileIdentity(filepath.Join(dir, "missing")); id != "" {
		t.Errorf("identity of a missing file = %q, want empty", id)
	}
	if id := buildIdentity(); id == "" || id != buildIdentity() {
		t.Errorf("the test binary's identity %q is empty or unstable", id)
	}
}

// TestSchedulerReuseConcurrentDuplicates submits copies of one request
// from several goroutines (run it under -race): every job ends done
// with the same outcome, each reused job names a computed one, and
// serve_reused counts the reused jobs.
func TestSchedulerReuseConcurrentDuplicates(t *testing.T) {
	const clients, each = 4, 5
	s := newTestScheduler(t, Config{Workers: 2, QueueDepth: clients * each})
	var mu sync.Mutex
	statuses := map[string]Status{}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				job, err := s.Submit(quickReq())
				if err != nil {
					t.Error(err)
					return
				}
				<-job.Done()
				mu.Lock()
				statuses[job.ID] = job.Snapshot()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(statuses) != clients*each {
		t.Fatalf("%d jobs finished, want %d", len(statuses), clients*each)
	}
	var want *Outcome
	reused := 0
	for id, st := range statuses {
		if st.State != StateDone {
			t.Fatalf("%s: state %s (%s), want done", id, st.State, st.Error)
		}
		if want == nil {
			want = st.Result
		} else if !reflect.DeepEqual(st.Result, want) {
			t.Errorf("%s: outcome %+v, another copy %+v", id, st.Result, want)
		}
		if st.ReusedFrom == "" {
			continue
		}
		reused++
		if src, ok := statuses[st.ReusedFrom]; !ok || src.ReusedFrom != "" {
			t.Errorf("%s reused from %s, which is not a computed job of the batch", id, st.ReusedFrom)
		}
	}
	if reused == 0 {
		t.Error("no duplicate was answered from the index")
	}
	snap := s.Metrics().Snapshot()
	if got := snap.Counter("serve_reused"); got != int64(reused) {
		t.Errorf("serve_reused = %d, %d jobs carry reusedFrom", got, reused)
	}
	if got := snap.Histograms["serve_job_ms"].Count; got != clients*each {
		t.Errorf("serve_job_ms count = %d, want %d", got, clients*each)
	}
}
