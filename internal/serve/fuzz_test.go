package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// FuzzSubmit posts arbitrary bodies to the submit handler: each one is
// admitted (202), rejected (400) or shed (503), never answered with a
// 500 and never a panic. Admitted jobs get a 1 ms deadline and a
// one-slot queue, so fuzzing does not pile up optimization work.
func FuzzSubmit(f *testing.F) {
	for _, body := range []string{
		`{"soc":"nope","wmax":16,"nr":2000,"groups":3,"seed":7}`,
		`{"soc":"d695","wmax":16,"nr":2000,"groups":64,"seed":7}`,
		`{"soc":"d695","wmax":16,"nr":2000,"groups":3,"seed":7,"algo":"ils","kicks":2}`,
		`{"source":"SocName t\nModule 1\n Inputs 2\n Outputs 2\n Patterns 3\n","wmax":4,"nr":10,"groups":1}`,
		`{"soc":"d695","source":"x","wmax":16,"nr":10,"groups":1}`,
		`{"soc":"d695","wmax":0,"nr":10,"groups":1}`,
		`{"soc":"d695","wmax":8,"nr":10,"groups":1,"algo":"quantum"}`,
		`{"soc":"d695","wmax":8,"nr":10,"groups":1,"extra":true}`,
		`{"nonsense`,
		``,
	} {
		f.Add([]byte(body))
	}
	srv, err := NewServer(ServerConfig{Config: Config{
		Workers: 1, QueueDepth: 1, DefaultDeadline: time.Millisecond, MaxDeadline: time.Millisecond,
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Scheduler().Drain(ctx)
	})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusServiceUnavailable:
		default:
			t.Fatalf("POST %q: status %d: %s", body, rec.Code, rec.Body)
		}
	})
}

// FuzzJournalReplay writes arbitrary bytes as a journal file. Reading
// it never panics; a successful read keeps a prefix of the bytes (all
// of them unless the tail is torn) that reads back to the same entries
// with no torn tail. Recovering a scheduler from it never panics, a
// recovered scheduler holds only terminal jobs, every outcome it
// indexes for reuse is that of a replayed job computed done by the
// running build, and a second recovery replays the same jobs and
// index with no orphans.
func FuzzJournalReplay(f *testing.F) {
	const (
		build     = "0123456789abcdef"
		submitted = `{"t":"submitted","id":"j000001","req":{"soc":"d695","wmax":12,"nr":200,"groups":2,"seed":1,"algo":"si","restarts":1,"workers":1,"timeoutMS":30000}}` + "\n"
		terminal  = `{"t":"terminal","id":"j000001","state":"partial","result":{"timeIn":100,"timeSI":50,"timeSOC":150,"rails":2,"partial":true,"cause":"budget","patterns":200,"groups":2,"evals":5}}` + "\n"
		orphan    = `{"t":"submitted","id":"j000002","req":{"soc":"d695","wmax":12,"nr":200,"groups":2,"seed":1,"algo":"si","restarts":1,"workers":1,"timeoutMS":30000}}` + "\n"
		done      = `{"t":"terminal","id":"j000002","state":"done","result":{"timeIn":100,"timeSI":40,"timeSOC":140,"rails":2,"patterns":200,"groups":2,"evals":90},"build":"` + build + `"}` + "\n"
		second    = `{"t":"submitted","id":"j000003","req":{"source":"SocName t\nModule 1\n Inputs 2\n Outputs 2\n Patterns 3\n","wmax":4,"nr":10,"groups":1,"seed":1,"algo":"si","restarts":1,"workers":1,"timeoutMS":30000}}` + "\n"
		reused    = `{"t":"terminal","id":"j000003","state":"done","result":{"timeIn":100,"timeSI":40,"timeSOC":140,"rails":2,"patterns":200,"groups":2,"evals":90},"reusedFrom":"j000002","build":"` + build + `"}` + "\n"
		chaos     = `{"t":"submitted","id":"j000004","req":{"soc":"d695","wmax":12,"nr":200,"groups":2,"seed":1,"algo":"si","restarts":1,"workers":1,"timeoutMS":30000,"chaos":{"sleepMS":1}}}` + "\n"
	)
	entry := func(line, id string) string { return strings.Replace(line, "j000002", id, 1) }
	for _, journal := range []string{
		submitted + terminal + orphan,
		submitted + terminal + orphan + `{"t":"subm`,
		submitted + terminal + orphan[:len(orphan)-1],
		`{"t":"terminal","id":"j000001","state":"running"}` + "\n",
		`{"t":"terminal","id":"j000001","state":""}` + "\n",
		`{"t":"terminal","id":"j000001","state":"bogus"}` + "\n",
		" \n\t\n\n",
		// Computed done outcomes of the running build, each after an
		// entry of the same request that must not answer a repeat: one
		// of another build, a reused job, a partial job; and a chaos
		// job and a terminal-only job that carry the build.
		orphan + done + orphan[:len(orphan)-1],
		entry(orphan, "j000005") + strings.Replace(entry(done, "j000005"), build, "fedcba9876543210", 1) + orphan + done,
		orphan + done + second + reused + entry(second, "j000006") + entry(done, "j000006"),
		chaos + entry(done, "j000004") + entry(done, "j000007") + entry(orphan, "j000007"),
		orphan + strings.Replace(done, `"state":"done"`, `"state":"partial"`, 1) + submitted + strings.Replace(done, "j000002", "j000001", 1),
	} {
		f.Add([]byte(journal))
	}
	// The body's journals live in one directory of this process.
	// Emptying, shrinking or removing a file that a recovery fsynced
	// frees its disk blocks, which costs tens of milliseconds on ext4
	// mounted with discard. So a journal that recovery keeps bytes of
	// is rewritten in place in replay.jsonl, the one file the directory
	// keeps, and every other journal is a new file, removed before
	// writeback gives it blocks.
	dir := f.TempDir()
	fresh := func(t *testing.T, name string, b []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.Remove(path) })
		return path
	}
	replay := filepath.Join(dir, "replay.jsonl")
	rewrite := func(t *testing.T, b []byte) string {
		jf, err := os.OpenFile(replay, os.O_WRONLY|os.O_CREATE, 0o644)
		if err == nil {
			if _, err = jf.WriteAt(b, 0); err == nil {
				err = jf.Truncate(int64(len(b)))
			}
			if cerr := jf.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		return replay
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := fresh(t, "journal.jsonl", data)
		entries, validLen, torn, err := readJournal(path)
		if err == nil {
			if validLen > int64(len(data)) || (!torn && validLen != int64(len(data))) {
				t.Fatalf("validLen %d of %d bytes, torn %v", validLen, len(data), torn)
			}
			again, againLen, againTorn, err := readJournal(fresh(t, "prefix.jsonl", data[:validLen]))
			if err != nil || againTorn || againLen != validLen || !reflect.DeepEqual(again, entries) {
				t.Fatalf("re-reading the valid prefix: %d entries, length %d, torn %v, err %v; want %d entries, length %d",
					len(again), againLen, againTorn, err, len(entries), validLen)
			}
			if validLen > 0 {
				path = rewrite(t, data)
			}
		}
		identity := func() string { return build }
		s, err := NewScheduler(Config{Workers: 1, JournalPath: path, identity: identity})
		if err != nil {
			return
		}
		jobs := s.Jobs()
		s.Drain(context.Background())
		for _, job := range jobs {
			if !job.State().Terminal() {
				t.Fatalf("recovered job %s is %s", job.ID, job.State())
			}
		}
		index := s.reuse
		for key, r := range index {
			checkIndexed(t, entries, s, key, r, build)
		}
		// The journal the recovery repaired and closed out replays
		// whole, with nothing left to close out.
		s, err = NewScheduler(Config{Workers: 1, JournalPath: path, identity: identity})
		if err != nil {
			t.Fatalf("second recovery: %v", err)
		}
		s.Drain(context.Background())
		if n := len(s.Jobs()); n != len(jobs) {
			t.Fatalf("second recovery found %d jobs, the first %d", n, len(jobs))
		}
		if !reflect.DeepEqual(s.reuse, index) {
			t.Fatalf("second recovery indexed %d outcomes, the first %d", len(s.reuse), len(index))
		}
		if n := s.Metrics().Snapshot().Counter("serve_orphaned"); n != 0 {
			t.Fatalf("second recovery closed out %d orphans", n)
		}
	})
}

// checkIndexed fails unless the reuse entry r under key names a job the
// journal entries submitted and whose first terminal entry is a
// computed done outcome of build, filed under the key of its request.
func checkIndexed(t *testing.T, entries []JournalEntry, s *Scheduler, key reuseKey, r reusable, build string) {
	t.Helper()
	var req *Request
	for _, e := range entries {
		if e.ID != r.id {
			continue
		}
		if e.T == "submitted" && req == nil && e.Req != nil {
			req = e.Req
			continue
		}
		if e.T != "terminal" {
			continue
		}
		switch {
		case req == nil:
			t.Fatalf("index entry %s names a job with no submitted entry before its terminal one", r.id)
		case e.State != StateDone || e.ReusedFrom != "" || e.Build != build || e.Result == nil:
			t.Fatalf("index entry %s names a job whose terminal entry is %+v, not a computed done outcome of build %s", r.id, e, build)
		case !reflect.DeepEqual(*e.Result, r.outcome):
			t.Fatalf("index entry %s holds %+v, the journal %+v", r.id, r.outcome, *e.Result)
		}
		if k := req.reuseKey(); k == nil || *k != key {
			t.Fatalf("index entry %s is filed under a key its request %+v does not have", r.id, *req)
		}
		job, err := s.Job(r.id)
		if err != nil {
			t.Fatal(err)
		}
		if st := job.Snapshot(); st.State != StateDone || st.ReusedFrom != "" {
			t.Fatalf("index entry %s names a job replayed as %s, reused from %q", r.id, st.State, st.ReusedFrom)
		}
		return
	}
	t.Fatalf("index entry %s names no job the journal terminates", r.id)
}
