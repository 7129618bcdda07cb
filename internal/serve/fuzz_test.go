package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
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
// recovered scheduler holds only terminal jobs, and a second recovery
// replays the same jobs with no orphans.
func FuzzJournalReplay(f *testing.F) {
	const (
		submitted = `{"t":"submitted","id":"j000001","req":{"soc":"d695","wmax":12,"nr":200,"groups":2,"seed":1,"algo":"si","restarts":1,"workers":1,"timeoutMS":30000}}` + "\n"
		terminal  = `{"t":"terminal","id":"j000001","state":"partial","result":{"timeIn":100,"timeSI":50,"timeSOC":150,"rails":2,"partial":true,"cause":"budget","patterns":200,"groups":2,"evals":5}}` + "\n"
		orphan    = `{"t":"submitted","id":"j000002","req":{"soc":"d695","wmax":12,"nr":200,"groups":2,"seed":1,"algo":"si","restarts":1,"workers":1,"timeoutMS":30000}}` + "\n"
	)
	for _, journal := range []string{
		submitted + terminal + orphan,
		submitted + terminal + orphan + `{"t":"subm`,
		submitted + terminal + orphan[:len(orphan)-1],
		`{"t":"terminal","id":"j000001","state":"running"}` + "\n",
		`{"t":"terminal","id":"j000001","state":""}` + "\n",
		`{"t":"terminal","id":"j000001","state":"bogus"}` + "\n",
		" \n\t\n\n",
	} {
		f.Add([]byte(journal))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "jobs.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		entries, validLen, torn, err := readJournal(path)
		if err == nil {
			if validLen > int64(len(data)) || (!torn && validLen != int64(len(data))) {
				t.Fatalf("validLen %d of %d bytes, torn %v", validLen, len(data), torn)
			}
			if err := os.WriteFile(path, data[:validLen], 0o644); err != nil {
				t.Fatal(err)
			}
			again, againLen, againTorn, err := readJournal(path)
			if err != nil || againTorn || againLen != validLen || !reflect.DeepEqual(again, entries) {
				t.Fatalf("re-reading the valid prefix: %d entries, length %d, torn %v, err %v; want %d entries, length %d",
					len(again), againLen, againTorn, err, len(entries), validLen)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := NewScheduler(Config{Workers: 1, JournalPath: path})
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
		// The journal the recovery repaired and closed out replays
		// whole, with nothing left to close out.
		s, err = NewScheduler(Config{Workers: 1, JournalPath: path})
		if err != nil {
			t.Fatalf("second recovery: %v", err)
		}
		s.Drain(context.Background())
		if n := len(s.Jobs()); n != len(jobs) {
			t.Fatalf("second recovery found %d jobs, the first %d", n, len(jobs))
		}
		if n := s.Metrics().Snapshot().Counter("serve_orphaned"); n != 0 {
			t.Fatalf("second recovery closed out %d orphans", n)
		}
	})
}
