package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
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
