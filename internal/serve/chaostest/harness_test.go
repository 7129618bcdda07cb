// Package chaostest is the load/fault-injection harness for the
// sitamd serving layer, a package of tests only. It stands up an
// in-process Server, hammers it with a seeded mix of hostile clients —
// normal jobs across SOC sizes, duplicate requests that must produce
// identical results, slow SSE readers, mid-stream disconnects, in-job
// panics, and saturation bursts against a deliberately small queue —
// then drains and checks the invariants the daemon promises:
//
//   - every admitted job reaches a terminal state;
//   - identical requests produce identical outcomes;
//   - saturation sheds with 503 + Retry-After, never by queueing
//     unboundedly;
//   - no goroutines leak once the dust settles.
//
// It also collects submit-to-terminal latency percentiles, written to
// BENCH_serve.json by the test wrapper so CI tracks serving latency
// over time.
package chaostest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"sitam/internal/serve"
)

// Options parameterizes a chaos run.
type Options struct {
	// Duration is how long the client mix keeps firing. The run takes
	// longer than this: in-flight waits and the drain ride past it.
	Duration time.Duration

	// Clients is the number of concurrent hostile clients. 0 means 8.
	Clients int

	// Seed makes the op mix reproducible.
	Seed int64

	// Workers / QueueDepth shape the scheduler under test. The queue is
	// small on purpose so saturation bursts actually shed. Zero means
	// 2 workers, queue depth 4.
	Workers    int
	QueueDepth int

	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Percentiles summarizes submit-to-terminal latency.
type Percentiles struct {
	Samples int     `json:"samples"`
	P50ms   float64 `json:"p50_ms"`
	P95ms   float64 `json:"p95_ms"`
	P99ms   float64 `json:"p99_ms"`
}

// Result is everything a chaos run observed. The invariant fields
// (NonTerminal, DeterminismViolations, MissingRetryAfter,
// LeakedGoroutines) are empty/zero on a healthy run.
type Result struct {
	Duration time.Duration `json:"-"`

	Requests    int `json:"requests"`
	Admitted    int `json:"admitted"`
	Shed        int `json:"shed"`
	Panics      int `json:"panics"`
	Disconnects int `json:"disconnects"`
	SlowReads   int `json:"slowReads"`
	Bursts      int `json:"bursts"`
	DupCompared int `json:"dupCompared"`

	Latency Percentiles `json:"latency"`

	NonTerminal           []string `json:"nonTerminal,omitempty"`
	DeterminismViolations []string `json:"determinismViolations,omitempty"`
	MissingRetryAfter     int      `json:"missingRetryAfter,omitempty"`
	LeakedGoroutines      int      `json:"leakedGoroutines,omitempty"`
}

// harness is one run's shared state.
type harness struct {
	opts   Options
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client

	mu        sync.Mutex
	admitted  []string
	latencies []time.Duration
	canonical map[string]*serve.Outcome // canonical request key -> first done outcome
	res       Result
}

func (h *harness) logf(format string, args ...any) {
	if h.opts.Logf != nil {
		h.opts.Logf(format, args...)
	}
}

// Run executes the chaos mix and returns what it observed.
func Run(opts Options) (*Result, error) {
	if opts.Clients <= 0 {
		opts.Clients = 8
	}
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 4
	}
	if opts.Duration <= 0 {
		opts.Duration = 3 * time.Second
	}

	baseline := settledGoroutines()

	srv, err := serve.NewServer(serve.ServerConfig{
		Config: serve.Config{
			Workers:    opts.Workers,
			QueueDepth: opts.QueueDepth,
			TestHooks:  true,
			RetryAfter: 250 * time.Millisecond,
		},
		Poll: 5 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	h := &harness{
		opts:      opts,
		srv:       srv,
		ts:        httptest.NewServer(srv),
		canonical: make(map[string]*serve.Outcome),
	}
	h.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: opts.Clients * 2}}

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), opts.Duration)
	defer cancel()

	var wg sync.WaitGroup
	for i := 0; i < opts.Clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h.clientLoop(ctx, rand.New(rand.NewSource(opts.Seed+int64(id))))
		}(i)
	}
	wg.Wait()
	h.logf("chaos: client mix done after %v (%d requests, %d admitted, %d shed)",
		time.Since(start).Round(time.Millisecond), h.res.Requests, h.res.Admitted, h.res.Shed)

	// Under heavy shedding a short run can miss a hostile path by
	// chance (its submits all got 503s); drive each one to completion
	// deterministically so every invariant is actually exercised.
	h.ensureCoverage(rand.New(rand.NewSource(opts.Seed ^ 0x5eed)))

	// Drain: stop admitting, let in-flight work finish (or partial-ize
	// on grace expiry), then release the HTTP listener.
	drainCtx, drainCancel := context.WithTimeout(context.Background(), 30*time.Second)
	srv.Scheduler().Drain(drainCtx)
	drainCancel()
	h.ts.Close()
	h.client.CloseIdleConnections()

	// Invariant: every admitted job reached a terminal state.
	for _, id := range h.admitted {
		job, err := srv.Scheduler().Job(id)
		if err != nil {
			h.res.NonTerminal = append(h.res.NonTerminal, id+": lost")
			continue
		}
		if !job.State().Terminal() {
			h.res.NonTerminal = append(h.res.NonTerminal, fmt.Sprintf("%s: %s", id, job.State()))
		}
	}

	// Invariant: no goroutine leaks once everything is torn down.
	if after := settleTo(baseline, 10*time.Second); after > baseline {
		h.res.LeakedGoroutines = after - baseline
	}

	h.res.Duration = time.Since(start)
	h.res.Latency = percentiles(h.latencies)
	return &h.res, nil
}

// ensureCoverage retries each hostile path until it has landed at
// least once — with the queue no longer contended, a handful of
// iterations suffices.
func (h *harness) ensureCoverage(rng *rand.Rand) {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		h.mu.Lock()
		needPanic := h.res.Panics == 0
		needDisc := h.res.Disconnects == 0
		needShed := h.res.Shed == 0
		needDup := h.res.DupCompared == 0
		h.mu.Unlock()
		if !needPanic && !needDisc && !needShed && !needDup {
			return
		}
		if needPanic {
			h.opPanic()
		}
		if needDisc {
			h.opDisconnect(rng)
		}
		if needShed {
			h.opBurst(rng)
		}
		if needDup {
			h.opDuplicate()
		}
	}
}

// clientLoop is one hostile client: a seeded stream of ops until the
// run context expires.
func (h *harness) clientLoop(ctx context.Context, rng *rand.Rand) {
	for ctx.Err() == nil {
		switch p := rng.Intn(100); {
		case p < 40:
			h.opNormal(rng)
		case p < 55:
			h.opDuplicate()
		case p < 70:
			h.opBurst(rng)
		case p < 80:
			h.opSlowReader(rng)
		case p < 90:
			h.opDisconnect(rng)
		default:
			h.opPanic()
		}
	}
}

// submit posts a request and records admission/shed accounting.
// Returns the job ID, or "" when shed or errored.
func (h *harness) submit(req serve.Request) string {
	body, err := json.Marshal(req)
	if err != nil {
		return ""
	}
	resp, err := h.client.Post(h.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	h.mu.Lock()
	h.res.Requests++
	h.mu.Unlock()
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		var acc struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
			return ""
		}
		h.mu.Lock()
		h.res.Admitted++
		h.admitted = append(h.admitted, acc.ID)
		h.mu.Unlock()
		return acc.ID
	case http.StatusServiceUnavailable:
		h.mu.Lock()
		h.res.Shed++
		if resp.Header.Get("Retry-After") == "" {
			h.res.MissingRetryAfter++
		}
		h.mu.Unlock()
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return ""
	default:
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return ""
	}
}

// status fetches a job snapshot over the wire.
func (h *harness) status(id string) (serve.Status, bool) {
	resp, err := h.client.Get(h.ts.URL + "/v1/jobs/" + id)
	if err != nil {
		return serve.Status{}, false
	}
	defer resp.Body.Close()
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return serve.Status{}, false
	}
	return st, true
}

// waitTerminal polls a job to a terminal state, recording latency.
func (h *harness) waitTerminal(id string, since time.Time) (serve.Status, bool) {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := h.status(id)
		if ok && st.State.Terminal() {
			h.mu.Lock()
			h.latencies = append(h.latencies, time.Since(since))
			h.mu.Unlock()
			return st, true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return serve.Status{}, false
}

// smallSOCs is the request mix; sizes vary so the load is not uniform.
var smallSOCs = []struct {
	soc  string
	wmax int
	nr   int
}{
	{"d695", 12, 200},
	{"d695", 16, 300},
	{"p34392", 16, 150},
	{"p93791", 24, 150},
}

// opNormal submits a routine job and waits it to a terminal state.
func (h *harness) opNormal(rng *rand.Rand) {
	pick := smallSOCs[rng.Intn(len(smallSOCs))]
	start := time.Now()
	id := h.submit(serve.Request{
		SOC:   pick.soc,
		Wmax:  pick.wmax,
		Nr:    pick.nr,
		Parts: 1 + rng.Intn(3),
		Seed:  rng.Int63n(1 << 30),
	})
	if id != "" {
		h.waitTerminal(id, start)
	}
}

// canonicalReq is the fixed request duplicate clients replay; every
// completed run of it must produce the identical outcome.
func canonicalReq() serve.Request {
	return serve.Request{SOC: "d695", Wmax: 12, Nr: 200, Parts: 2, Seed: 42}
}

// opDuplicate replays the canonical request and cross-checks the
// outcome against the first completed copy. The scheduler answers most
// copies from the first job that computed it, so the check holds reuse
// to the computed outcome, and a copy that overlapped a running twin
// to its own computation.
func (h *harness) opDuplicate() {
	start := time.Now()
	id := h.submit(canonicalReq())
	if id == "" {
		return
	}
	st, ok := h.waitTerminal(id, start)
	// Only fully completed runs are comparable — a drain or deadline
	// partial legitimately differs.
	if !ok || st.State != serve.StateDone || st.Result == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if prev, seen := h.canonical["d695/42"]; seen {
		h.res.DupCompared++
		if !reflect.DeepEqual(prev, st.Result) {
			h.res.DeterminismViolations = append(h.res.DeterminismViolations,
				fmt.Sprintf("%s: %+v != %+v", id, st.Result, prev))
		}
	} else {
		h.canonical["d695/42"] = st.Result
	}
}

// opBurst fires a quick volley to hit the admission limit; shed
// accounting (and the Retry-After check) happens in submit.
func (h *harness) opBurst(rng *rand.Rand) {
	h.mu.Lock()
	h.res.Bursts++
	h.mu.Unlock()
	var ids []string
	start := time.Now()
	for i := 0; i < 4+rng.Intn(4); i++ {
		if id := h.submit(serve.Request{
			SOC: "d695", Wmax: 12, Nr: 200, Parts: 2, Seed: rng.Int63n(1 << 30),
			Chaos: &serve.ChaosHook{SleepMS: int64(rng.Intn(40))},
		}); id != "" {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		h.waitTerminal(id, start)
	}
	if len(ids) == 0 {
		// Fully shed: honor the backoff a polite client would, so the
		// burster does not monopolize the run with 503s.
		time.Sleep(100 * time.Millisecond)
	}
}

// opSlowReader streams a job's events at a trickle — the server must
// tolerate a slow consumer without stalling the job.
func (h *harness) opSlowReader(rng *rand.Rand) {
	start := time.Now()
	id := h.submit(serve.Request{SOC: "d695", Wmax: 12, Nr: 250, Parts: 2, Seed: rng.Int63n(1 << 30)})
	if id == "" {
		return
	}
	h.mu.Lock()
	h.res.SlowReads++
	h.mu.Unlock()
	resp, err := h.client.Get(h.ts.URL + "/v1/jobs/" + id + "/events?cancel=no")
	if err == nil {
		buf := make([]byte, 256) // tiny reads with pauses = slow client
		for i := 0; i < 50; i++ {
			if _, err := resp.Body.Read(buf); err != nil {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		resp.Body.Close()
	}
	h.waitTerminal(id, start)
}

// opDisconnect opens a job's event stream and drops it mid-flight; the
// server must cancel the abandoned job and the job must still reach a
// terminal state.
func (h *harness) opDisconnect(rng *rand.Rand) {
	start := time.Now()
	id := h.submit(serve.Request{
		SOC: "d695", Wmax: 12, Nr: 200, Parts: 2, Seed: rng.Int63n(1 << 30),
		Chaos: &serve.ChaosHook{SleepMS: int64(200 + rng.Intn(400))},
	})
	if id == "" {
		return
	}
	h.mu.Lock()
	h.res.Disconnects++
	h.mu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", h.ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err == nil {
		if resp, err := h.client.Do(req); err == nil {
			buf := make([]byte, 64)
			resp.Body.Read(buf) //nolint:errcheck // any bytes at all, then hang up
			cancel()
			resp.Body.Close()
		}
	}
	cancel()
	h.waitTerminal(id, start)
}

// opPanic injects an in-job panic; the daemon must convert it into a
// failed record and keep serving.
func (h *harness) opPanic() {
	start := time.Now()
	id := h.submit(serve.Request{
		SOC: "d695", Wmax: 12, Nr: 200, Parts: 2, Seed: 7,
		Chaos: &serve.ChaosHook{Panic: true},
	})
	if id == "" {
		return
	}
	h.mu.Lock()
	h.res.Panics++
	h.mu.Unlock()
	h.waitTerminal(id, start)
}

// percentiles computes latency percentiles (nearest-rank).
func percentiles(d []time.Duration) Percentiles {
	if len(d) == 0 {
		return Percentiles{}
	}
	sorted := append([]time.Duration(nil), d...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := func(q float64) float64 {
		i := int(q*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		// Round to microsecond precision so BENCH_serve.json diffs carry
		// only real movement, not float formatting churn.
		return math.Round(float64(sorted[i])/float64(time.Microsecond)) / 1000
	}
	return Percentiles{
		Samples: len(sorted),
		P50ms:   rank(0.50),
		P95ms:   rank(0.95),
		P99ms:   rank(0.99),
	}
}

// settledGoroutines samples the goroutine count after a short settle
// so stragglers from earlier tests do not skew the baseline.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m <= n {
			return m
		} else {
			n = m
		}
	}
	return n
}

// settleTo waits up to max for the goroutine count to return to the
// baseline, returning the final count.
func settleTo(baseline int, max time.Duration) int {
	deadline := time.Now().Add(max)
	n := runtime.NumGoroutine()
	for n > baseline && time.Now().Before(deadline) {
		time.Sleep(25 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}
