package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sitam/internal/obs"
	"sitam/internal/serve"
)

// daemon-jobs runs sitamd in process: serve.NewServer behind a loopback
// listener, restarted on the journal an untimed warm-up batch left
// behind, then a closed loop of nproc clients, each sending its next
// job once its previous one is terminal.
//
// The server runs without a persistent cache file (sitamd's default):
// the file is keyed by architecture composition alone, so with this
// mix of SOCs, corpora, groupings and algorithms a job can read another
// job's objective and return a wrong outcome.

type daemonSize struct {
	socs               []string
	nrs, widths, parts []int
	distinct, repeats  int // timed batch: every catalogue request once, plus repeats
	warm               int // warm-up batch size
}

// daemonAlgos are the optimizers a request picks from, with equal
// weight: sitamd's three algo values.
var daemonAlgos = []string{"si", "baseline", "ils"}

// daemonKicks is every ils request's kick count, with sitamd's default
// of one restart. It sets the ILS share of the mix's work: at 25 kicks
// the timed 200-job batch takes 17-19 s on a 2-vCPU Xeon host.
const daemonKicks = 25

func daemonSizeFor(toy bool) daemonSize {
	if toy {
		return daemonSize{
			socs: []string{"d695"}, nrs: []int{2000}, widths: []int{16}, parts: []int{1, 2, 4},
			distinct: 14, repeats: 6, warm: 8,
		}
	}
	return daemonSize{
		socs:     []string{"d695", "p34392", "p93791"},
		nrs:      []int{2000, 4000, 6000, 8000, 10000},
		widths:   []int{8, 16, 24, 32, 40, 48, 56, 64},
		parts:    []int{1, 2, 4, 8},
		distinct: 140, repeats: 60, warm: 40,
	}
}

// catalogueSeed fixes the distinct requests and which of them repeat.
// Every benchmark seed runs the same timed jobs, so the timed work does
// not vary with the seed; the seed picks their order and the warm-up
// batch.
const catalogueSeed = 20070604

// daemonSetups is how often a timed child restarts the server to time
// set-up; the last instance serves the timed batch.
const daemonSetups = 51

func catalogue(z daemonSize) []serve.Request {
	rng := rand.New(rand.NewSource(catalogueSeed))
	seen := map[string]bool{}
	var cat []serve.Request
	for len(cat) < z.distinct {
		req := serve.Request{
			SOC:   z.socs[rng.Intn(len(z.socs))],
			Nr:    z.nrs[rng.Intn(len(z.nrs))],
			Wmax:  z.widths[rng.Intn(len(z.widths))],
			Parts: z.parts[rng.Intn(len(z.parts))],
			Algo:  daemonAlgos[rng.Intn(len(daemonAlgos))],
			Seed:  1 + rng.Int63n(1000),
		}
		if req.Algo == "ils" {
			req.Kicks = daemonKicks
		}
		if k := requestKey(req); !seen[k] {
			seen[k] = true
			cat = append(cat, req)
		}
	}
	return cat
}

func requestKey(r serve.Request) string {
	return fmt.Sprintf("%s/nr%d/w%d/g%d/%s/k%d/s%d", r.SOC, r.Nr, r.Wmax, r.Parts, r.Algo, r.Kicks, r.Seed)
}

// timedBatch is every catalogue request once plus a second copy of the
// first z.repeats (the catalogue's order is random already), in seeded
// order.
func timedBatch(cat []serve.Request, z daemonSize, seed int64) []serve.Request {
	batch := append(append([]serve.Request(nil), cat...), cat[:z.repeats]...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	return batch
}

// warmBatch draws the warm-up requests with a seed of their own.
func warmBatch(cat []serve.Request, z daemonSize, seed int64) []serve.Request {
	rng := rand.New(rand.NewSource(seed + 1_000_003))
	batch := make([]serve.Request, z.warm)
	for i := range batch {
		batch[i] = cat[rng.Intn(len(cat))]
	}
	return batch
}

func daemonConfig(dir string) serve.ServerConfig {
	return serve.ServerConfig{Config: serve.Config{
		Workers:     runtime.NumCPU(),
		JournalPath: filepath.Join(dir, "journal.jsonl"),
	}}
}

// daemon is one running server and the HTTP client that loads it.
type daemon struct {
	srv    *serve.Server
	http   *http.Server
	served chan error
	base   string
	client *http.Client
}

// startDaemon builds the server, listens on loopback and returns once
// /healthz answers — the span setup_s times.
func startDaemon(cfg serve.ServerConfig) (*daemon, error) {
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Scheduler().Drain(context.Background())
		return nil, err
	}
	conns := runtime.NumCPU()
	d := &daemon{
		srv:    srv,
		http:   &http.Server{Handler: srv},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}},
	}
	go func() { d.served <- d.http.Serve(ln) }()
	if _, err := d.get("/healthz"); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop drains the scheduler (closing the journal) and shuts the
// listener down, waiting for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	d.srv.Scheduler().Drain(ctx)
	if err := d.http.Shutdown(ctx); err != nil {
		d.http.Close()
	}
	<-d.served
	d.client.CloseIdleConnections()
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	return readBody(resp, http.StatusOK)
}

// readBody reads a whole response (so the connection is reused) and
// turns an unexpected status into an error.
func readBody(resp *http.Response, want int) ([]byte, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: %s: %s", resp.Request.Method, resp.Request.URL.Path, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

// drainedMetrics drains the scheduler, then reads GET /metrics. A job's
// Done() closes before the scheduler records its phase histograms,
// journals its terminal entry and observes serve_job_ms, so only a
// drained scheduler's metrics hold every job of the batch.
func (d *daemon) drainedMetrics() (*obs.Snapshot, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	d.srv.Scheduler().Drain(ctx)
	b, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	snap := obs.NewSnapshot()
	return snap, json.Unmarshal(b, snap)
}

// jobRun is what one client saw of one job.
type jobRun struct {
	Key                           string
	Status                        serve.Status
	Err                           string
	SubmitMS, LatencyMS, StatusMS float64
}

// closedLoop runs the batch on clients goroutines. Each takes the next
// request once its previous job is terminal; completion is observed on
// the job's Done channel, so polling does not quantize latency.
func (d *daemon) closedLoop(batch []serve.Request, clients int, tr *tracer) []jobRun {
	runs := make([]jobRun, len(batch))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lane := tr.begin("client", fmt.Sprintf("client%d", c), 0)
			defer tr.end(lane, nil)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(batch) {
					return
				}
				runs[i] = d.runJob(batch[i], fmt.Sprintf("job%d", i), tr, lane)
			}
		}(c)
	}
	wg.Wait()
	return runs
}

func (d *daemon) runJob(req serve.Request, unit string, tr *tracer, lane int) jobRun {
	r := jobRun{Key: requestKey(req)}
	body, err := json.Marshal(req)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	t0 := time.Now()
	job := tr.begin("serve.job", unit, lane)
	sub := tr.begin("serve.submit", unit, job)
	id, err := d.submit(body)
	t1 := time.Now()
	tr.end(sub, nil)
	if err == nil {
		var j *serve.Job
		if j, err = d.srv.Scheduler().Job(id); err == nil {
			<-j.Done()
		}
	}
	t2 := time.Now()
	tr.end(job, nil)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	st := tr.begin("serve.status", unit, lane)
	b, err := d.get("/v1/jobs/" + id)
	if err == nil {
		err = json.Unmarshal(b, &r.Status)
	}
	t3 := time.Now()
	tr.end(st, nil)
	if err != nil {
		r.Err = err.Error()
	}
	r.SubmitMS, r.LatencyMS, r.StatusMS = ms(t1.Sub(t0)), ms(t2.Sub(t0)), ms(t3.Sub(t2))
	return r
}

func (d *daemon) submit(body []byte) (string, error) {
	resp, err := d.client.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	b, err := readBody(resp, http.StatusAccepted)
	if err != nil {
		return "", err
	}
	var acc struct {
		ID string `json:"id"`
	}
	return acc.ID, json.Unmarshal(b, &acc)
}

// checkJobs counts every job as one operation. A job fails when its
// request errored or was refused, when it did not end done, when its
// outcome differs from the reference, or when a repeated request's
// outcome differs from the request's first outcome.
func checkJobs(ref reference, toy bool, runs []jobRun, res *unitResult) {
	first := map[string]*serve.Outcome{}
	for _, r := range runs {
		res.Attempted++
		switch {
		case r.Err != "":
			res.fail("%s: %s", r.Key, r.Err)
			continue
		case r.Status.State != serve.StateDone || r.Status.Result == nil:
			res.fail("%s: job %s ended %s: %s", r.Key, r.Status.ID, r.Status.State, r.Status.Error)
			continue
		}
		got := *r.Status.Result
		if prev, ok := first[r.Key]; ok && *prev != got {
			res.fail("%s: repeated request returned %+v, first %+v", r.Key, got, *prev)
			continue
		}
		first[r.Key] = &got
		if ref == nil {
			continue
		}
		var want serve.Outcome
		if err := ref.get("daemon-jobs/"+size(toy)+"/"+r.Key, &want); err != nil {
			res.fail("%v", err)
		} else if got != want {
			res.fail("%s: outcome %+v, reference %+v", r.Key, got, want)
		}
	}
}

// runWarmup starts a server on an empty state directory and runs the
// warm-up batch, leaving its journal behind.
func runWarmup(sp spec, ref reference) (*unitResult, error) {
	z := daemonSizeFor(sp.Toy)
	d, err := startDaemon(daemonConfig(sp.Dir))
	if err != nil {
		return nil, err
	}
	runs := d.closedLoop(warmBatch(catalogue(z), z, sp.Seed), runtime.NumCPU(), nil)
	d.stop()
	res := &unitResult{}
	checkJobs(ref, sp.Toy, runs, res)
	return res, nil
}

// runDaemon restarts the server daemonSetups times on the warm state,
// then runs the timed batch on the last instance.
func runDaemon(sp spec, ref reference) (*unitResult, error) {
	z := daemonSizeFor(sp.Toy)
	cat := catalogue(z)
	batch := timedBatch(cat, z, sp.Seed)
	cfg := daemonConfig(sp.Dir)
	res := &unitResult{Props: map[string]any{}}
	var tr *tracer
	if sp.Traced {
		tr = newTracer()
		res.Layers = layerMap()
		t0 := time.Now()
		j, _, err := serve.OpenJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		res.Layers["serve.journal_open_s"] = since(t0)
		if err := j.Close(); err != nil {
			return nil, err
		}
	}
	var d *daemon
	for i := 0; i < daemonSetups; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(cfg); err != nil {
			return nil, err
		}
		res.Setups = append(res.Setups, since(t0))
	}
	before := readRuntime()
	start := time.Now()
	runs := d.closedLoop(batch, runtime.NumCPU(), tr)
	res.Walls = []float64{since(start)}
	snap, err := d.drainedMetrics()
	d.stop()
	if err != nil {
		return nil, err
	}
	checkJobs(ref, sp.Toy, runs, res)
	if n := snap.Histograms["serve_job_ms"].Count; n != int64(len(batch)) {
		res.fail("/metrics after the drain holds %d serve_job_ms observations, want %d", n, len(batch))
	}
	for _, r := range runs {
		res.JobsMS = append(res.JobsMS, r.LatencyMS)
	}
	mixProps(res.Props, cat, batch, warmBatch(cat, z, sp.Seed))
	if tr == nil {
		return res, nil
	}
	addRuntime(res.Layers, before)
	serveLayers(res.Layers, runs, snap)
	res.reconcile(tr, "client", runtime.NumCPU())
	return res, tr.write(spansPath(sp))
}

// mixProps records the properties of the job mix a later change may
// depend on: how many requests are distinct, how many repeat within
// the batch, and how many the warm-up before the restart already ran.
func mixProps(p map[string]any, cat, batch, warm []serve.Request) {
	warmed := map[string]bool{}
	for _, r := range warm {
		warmed[requestKey(r)] = true
	}
	hits := 0
	for _, r := range batch {
		if warmed[requestKey(r)] {
			hits++
		}
	}
	p["timed_jobs"] = len(batch)
	p["distinct_requests"] = len(cat)
	p["repeated_share"] = float64(len(batch)-len(cat)) / float64(len(batch))
	p["warm_request_share"] = float64(hits) / float64(len(batch))
	p["warm_distinct_requests"] = len(warmed)
	p["clients"] = runtime.NumCPU()
}

// serveLayers fills the serve metrics from the clients' round trips,
// the job statuses and the server's /metrics after the batch.
func serveLayers(l map[string]float64, runs []jobRun, snap *obs.Snapshot) {
	var submit, status []float64
	var latency, events float64
	for _, r := range runs {
		submit = append(submit, r.SubmitMS)
		status = append(status, r.StatusMS)
		latency += r.LatencyMS / 1000
		events += float64(r.Status.Events)
	}
	run := float64(snap.Histograms["serve_job_ms"].Sum) / 1000
	l["serve.submit_ms"] = median(submit)
	l["serve.status_ms"] = median(status)
	l["serve.job_run_s"] = run
	l["serve.queue_wait_s"] = latency - sum(submit)/1000 - run
	l["serve.trace_events"] = events
	for key, h := range snap.Histograms {
		name, labels := obs.ParseKey(key)
		if name != "sitam_job_phase_ms" || len(labels) != 1 {
			continue
		}
		m := "serve.phase." + phaseKey(labels[0].Value) + "_s"
		if _, ok := l[m]; ok {
			l[m] += float64(h.Sum) / 1000
		}
	}
}

// recordJobs runs every catalogue request once on a fresh server with
// no journal or cache file and returns the outcomes by request key.
func recordJobs(toy bool) (map[string]serve.Outcome, error) {
	cat := catalogue(daemonSizeFor(toy))
	d, err := startDaemon(serve.ServerConfig{Config: serve.Config{Workers: runtime.NumCPU()}})
	if err != nil {
		return nil, err
	}
	runs := d.closedLoop(cat, runtime.NumCPU(), nil)
	d.stop()
	out := map[string]serve.Outcome{}
	var errs []string
	for _, r := range runs {
		if r.Err != "" || r.Status.State != serve.StateDone || r.Status.Result == nil {
			errs = append(errs, fmt.Sprintf("%s: %s %s %s", r.Key, r.Err, r.Status.State, r.Status.Error))
			continue
		}
		out[r.Key] = *r.Status.Result
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("recording daemon-jobs: %s", strings.Join(errs, "; "))
	}
	return out, nil
}
