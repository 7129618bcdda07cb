// Command sitamd is the sitam optimization daemon: an HTTP/JSON
// service that runs SI-aware TAM optimization jobs under admission
// control and streams their convergence traces.
//
// Usage:
//
//	sitamd -addr 127.0.0.1:8037 [-workers 4] [-queue 64] [-journal jobs.jsonl]
//	       [-max-timeout 2m] [-default-timeout 30s] [-budget-cap 0] [-drain 10s]
//
// Endpoints (see the README "Serving" section for the full contract):
//
//	POST   /v1/jobs             submit a job -> 202 {id}; 503 + Retry-After when saturated
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status and terminal result
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /v1/jobs/{id}/events SSE stream of the search trace (heartbeats; disconnect cancels)
//	GET    /v1/jobs/{id}/trace  flight-recorder replay of a finished job's trace (JSONL)
//	GET    /metrics             metrics snapshot: JSON, or Prometheus text under Accept: text/plain
//	GET    /healthz             liveness and drain state
//
// Robustness: the queue is bounded and overload is shed with 503;
// client deadlines and eval budgets are clamped server-side; a job
// that panics becomes a structured job failure, not a daemon crash;
// with -journal, admissions and results are fsynced to an append-only
// journal and replayed on restart, so completed and partial results
// survive a crash. On SIGINT/SIGTERM the daemon stops admitting,
// lets in-flight jobs finish (partial-izing whatever is still running
// when -drain expires), flushes a final metrics snapshot and exits 0.
// A second signal while draining forces an immediate exit with code
// 130.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"sitam/cmd/internal/cli"
	"sitam/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sitamd: ")
	var (
		addr        = flag.String("addr", "127.0.0.1:8037", "listen address (host:port; port 0 picks a free port)")
		workers     = flag.Int("workers", 0, "concurrent jobs (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", serve.DefaultQueueDepth, "admission queue depth; submits beyond it are shed with 503")
		jobWorkers  = flag.Int("job-workers", 1, "max candidate-evaluation workers one job may claim")
		defTimeout  = flag.Duration("default-timeout", serve.DefaultJobDeadline, "per-job deadline when the request has none")
		maxTimeout  = flag.Duration("max-timeout", serve.DefaultMaxDeadline, "clamp on client-supplied per-job deadlines")
		budgetCap   = flag.Int64("budget-cap", 0, "clamp on client-supplied eval budgets (0 = unlimited)")
		journal     = flag.String("journal", "", "append-only job journal path; replayed on restart (empty = no durability)")
		cacheFile   = flag.String("cache-file", "", "persistent evaluation-cache file shared by all jobs and reloaded on restart (empty = memory-only caching)")
		traceJobs   = flag.Int("trace-jobs", serve.DefaultRecorderJobs, "finished jobs whose traces the flight recorder retains")
		traceEvents = flag.Int("trace-events", serve.DefaultRecorderEvents, "events one job's trace keeps while it runs and once recorded; beyond it, the first half, every phase span event and the newest")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-drain grace period: in-flight jobs beyond it are partial-ized")
		heartbeat   = flag.Duration("heartbeat", 10*time.Second, "SSE heartbeat interval")
		retryAfter  = flag.Duration("retry-after", time.Second, "backoff advertised on 503 responses")
		testHooks   = flag.Bool("test-hooks", false, "honor chaos fault-injection fields in requests (tests only)")
	)
	flag.Parse()
	if err := run(*addr, serve.ServerConfig{
		Config: serve.Config{
			Workers:         *workers,
			QueueDepth:      *queue,
			MaxJobWorkers:   *jobWorkers,
			DefaultDeadline: *defTimeout,
			MaxDeadline:     *maxTimeout,
			MaxEvals:        *budgetCap,
			RetryAfter:      *retryAfter,
			TestHooks:       *testHooks,
			JournalPath:     *journal,
			CachePath:       *cacheFile,
			RecorderJobs:    *traceJobs,
			RecorderEvents:  *traceEvents,
			Logf:            log.Printf,
		},
		Heartbeat: *heartbeat,
	}, *drain); err != nil {
		log.Fatal(err)
	}
}

func run(addr string, cfg serve.ServerConfig, drainGrace time.Duration) error {
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv}
	log.Printf("listening on http://%s", ln.Addr())

	// First SIGINT/SIGTERM cancels ctx and starts the graceful drain;
	// a second one forces os.Exit(130) via the cli signal watcher.
	ctx, stop := cli.Context(0)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	log.Printf("draining: admission closed, waiting up to %v for in-flight jobs", drainGrace)
	drainCtx, cancel := context.WithTimeout(context.Background(), drainGrace)
	srv.Scheduler().Drain(drainCtx)
	cancel()

	// The scheduler is down; give lingering connections (status polls,
	// SSE streams now at their terminal event) a moment to finish.
	shutCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	err = httpSrv.Shutdown(shutCtx)
	cancel()
	if err != nil {
		httpSrv.Close()
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http server: %v", err)
	}

	snap := srv.Scheduler().Metrics().Snapshot()
	log.Printf("final metrics snapshot:\n%s", snap.Format())
	log.Printf("drained cleanly")
	// Belt and braces: main returning nil exits 0, but be explicit that
	// a clean drain is a success exit for process supervisors.
	os.Exit(cli.ExitOK)
	return nil
}
