// Package serve is the optimization-as-a-service layer behind the
// sitamd daemon: a bounded job scheduler with admission control and
// load shedding, per-job panic isolation, SSE streaming of the search
// trace, graceful drain, and a crash-safe append-only job journal.
//
// The package deliberately contains no search logic: jobs run the same
// anytime pipeline the tamopt CLI uses (pattern generation, grouping,
// SI-aware TAM optimization), so every robustness property of the
// engine — ctx cancellation, eval budgets, StopCause classification,
// byte-determinism at any worker count — carries over to the service
// unchanged.
package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"sitam/internal/core"
	"sitam/internal/obs"
	"sitam/internal/sifault"
	"sitam/internal/sischedule"
	"sitam/internal/soc"
)

// State is a job's position in its lifecycle. The machine is
//
//	queued -> running -> done | partial | failed | canceled
//
// and every admitted job reaches exactly one of the four terminal
// states — including jobs in flight during a drain (partial-ized), jobs
// whose run panics (failed), and jobs found mid-flight in the journal
// after a crash (failed at recovery).
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StatePartial  State = "partial"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is one of the four end states.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StatePartial, StateFailed, StateCanceled:
		return true
	}
	return false
}

// Request is the submitted job description. Exactly one of SOC (an
// embedded benchmark name) or Source (inline .soc text) selects the
// design; the remaining fields mirror the tamopt flags.
type Request struct {
	SOC    string `json:"soc,omitempty"`
	Source string `json:"source,omitempty"`

	Wmax  int   `json:"wmax"`
	Nr    int   `json:"nr"`
	Parts int   `json:"groups"`
	Seed  int64 `json:"seed"`

	// Algo selects the optimizer: "si" (the paper's Algorithm 2, the
	// default), "baseline" (TR-Architect + SI scheduling) or "ils".
	Algo     string `json:"algo,omitempty"`
	Kicks    int    `json:"kicks,omitempty"`
	Restarts int    `json:"restarts,omitempty"`

	// Workers bounds the job's compaction and candidate-evaluation
	// concurrency; the scheduler clamps it to Config.MaxJobWorkers
	// (default 1: jobs are the unit of parallelism, not workers within
	// a job).
	Workers int `json:"workers,omitempty"`

	// MaxEvals is the objective-evaluation budget (0 = server default);
	// clamped to Config.MaxEvals.
	MaxEvals int64 `json:"budget,omitempty"`

	// TimeoutMS is the client-requested deadline in milliseconds
	// (0 = server default). Clamped to Config.MaxDeadline — a second
	// deadline layer, so absurd client values cannot pin a worker.
	TimeoutMS int64 `json:"timeoutMS,omitempty"`

	// Chaos carries fault-injection hooks honored only when the
	// scheduler runs with Config.TestHooks (the chaos harness and the
	// e2e tests); on a production daemon the field is ignored.
	Chaos *ChaosHook `json:"chaos,omitempty"`
}

// ChaosHook is the test-only fault injection carried by a Request.
type ChaosHook struct {
	// Panic makes the job runner panic mid-job, exercising per-job
	// panic isolation.
	Panic bool `json:"panic,omitempty"`

	// SleepMS stalls the job before optimization, for deterministic
	// slow-job scenarios (drain, disconnect-cancel, kill -9).
	SleepMS int64 `json:"sleepMS,omitempty"`
}

// Validate normalizes the request and rejects out-of-range values with
// limits (resource sanity is part of admission control: a hostile nr or
// wmax must fail fast with 400, not OOM a worker). It resolves the SOC
// as the run will, so an unknown benchmark, an unparsable source or
// more groups than cores is rejected before the job is journaled.
func (r *Request) Validate(lim Limits) error {
	if (r.SOC == "") == (r.Source == "") {
		return fmt.Errorf("exactly one of soc or source must be set")
	}
	if r.Algo == "" {
		r.Algo = string(core.MethodSI)
	}
	if err := core.Method(r.Algo).Validate(); err != nil {
		return err
	}
	if r.Wmax < 1 || r.Wmax > lim.MaxWmax {
		return fmt.Errorf("wmax %d out of range [1, %d]", r.Wmax, lim.MaxWmax)
	}
	if r.Nr < 1 || r.Nr > lim.MaxNr {
		return fmt.Errorf("nr %d out of range [1, %d]", r.Nr, lim.MaxNr)
	}
	if r.Parts < 1 || r.Parts > lim.MaxParts {
		return fmt.Errorf("groups %d out of range [1, %d]", r.Parts, lim.MaxParts)
	}
	if len(r.Source) > lim.MaxSourceBytes {
		return fmt.Errorf("source exceeds %d bytes", lim.MaxSourceBytes)
	}
	if r.Kicks < 0 || r.Kicks > lim.MaxKicks {
		return fmt.Errorf("kicks %d out of range [0, %d]", r.Kicks, lim.MaxKicks)
	}
	if r.Restarts == 0 {
		r.Restarts = 1
	}
	if r.Restarts < 1 || r.Restarts > lim.MaxRestarts {
		return fmt.Errorf("restarts %d out of range [1, %d]", r.Restarts, lim.MaxRestarts)
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("timeoutMS must be >= 0")
	}
	if r.MaxEvals < 0 {
		return fmt.Errorf("budget must be >= 0")
	}
	s, err := r.loadSOC()
	if err != nil {
		return err
	}
	if r.Parts > s.NumCores() {
		return fmt.Errorf("groups %d exceeds the %d cores of %s", r.Parts, s.NumCores(), s.Name)
	}
	return nil
}

// Limits bounds the resources a single request may claim.
type Limits struct {
	MaxWmax        int
	MaxNr          int
	MaxParts       int
	MaxKicks       int
	MaxRestarts    int
	MaxSourceBytes int
}

// DefaultLimits are the admission sanity bounds used when Config leaves
// Limits zero.
func DefaultLimits() Limits {
	return Limits{
		MaxWmax:        256,
		MaxNr:          200_000,
		MaxParts:       64,
		MaxKicks:       1_000_000,
		MaxRestarts:    64,
		MaxSourceBytes: 1 << 20,
	}
}

// Outcome is the terminal result record of a job: the time breakdown
// plus the partial/cause classification. It is what the journal
// persists and what survives a daemon restart.
type Outcome struct {
	TimeIn  int64 `json:"timeIn"`
	TimeSI  int64 `json:"timeSI"`
	TimeSOC int64 `json:"timeSOC"`
	Rails   int   `json:"rails"`

	Partial bool   `json:"partial,omitempty"`
	Cause   string `json:"cause,omitempty"`
	Reason  string `json:"reason,omitempty"`

	Patterns int   `json:"patterns"`
	Groups   int   `json:"groups"`
	Evals    int64 `json:"evals"`
}

// Job is one admitted optimization run and its lifecycle record.
type Job struct {
	ID  string
	Req Request

	// Trace collects the job's structured search trace, bounded by
	// Config.RecorderEvents; the SSE endpoint streams it incrementally
	// via Tracer.Since. Finalization releases its events into the
	// flight recorder, after which it only counts them. Replayed
	// (journal-recovered) jobs carry an empty tracer.
	Trace *obs.Tracer

	// runBase is the scheduler-owned parent of the job's run context
	// (cancelled individually by Cancel, collectively at the drain
	// grace deadline); the per-run deadline is layered on top of it at
	// execution time. Set once at admission, before the job is
	// published; nil on journal-replayed jobs.
	runBase context.Context

	mu      sync.Mutex
	state   State
	outcome *Outcome
	errMsg  string
	// claimed marks a job whose terminal transition one finalizer has
	// reserved (see claim); it can no longer start running.
	claimed bool

	// cancel cancels the job's run context; safe to call at any time,
	// in any state, more than once. Set before the job is published.
	cancel context.CancelFunc
	// wantCancel distinguishes an explicit client cancellation (DELETE,
	// SSE disconnect) from a drain or deadline when ctx.Err() is
	// context.Canceled.
	wantCancel bool

	done chan struct{}
}

func newJob(id string, req Request, traceLimit int) *Job {
	return &Job{ID: id, Req: req, Trace: obs.NewJobTracer(id, traceLimit), state: StateQueued, done: make(chan struct{})}
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Snapshot returns the job's externally visible status.
func (j *Job) Snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:     j.ID,
		State:  j.state,
		Result: j.outcome,
		Error:  j.errMsg,
		Events: j.Trace.Len(),
	}
}

// Cancel requests cancellation of the job's run.
func (j *Job) Cancel() {
	j.mu.Lock()
	j.wantCancel = true
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// setCancel installs the run-context cancel function at admission.
func (j *Job) setCancel(cancel context.CancelFunc) {
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
}

// release cancels the job's run context without marking a client
// cancellation — called after finalization so finished jobs detach
// from the scheduler's root context instead of accumulating there for
// the daemon's lifetime.
func (j *Job) release() {
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// setRunning moves queued -> running and returns the request to run;
// false if the job was claimed or finalized (canceled) while still
// queued. The run works on this copy, because a cancellation that
// races the start can finalize the job, which clears Req.Source.
func (j *Job) setRunning() (Request, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued || j.claimed {
		return Request{}, false
	}
	j.state = StateRunning
	return j.Req, true
}

// canceledByClient reports whether Cancel was explicitly requested, as
// opposed to a deadline or drain cancelling the run context.
func (j *Job) canceledByClient() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.wantCancel
}

// claim reserves the job's terminal transition for one caller: true
// exactly once, and never for a terminal job (e.g. a cancellation
// racing a completed run loses). The job stays non-terminal until
// finalize, so the claimer can account for it first.
func (j *Job) claim() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.claimed || j.state.Terminal() {
		return false
	}
	j.claimed = true
	return true
}

// finalize moves the job to a terminal state exactly once; extra calls
// are ignored (e.g. a duplicate terminal record in the journal). It
// drops the request's inline SOC source, which the journal keeps: a
// finished job holds only its status.
func (j *Job) finalize(state State, outcome *Outcome, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state, j.outcome, j.errMsg = state, outcome, errMsg
	j.Req.Source = ""
	close(j.done)
	return true
}

// Status is the JSON view of a job served by GET /v1/jobs/{id}.
type Status struct {
	ID     string   `json:"id"`
	State  State    `json:"state"`
	Result *Outcome `json:"result,omitempty"`
	Error  string   `json:"error,omitempty"`
	Events int      `json:"traceEvents"`
}

// run executes the optimization pipeline for the job. It is the moral
// equivalent of tamopt's run(): generate patterns, build groups,
// optimize through core.Solve, assemble the Outcome. The request holds
// the values Submit validated and clamped (workers, budget). The error return is non-nil only when
// nothing usable was produced; interruption mid-search yields a partial
// Outcome and a nil error, exactly like the facade.
func (j *Job) run(ctx context.Context, req Request, hooks bool, persist *core.CacheFile) (*Outcome, error) {
	if hooks && req.Chaos != nil {
		if req.Chaos.SleepMS > 0 {
			select {
			case <-time.After(time.Duration(req.Chaos.SleepMS) * time.Millisecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if req.Chaos.Panic {
			panic("chaos: injected job panic")
		}
	}

	s, err := req.loadSOC()
	if err != nil {
		return nil, err
	}

	out := &Outcome{}
	span := obs.Span(j.Trace, "pattern generation")
	patterns, cut, err := sifault.GenerateCtx(ctx, s, sifault.GenConfig{N: req.Nr, Seed: req.Seed})
	if err != nil {
		return nil, err
	}
	span.End(0, int64(len(patterns)))
	out.Patterns = len(patterns)
	if cut {
		out.Partial = true
		out.Reason = fmt.Sprintf("pattern generation stopped at %d of %d patterns", len(patterns), req.Nr)
		out.Cause = core.CauseOf(ctx.Err()).Label()
	}

	grouping, err := core.BuildGroupsCtx(ctx, s, patterns, core.GroupingOptions{Parts: req.Parts, Seed: req.Seed, Trace: j.Trace, CompactWorkers: req.Workers})
	if err != nil {
		return nil, err
	}
	out.Groups = len(grouping.Groups)
	if grouping.Partial && !out.Partial {
		out.Partial, out.Reason = true, grouping.Reason
		out.Cause = core.CauseOf(ctx.Err()).Label()
	}

	res, err := core.Solve(ctx,
		core.Problem{SOC: s, Wmax: req.Wmax, Groups: grouping.Groups, Model: sischedule.DefaultModel()},
		core.Options{
			Method: core.Method(req.Algo), Kicks: req.Kicks, Restarts: req.Restarts, Seed: req.Seed,
			ParallelConfig: core.ParallelConfig{Workers: req.Workers, MaxEvals: req.MaxEvals, Trace: j.Trace, Persist: persist},
		})
	if err != nil {
		return nil, err
	}

	out.TimeIn = res.Breakdown.TimeIn
	out.TimeSI = res.Breakdown.TimeSI
	out.TimeSOC = res.Breakdown.TimeSOC
	out.Rails = len(res.Architecture.Rails)
	out.Evals = res.Metrics.Counter("evals")
	if res.Partial && !out.Partial {
		out.Partial, out.Reason = true, res.Reason
		if out.Cause = res.Cause.Label(); out.Cause == "" {
			out.Cause = core.CauseOf(ctx.Err()).Label()
		}
	}
	return out, nil
}

// loadSOC resolves the request's design: the inline source when set,
// otherwise the embedded benchmark.
func (r *Request) loadSOC() (*soc.SOC, error) {
	if r.Source != "" {
		return soc.Parse(strings.NewReader(r.Source))
	}
	return soc.LoadBenchmark(r.SOC)
}
