// Command e2ebench is the repository's end-to-end benchmark. It runs
// one of three workloads, each through an entry point users reach, in
// fresh child processes of itself:
//
//	paper-tables  experiments.RunTableCtx, as socbench calls it
//	ils-search    the sitam facade's OptimizeILSWith
//	daemon-jobs   serve.NewServer behind a loopback listener, as sitamd
//
// It checks every output against reference.json and prints the
// end-to-end metrics by name and unit, measured with tracing off. With
// -trace 1 a separate traced pass records a span around every call the
// benchmark makes into a layer, and the per-layer metrics are printed
// instead. README.md defines every metric.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash e2ebench/run.sh --workload paper-tables --seed 1 --seconds 25 --trace 0
//	bash e2ebench/run.sh --workload all --toy
//	bash e2ebench/run.sh -record        # rewrite reference.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any failed check exits 1.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

var workloads = []string{"paper-tables", "ils-search", "daemon-jobs"}

// deadline bounds one workload's run, children included.
const deadline = 170 * time.Second

// initialized is when this process had loaded and initialized the
// program's packages: main's package variables are set after every
// imported package's init.
var initialized = time.Now()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	toy      bool
	ref      string // reference file
	out      string // spans, reports and daemon state live here
	exe      string // this binary, re-run for every child
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var (
		o             options
		trace         int
		child, record = "", false
	)
	fs.StringVar(&o.workload, "workload", "all", "paper-tables, ils-search, daemon-jobs or all")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 25, "least time to measure; units of work repeat until it is reached")
	fs.IntVar(&trace, "trace", 0, "1 adds a traced pass and prints the per-layer metrics")
	fs.BoolVar(&o.toy, "toy", false, "toy-size inputs that finish in seconds")
	fs.StringVar(&o.ref, "ref", filepath.Join("e2ebench", "reference.json"), "reference file")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "e2ebench"), "directory for spans, reports and daemon state")
	fs.StringVar(&child, "child", "", "internal: run one unit of work described by this JSON spec")
	fs.BoolVar(&record, "record", false, "rewrite the reference file from the program's current outputs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if child != "" {
		return runChild(child, stdout)
	}
	o.trace = trace == 1
	var err error
	if o.exe, err = os.Executable(); err == nil {
		if o.ref, err = filepath.Abs(o.ref); err == nil {
			o.out, err = filepath.Abs(o.out)
		}
	}
	if err == nil {
		err = os.MkdirAll(o.out, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if record {
		if err := recordReference(&o); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: record:", err)
			return 1
		}
		return 0
	}
	names := workloads
	if o.workload != "all" {
		names = []string{o.workload}
	}
	code := 0
	for _, name := range names {
		rep, err := o.runWorkload(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", name, err)
			return 1
		}
		if err := rep.print(stdout, filepath.Join(o.out, name+".report.json")); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", name, err)
			return 1
		}
		if rep.Failed > 0 {
			code = 1
		}
	}
	return code
}

// spec tells a child process which unit of work to run.
type spec struct {
	Kind    string  `json:"kind"` // tables, ils, warm or daemon
	Seed    int64   `json:"seed"`
	Toy     bool    `json:"toy"`
	Traced  bool    `json:"traced"`
	Seconds float64 `json:"seconds"`
	Unit    int     `json:"unit"` // index of the unit in its run; paper-tables sweeps the next input seed
	Ref     string  `json:"ref"`
	Out     string  `json:"out"`
	Dir     string  `json:"dir,omitempty"` // daemon state directory
}

func spansPath(sp spec) string {
	return filepath.Join(sp.Out, sp.Kind+".spans.jsonl")
}

// unitResult is what a child reports: timings, outputs, the check's
// tally, and (traced) the per-layer metrics.
type unitResult struct {
	Walls     []float64          `json:"walls"`
	Setups    []float64          `json:"setups"`
	JobsMS    []float64          `json:"jobs_ms"`
	Cells     []tableCell        `json:"cells,omitempty"`
	ILS       []ilsOutcome       `json:"ils,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	LaneWall  float64            `json:"lane_wall_s,omitempty"` // traced wall the layer spans reconcile against
	Props     map[string]any     `json:"props,omitempty"`
	Started   time.Time          `json:"started"` // the child's initialized
	PeakRSS   float64            `json:"-"`
	StartS    float64            `json:"-"` // from spawning the child until Started
}

// maxFailureLines caps the failure messages carried and printed.
const maxFailureLines = 20

func (u *unitResult) fail(format string, a ...any) {
	u.Failed++
	if len(u.Failures) < maxFailureLines {
		u.Failures = append(u.Failures, fmt.Sprintf(format, a...))
	}
}

// reconcile stores the caller's own time between layer calls as
// experiments.self_s and the lane wall it is part of, averaged over
// the lanes that ran side by side.
func (u *unitResult) reconcile(tr *tracer, lane string, lanes int) {
	wall, self := tr.reconcile(lane)
	u.Layers["experiments.self_s"] = self / float64(lanes)
	u.LaneWall = wall / float64(lanes)
}

func runChild(specJSON string, stdout io.Writer) int {
	var sp spec
	if err := json.Unmarshal([]byte(specJSON), &sp); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench child:", err)
		return 2
	}
	ref, err := loadReference(sp.Ref)
	var res *unitResult
	if err == nil {
		switch sp.Kind {
		case "tables":
			res, err = runTables(sp, ref)
		case "ils":
			res, err = runILS(sp, ref)
		case "warm":
			res, err = runWarmup(sp, ref)
		case "daemon":
			res, err = runDaemon(sp, ref)
		default:
			err = fmt.Errorf("unknown child kind %q", sp.Kind)
		}
	}
	if err == nil {
		res.Started = initialized
		err = json.NewEncoder(stdout).Encode(res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench child %s: %v\n", sp.Kind, err)
		return 1
	}
	return 0
}

// spawn runs one child to completion and reads its result, its peak RSS
// and how long it took to start.
func (o *options) spawn(ctx context.Context, sp spec) (*unitResult, error) {
	sp.Seed, sp.Toy, sp.Ref, sp.Out = o.seed, o.toy, o.ref, o.out
	b, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, o.exe, "-child", string(b))
	// A child must not outlive a parent that is itself killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	// The child's Started carries only a wall-clock reading, so the
	// difference below is taken on the wall clock.
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", sp.Kind, err)
	}
	var res unitResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s child result: %w", sp.Kind, err)
	}
	res.PeakRSS = peakRSSMiB(cmd.ProcessState)
	res.StartS = res.Started.Sub(t0).Seconds()
	return &res, nil
}

// unitsFor is how many units of the first one's duration it takes to
// measure for at least seconds.
func unitsFor(seconds, first float64) int {
	n := int(math.Ceil(seconds / first))
	if n < 1 {
		return 1
	}
	return n
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (o *options) runWorkload(name string) (*report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	rep := &report{
		Workload: name, Seed: o.seed, Trace: o.trace, Size: size(o.toy),
		Env: environment(), Props: map[string]any{},
	}
	var (
		timed  []*unitResult
		traced *unitResult
		err    error
	)
	switch name {
	case "paper-tables":
		timed, traced, err = o.paperTables(ctx)
	case "ils-search":
		timed, traced, err = o.ilsSearch(ctx)
	case "daemon-jobs":
		timed, traced, err = o.daemonJobs(ctx, rep)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s or all)", name, strings.Join(workloads, ", "))
	}
	if err != nil {
		return nil, err
	}
	rep.summarize(timed)
	if traced != nil {
		rep.absorb(traced)
		rep.Layers = traced.Layers
		rep.Layers["trace.wall_s"] = traced.Walls[0]
		rep.Layers["trace.overhead_s"] = traced.Walls[0] - timed[0].Walls[0]
		rep.notef("reconcile: layer spans cover %.2f%% of the traced wall (bar 95%%)",
			100*(1-ratio(rep.Layers["experiments.self_s"], traced.LaneWall)))
		rep.check(rep.Layers)
		rep.notef("dropped: core.cachefile_open_s, core.cachefile_entries, core.cachefile_mb; " +
			"daemon-jobs runs without a persistent cache file, whose composition-only key returns wrong outcomes across jobs")
	}
	return rep, nil
}

// fill runs units 0, 1, ... in fresh children until, at the first
// unit's duration, they measure for at least o.seconds; with -trace 1 it
// runs unit 0 untraced and then traced instead.
func (o *options) fill(unit func(i int, traced bool) (*unitResult, error)) ([]*unitResult, *unitResult, error) {
	first, err := unit(0, false)
	if err != nil {
		return nil, nil, err
	}
	timed := []*unitResult{first}
	if o.trace {
		traced, err := unit(0, true)
		return timed, traced, err
	}
	for n := unitsFor(o.seconds, first.Walls[0]); len(timed) < n; {
		u, err := unit(len(timed), false)
		if err != nil {
			return nil, nil, err
		}
		timed = append(timed, u)
	}
	return timed, nil, nil
}

func (o *options) paperTables(ctx context.Context) ([]*unitResult, *unitResult, error) {
	timed, traced, err := o.fill(func(i int, traced bool) (*unitResult, error) {
		u, err := o.spawn(ctx, spec{Kind: "tables", Unit: i, Traced: traced})
		if err != nil {
			return nil, err
		}
		// A sweep's only set-up is starting its process; parsing the two
		// SOCs (under 1 ms) stays inside wall_s.
		u.Setups = []float64{u.StartS}
		return u, nil
	})
	if err != nil || traced == nil {
		return timed, traced, err
	}
	// The traced walk re-implements RunTableCtx's loop; its cells must
	// equal the untraced ones or the walk has drifted.
	want := timed[0].Cells
	traced.Attempted += len(want)
	for i := range want {
		if i >= len(traced.Cells) || !reflect.DeepEqual(traced.Cells[i], want[i]) {
			traced.fail("traced walk cell %d differs from RunTableCtx: %+v", i, want[i])
		}
	}
	return timed, traced, nil
}

func (o *options) ilsSearch(ctx context.Context) ([]*unitResult, *unitResult, error) {
	if !o.trace {
		u, err := o.spawn(ctx, spec{Kind: "ils", Seconds: o.seconds})
		return []*unitResult{u}, nil, err
	}
	u, err := o.spawn(ctx, spec{Kind: "ils"})
	if err != nil {
		return nil, nil, err
	}
	traced, err := o.spawn(ctx, spec{Kind: "ils", Traced: true})
	return []*unitResult{u}, traced, err
}

func (o *options) daemonJobs(ctx context.Context, rep *report) ([]*unitResult, *unitResult, error) {
	tmp := filepath.Join(o.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, nil, err
	}
	state, err := os.MkdirTemp(tmp, "daemon-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(state)
	warm, err := o.spawn(ctx, spec{Kind: "warm", Dir: state})
	if err != nil {
		return nil, nil, err
	}
	rep.absorb(warm)
	// Every batch restarts on its own copy of the warm state, since a
	// batch appends to the journal.
	return o.fill(func(_ int, traced bool) (*unitResult, error) {
		dir, err := os.MkdirTemp(tmp, "daemon-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if err := copyFiles(state, dir); err != nil {
			return nil, err
		}
		return o.spawn(ctx, spec{Kind: "daemon", Dir: dir, Traced: traced})
	})
}

func copyFiles(from, to string) error {
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// report is one workload's result, printed and saved as JSON.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Size      string             `json:"size"`
	Env       map[string]any     `json:"env"`
	Props     map[string]any     `json:"props"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Layers    map[string]float64 `json:"per_layer,omitempty"`
	Notes     []string           `json:"notes"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
}

func (r *report) notef(format string, a ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
}

func (r *report) absorb(u *unitResult) {
	r.Attempted += u.Attempted
	r.Failed += u.Failed
	for _, f := range u.Failures {
		if len(r.Failures) < maxFailureLines {
			r.Failures = append(r.Failures, f)
		}
	}
	for k, v := range u.Props {
		r.Props[k] = v
	}
}

// check turns a metric that could not be measured (NaN or infinite)
// into a failure, reported as 0.
func (r *report) check(m map[string]float64) {
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m[k] = 0
			r.Failed++
			r.Failures = append(r.Failures, k+" could not be measured")
		}
	}
}

// summarize computes the end-to-end metrics from the untraced units.
func (r *report) summarize(units []*unitResult) {
	var walls, setups, jobs, rss []float64
	for _, u := range units {
		r.absorb(u)
		walls = append(walls, u.Walls...)
		setups = append(setups, u.Setups...)
		jobs = append(jobs, u.JobsMS...)
		rss = append(rss, u.PeakRSS)
	}
	p95 := quantile(jobs, 0.95)
	beyond := 0
	for _, j := range jobs {
		if j > p95 {
			beyond++
		}
	}
	r.EndToEnd = map[string]float64{
		"wall_s":      median(walls),
		"setup_s":     median(setups),
		"peak_rss_mb": median(rss),
		"jobs_per_s":  float64(len(jobs)) / sum(walls),
		"job_p50_ms":  quantile(jobs, 0.5),
		"job_p95_ms":  p95,
	}
	r.notef("wall_s is the median of %d timed unit(s) in %d process(es); setup_s the median of %d set-ups",
		len(walls), len(units), len(setups))
	r.notef("job latencies: %d samples, %d beyond p95", len(jobs), beyond)
	r.check(r.EndToEnd)
}

// print writes the human-readable report, saves it as JSON at path,
// and ends with the one-line JSON result (correct, attempted, failed,
// metrics).
func (r *report) print(w io.Writer, path string) error {
	fmt.Fprintf(w, "e2ebench workload=%s seed=%d trace=%v size=%s\n", r.Workload, r.Seed, r.Trace, r.Size)
	fmt.Fprintf(w, "env: %s\n", kv(r.Env))
	fmt.Fprintf(w, "input: %s\n", kv(r.Props))
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%-14s %14.6g %s\n", d.Name, r.EndToEnd[d.Name], d.Unit)
	}
	fmt.Fprintf(w, "%-14s %14.6g ratio (%d failed of %d attempted)\n", "failed_frac", ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
	defs, values := endToEnd, r.EndToEnd
	if r.Trace {
		defs, values = perLayer, r.Layers
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.Name, r.Layers[d.Name], d.Unit)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAIL: %s\n", f)
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{values[d.Name], d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// kv renders a map as sorted key=value pairs.
func kv(m map[string]any) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		v := m[k]
		if f, ok := v.(float64); ok {
			v = strconv.FormatFloat(f, 'f', -1, 64) // counts decoded from JSON, without exponents
		}
		parts[i] = fmt.Sprintf("%s=%v", k, v)
	}
	return strings.Join(parts, " ")
}
