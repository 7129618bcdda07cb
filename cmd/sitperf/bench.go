package main

// Benchmark execution and output parsing. Bench suites run
// `go test -bench` with -count repetitions in one invocation (one
// binary build, N samples per benchmark); the serve suite runs the
// chaos harness once per repetition and reads the latency percentiles
// it writes to CHAOS_BENCH_OUT.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"time"
)

// benchLine matches one benchmark result line; the -\d+ suffix is the
// GOMAXPROCS decoration, stripped so names match the baseline entries.
var benchLine = regexp.MustCompile(`(?m)^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(\d+(?:\.\d+)?) ns/op`)

// measure runs a suite's workload dir-rooted at root and returns the
// per-benchmark samples (one per repetition).
func measure(s suite, iters int, verbose bool, root string) (map[string][]float64, error) {
	if s.serveLatency {
		return measureServeLatency(iters, verbose, root)
	}
	if s.lintSmoke {
		return measureLint(iters, verbose, root)
	}
	out := make(map[string][]float64)
	for _, r := range s.runs {
		args := []string{"test", "-run", "^$", "-bench", r.pattern,
			"-benchtime", r.benchtime, "-count", strconv.Itoa(iters), r.pkg}
		cmd := exec.Command("go", args...)
		cmd.Dir = root
		if verbose {
			fmt.Fprintf(os.Stderr, "sitperf: go %v\n", args)
		}
		raw, err := cmd.CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("go %v: %v\n%s", args, err, raw)
		}
		if verbose {
			os.Stderr.Write(raw)
		}
		matches := benchLine.FindAllStringSubmatch(string(raw), -1)
		if len(matches) == 0 {
			return nil, fmt.Errorf("go %v produced no benchmark results:\n%s", args, raw)
		}
		for _, m := range matches {
			ns, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				return nil, fmt.Errorf("parsing %q: %v", m[0], err)
			}
			out[m[1]] = append(out[m[1]], ns)
		}
	}
	return out, nil
}

// lintBudget is the hard wall-clock ceiling for one full-module sitlint
// run. A run type-checks every package and propagates facts in
// dependency order; if that ever crosses a minute, sitlint has become
// too expensive for the edit-lint loop and the suite fails outright,
// baseline or not.
const lintBudget = 60 * time.Second

// measureLint builds sitlint into a scratch dir and times iters
// full-module analyses, reported as Lint_FullModule
// wall nanoseconds. Build time is excluded: the smoke target is the
// analysis cost developers and CI pay per run, not the one-off compile.
func measureLint(iters int, verbose bool, root string) (map[string][]float64, error) {
	dir, err := os.MkdirTemp("", "sitperf-lint")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "sitlint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/sitlint")
	build.Dir = root
	if raw, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building sitlint: %v\n%s", err, raw)
	}
	out := make(map[string][]float64)
	for i := 0; i < iters; i++ {
		cmd := exec.Command(bin)
		cmd.Dir = root
		start := time.Now()
		raw, err := cmd.CombinedOutput()
		elapsed := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("lint run %d: sitlint: %v\n%s", i, err, raw)
		}
		if verbose {
			fmt.Fprintf(os.Stderr, "sitperf: lint run %d: %s\n", i, elapsed)
		}
		if elapsed > lintBudget {
			return nil, fmt.Errorf("lint run %d took %s, over the %s smoke budget", i, elapsed, lintBudget)
		}
		out["Lint_FullModule"] = append(out["Lint_FullModule"], float64(elapsed.Nanoseconds()))
	}
	return out, nil
}

// serveBench is the slice of the chaos result the sentinel compares.
type serveBench struct {
	Latency struct {
		Samples int     `json:"samples"`
		P50ms   float64 `json:"p50_ms"`
		P95ms   float64 `json:"p95_ms"`
		P99ms   float64 `json:"p99_ms"`
	} `json:"latency"`
}

// measureServeLatency runs the chaos harness iters times, each run
// writing its result to a throwaway CHAOS_BENCH_OUT (the committed
// BENCH_serve.json is never clobbered by a measurement run).
func measureServeLatency(iters int, verbose bool, root string) (map[string][]float64, error) {
	out := make(map[string][]float64)
	dir, err := os.MkdirTemp("", "sitperf-serve")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	for i := 0; i < iters; i++ {
		bench := filepath.Join(dir, fmt.Sprintf("serve-%d.json", i))
		cmd := exec.Command("go", "test", "-run", "TestChaos", "-count=1", "./internal/serve/chaostest")
		cmd.Dir = root
		cmd.Env = append(os.Environ(), "CHAOS_BENCH_OUT="+bench)
		raw, err := cmd.CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("chaos run %d: %v\n%s", i, err, raw)
		}
		if verbose {
			os.Stderr.Write(raw)
		}
		b, err := os.ReadFile(bench)
		if err != nil {
			return nil, fmt.Errorf("chaos run %d wrote no bench file: %v", i, err)
		}
		var doc serveBench
		if err := json.Unmarshal(b, &doc); err != nil {
			return nil, fmt.Errorf("chaos run %d: %v", i, err)
		}
		out["latency/p50_ms"] = append(out["latency/p50_ms"], doc.Latency.P50ms)
		out["latency/p95_ms"] = append(out["latency/p95_ms"], doc.Latency.P95ms)
		out["latency/p99_ms"] = append(out["latency/p99_ms"], doc.Latency.P99ms)
	}
	return out, nil
}
