package sitam

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"sitam/internal/report"
	"sitam/internal/serve"
)

// TestFrontEndsAgree is the cross-front-end differential: each Method
// solves one fixture through the facade, tamopt -json and a daemon
// job, and all three report the same T_in, T_si, T_soc and rail count.
// The facade and the job also report the same evaluation count, pattern
// count and group count (tamopt's JSON carries none of them).
func TestFrontEndsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs tamopt")
	}
	const (
		socName = "d695"
		nr      = 1500
		parts   = 2
		wmax    = 12
		seed    = 1
		kicks   = 3
		restart = 2
	)
	s, err := LoadBenchmark(socName)
	if err != nil {
		t.Fatal(err)
	}
	patterns, err := GeneratePatterns(s, GenConfig{N: nr, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := BuildGroups(s, patterns, GroupingOptions{Parts: parts, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := serve.NewScheduler(serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		sched.Drain(ctx)
	})

	type outcome struct {
		TimeIn, TimeSI, TimeSOC int64
		Rails                   int
	}
	for _, m := range []Method{MethodSI, MethodBaseline, MethodILS} {
		res, err := Solve(context.Background(),
			Problem{SOC: s, Wmax: wmax, Groups: gr.Groups, Model: DefaultModel()},
			Options{Method: m, Kicks: kicks, Restarts: restart, Seed: seed})
		if err != nil {
			t.Fatalf("%s: Solve: %v", m, err)
		}
		facade := outcome{res.Breakdown.TimeIn, res.Breakdown.TimeSI, res.Breakdown.TimeSOC, len(res.Architecture.Rails)}

		path := filepath.Join(t.TempDir(), "result.json")
		args := []string{"-soc", socName, "-w", strconv.Itoa(wmax), "-nr", strconv.Itoa(nr),
			"-g", strconv.Itoa(parts), "-seed", strconv.Itoa(seed), "-json", path}
		switch m {
		case MethodBaseline:
			args = append(args, "-baseline")
		case MethodILS:
			args = append(args, "-ils", strconv.Itoa(kicks), "-restarts", strconv.Itoa(restart))
		}
		runTool(t, "tamopt", args...)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc report.Document
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: tamopt -json: %v", m, err)
		}
		cli := outcome{doc.TimeIn, doc.TimeSI, doc.TimeSOC, len(doc.Rails)}

		job, err := sched.Submit(serve.Request{SOC: socName, Wmax: wmax, Nr: nr, Parts: parts, Seed: seed,
			Algo: string(m), Kicks: kicks, Restarts: restart})
		if err != nil {
			t.Fatalf("%s: Submit: %v", m, err)
		}
		select {
		case <-job.Done():
		case <-time.After(time.Minute):
			t.Fatalf("%s: daemon job stuck in state %s", m, job.State())
		}
		st := job.Snapshot()
		if st.State != serve.StateDone {
			t.Fatalf("%s: daemon job %s: %s", m, st.State, st.Error)
		}
		daemon := outcome{st.Result.TimeIn, st.Result.TimeSI, st.Result.TimeSOC, st.Result.Rails}

		if cli != facade || daemon != facade {
			t.Errorf("%s: front ends disagree:\nfacade %+v\ntamopt %+v\ndaemon %+v", m, facade, cli, daemon)
		}
		if evals := res.Metrics.Counter("evals"); st.Result.Evals != evals {
			t.Errorf("%s: daemon job spent %d evaluations, facade %d", m, st.Result.Evals, evals)
		}
		if st.Result.Patterns != nr || st.Result.Groups != len(gr.Groups) {
			t.Errorf("%s: daemon job reports %d patterns in %d groups, facade %d in %d",
				m, st.Result.Patterns, st.Result.Groups, nr, len(gr.Groups))
		}
	}
}
