package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"sitam/internal/serve"
)

// The self-check runs every workload at toy size (d695, N_r 2000, one
// width, 20 daemon jobs). TestMain lets the test binary stand in for
// the benchmark binary: the parent under test re-runs os.Executable()
// with -child, exactly as the built command does.
func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runToy runs one workload at toy size and parses the last line.
func runToy(t *testing.T, workload string, trace int, ref string) (int, result) {
	t.Helper()
	var out bytes.Buffer
	code := run([]string{
		"-workload", workload, "-toy", "-seconds", "0", "-trace", strconv.Itoa(trace),
		"-ref", ref, "-out", t.TempDir(),
	}, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%d: last line is not the result: %v\n%s", workload, trace, err, out.String())
	}
	return code, res
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestToyEmitsEveryMetric(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	type def struct{ name, unit string }
	want := [2][]def{}
	for _, d := range bf.EndToEnd {
		want[0] = append(want[0], def{d.Name, d.Unit})
	}
	for _, d := range bf.PerLayer {
		want[1] = append(want[1], def{d.Name, d.Unit})
	}
	for trace, defs := range [2][]metricDef{endToEnd, perLayer} {
		if len(defs) != len(want[trace]) {
			t.Errorf("trace=%d: benchmark emits %d metrics, BENCHMARK.json lists %d", trace, len(defs), len(want[trace]))
		}
	}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			code, res := runToy(t, w, trace, "reference.json")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: exit %d, correct=%v, %d of %d failed", w, trace, code, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want[trace]) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w, trace, len(res.Metrics), len(want[trace]))
			}
			for _, d := range want[trace] {
				if !nameRE.MatchString(d.name) {
					t.Errorf("metric name %q does not match %s", d.name, nameRE)
				}
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%d: metric %s emitted as %+v (present %v), want unit %s", w, trace, d.name, m, ok, d.unit)
				}
			}
		}
	}
}

func TestGateFailsOnPerturbedReference(t *testing.T) {
	ref, err := loadReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	var cells []tableCell
	if err := ref.get("paper-tables/toy/1", &cells); err != nil {
		t.Fatal(err)
	}
	cells[0].T8++
	var ils []ilsOutcome
	if err := ref.get("ils-search/toy/1", &ils); err != nil {
		t.Fatal(err)
	}
	ils[0].TimeSOC++
	jobKey := "daemon-jobs/toy/" + requestKey(catalogue(daemonSizeFor(true))[0])
	var job serve.Outcome
	if err := ref.get(jobKey, &job); err != nil {
		t.Fatal(err)
	}
	job.TimeSOC++
	for key, v := range map[string]any{"paper-tables/toy/1": cells, "ils-search/toy/1": ils, jobKey: job} {
		if err := ref.put(key, v); err != nil {
			t.Fatal(err)
		}
	}
	perturbed := filepath.Join(t.TempDir(), "reference.json")
	if err := ref.write(perturbed); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		code, res := runToy(t, w, 0, perturbed)
		if code == 0 || res.Correct || res.Failed < 1 {
			t.Errorf("%s: perturbed reference passed: exit %d, correct=%v, %d failed", w, code, res.Correct, res.Failed)
		}
	}
}

// TestSeedOneIsExperimentsTables pins the recorded paper-tables
// reference of seed 1 to the Tables 2/3 published in EXPERIMENTS.md.
func TestSeedOneIsExperimentsTables(t *testing.T) {
	ref, err := loadReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	var cells []tableCell
	if err := ref.get("paper-tables/full/1", &cells); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join("..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	table := regexp.MustCompile(`^## Table \d — SOC (\w+)`)
	block := regexp.MustCompile(`^### N_r = ([\d ]+)$`)
	row := regexp.MustCompile(`^\| (\d+) \| (\d+) \| (\d+) \| (\d+) \| (\d+) \| (\d+) \| (\d+) \|`)
	var published []string
	socName, nr := "", ""
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := sc.Text()
		if m := table.FindStringSubmatch(line); m != nil {
			socName = m[1]
		} else if strings.HasPrefix(line, "## ") {
			socName = ""
		} else if m := block.FindStringSubmatch(line); m != nil {
			nr = strings.ReplaceAll(m[1], " ", "")
		} else if m := row.FindStringSubmatch(line); m != nil && socName != "" {
			published = append(published, fmt.Sprintf("%s nr=%s w=%s T8=%s Tg=[%s %s %s %s] Tmin=%s", socName, nr, m[1], m[2], m[3], m[4], m[5], m[6], m[7]))
		}
	}
	var recorded []string
	for _, c := range cells {
		recorded = append(recorded, fmt.Sprintf("%s nr=%d w=%d T8=%d Tg=%v Tmin=%d", c.SOC, c.Nr, c.Wmax, c.T8, c.Tg, c.Tmin))
	}
	if len(published) != 32 || strings.Join(published, "\n") != strings.Join(recorded, "\n") {
		t.Errorf("reference seed 1 differs from EXPERIMENTS.md:\npublished:\n%s\nrecorded:\n%s",
			strings.Join(published, "\n"), strings.Join(recorded, "\n"))
	}
}
