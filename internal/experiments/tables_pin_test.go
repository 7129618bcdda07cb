package experiments

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"sitam/internal/core"
	"sitam/internal/soc"
)

// publishedRows parses the Table 2 and Table 3 rows of EXPERIMENTS.md
// into "<soc> nr=<N_r> | <row cells> |" lines, bold markup stripped.
func publishedRows(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	table := regexp.MustCompile(`^## Table \d — SOC (\w+)`)
	block := regexp.MustCompile(`^### N_r = ([\d ]+)$`)
	row := regexp.MustCompile(`^\| \d+ \| \d+ \|`)
	var rows []string
	socName, nr := "", ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case table.MatchString(line):
			socName = table.FindStringSubmatch(line)[1]
		case strings.HasPrefix(line, "## "):
			socName = ""
		case block.MatchString(line):
			nr = strings.ReplaceAll(block.FindStringSubmatch(line)[1], " ", "")
		case socName != "" && row.MatchString(line):
			rows = append(rows, fmt.Sprintf("%s nr=%s %s", socName, nr, strings.ReplaceAll(line, "**", "")))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestTablesMatchExperiments pins every Table 2/3 cell published in
// EXPERIMENTS.md: the full seed-1 sweep of both SOCs must reproduce
// each row byte for byte, serially and with two and eight sweep
// workers.
func TestTablesMatchExperiments(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("full Tables 2/3 sweep")
	}
	want := rowsOf(publishedRows(t))
	if len(want) != 32 {
		t.Fatalf("parsed %d rows from EXPERIMENTS.md, want 32", len(want))
	}
	for _, workers := range []int{1, 2, 8} {
		var got []string
		for _, name := range []string{"p34392", "p93791"} {
			tbl, err := RunTableCtx(context.Background(), soc.MustLoadBenchmark(name), TableConfig{
				Seed: 1, Parallel: core.ParallelConfig{Workers: workers},
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range tbl.Cells {
				var b strings.Builder
				fmt.Fprintf(&b, "%s nr=%d | %d | %d |", name, c.Nr, c.Wmax, c.T8)
				for _, tg := range c.Tg {
					fmt.Fprintf(&b, " %d |", tg)
				}
				fmt.Fprintf(&b, " %d | %.2f | %.2f |", c.Tmin, c.DeltaT8(), c.DeltaTg())
				got = append(got, b.String())
			}
		}
		got = rowsOf(got)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d: row %d\n got %s\nwant %s", workers, i, got[i], want[i])
			}
		}
	}
}

// rowsOf normalizes rows to single-space separation so a formatting
// difference in the document cannot mask or fake a number mismatch.
func rowsOf(rows []string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(strings.Fields(r), " ")
	}
	return out
}
