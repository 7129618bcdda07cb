package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"sitam/internal/soc"
)

func TestMotivationMatchesPaper(t *testing.T) {
	m := DefaultMotivation()
	if m.Victims != 640 {
		t.Errorf("Victims = %d, want 640", m.Victims)
	}
	if m.MAPairs != 3840 {
		t.Errorf("MAPairs = %d, want 3840", m.MAPairs)
	}
	if m.ReducedMTPairs != 163840 {
		t.Errorf("ReducedMTPairs = %d, want 163840", m.ReducedMTPairs)
	}
	if m.SerialMACycles < 1_000_000 {
		t.Errorf("MA serial ExTest %d not in the millions", m.SerialMACycles)
	}
	if m.SerialMTCycles < 40*m.SerialMACycles {
		t.Errorf("MT %d not ~two orders above MA %d", m.SerialMTCycles, m.SerialMACycles)
	}
	out := m.Format()
	for _, want := range []string{"640", "3840", "163840"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestRunTableSmall(t *testing.T) {
	s := soc.MustLoadBenchmark("p34392")
	var progress bytes.Buffer
	cfg := TableConfig{
		Widths:    []int{8, 16},
		Nr:        []int{2000},
		Groupings: []int{1, 2},
		Seed:      1,
		Progress:  &progress,
	}
	tbl, err := RunTableCtx(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(tbl.Cells))
	}
	for _, c := range tbl.Cells {
		if c.T8 <= 0 || c.Tmin <= 0 {
			t.Errorf("cell W=%d has non-positive times: %+v", c.Wmax, c)
		}
		if len(c.Tg) != 2 {
			t.Errorf("cell W=%d has %d Tg entries", c.Wmax, len(c.Tg))
		}
		if c.Tmin > c.Tg[0] || c.Tmin > c.Tg[1] {
			t.Errorf("Tmin %d above a Tg value %v", c.Tmin, c.Tg)
		}
		if c.DeltaTg() < 0 {
			t.Errorf("ΔT_g negative: %v", c.DeltaTg())
		}
	}
	// Wider TAM must help substantially on this SOC.
	if tbl.Cells[1].Tmin >= tbl.Cells[0].Tmin {
		t.Errorf("W=16 Tmin %d not below W=8 Tmin %d", tbl.Cells[1].Tmin, tbl.Cells[0].Tmin)
	}
	if stats := tbl.CompactionStats[2000][1]; stats.Compacted == 0 || stats.Original != 2000 {
		t.Errorf("compaction stats wrong: %+v", stats)
	}
	if progress.Len() == 0 {
		t.Error("no progress output")
	}

	text := tbl.Format()
	for _, want := range []string{"p34392", "N_r = 2000", "T_[8]", "ΔT_g"} {
		if !strings.Contains(text, want) {
			t.Errorf("Format missing %q", want)
		}
	}
	md := tbl.Markdown()
	if !strings.Contains(md, "| Wmax |") || !strings.Contains(md, "#### p34392") {
		t.Errorf("Markdown malformed:\n%s", md)
	}
}

func TestCellDeltas(t *testing.T) {
	c := Cell{T8: 200, Tg: []int64{150, 120}, Tmin: 120}
	if got := c.DeltaT8(); got != 40 {
		t.Errorf("DeltaT8 = %v, want 40", got)
	}
	if got := c.DeltaTg(); got != 20 {
		t.Errorf("DeltaTg = %v, want 20", got)
	}
	var zero Cell
	if zero.DeltaT8() != 0 || zero.DeltaTg() != 0 {
		t.Error("zero cell deltas should be 0")
	}
}

func TestRunAblationsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	var buf bytes.Buffer
	if err := RunAblations(context.Background(), &buf, 1, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"[1]", "[2]", "[3]", "[4]", "[5]", "greedy", "DSATUR"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation report missing %q", want)
		}
	}
}
