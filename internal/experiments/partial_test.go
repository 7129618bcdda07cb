package experiments_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"sitam"
	"sitam/internal/core"
	"sitam/internal/experiments"
	"sitam/internal/soc"
)

// cancelWriter is a Progress writer that cancels the sweep's context
// when it writes the k-th "T_soc=" line, or the first line of all when
// k is 0, and counts the cell lines written.
type cancelWriter struct {
	k, tsoc, cells int
	cancelled      bool
	cancel         context.CancelFunc
}

func (w *cancelWriter) Write(p []byte) (int, error) {
	line := string(p)
	if strings.Contains(line, "T_soc=") {
		w.tsoc++
	}
	if strings.Contains(line, "T_[8]=") {
		w.cells++
	}
	if !w.cancelled && w.tsoc >= w.k {
		w.cancelled = true
		w.cancel()
	}
	return len(p), nil
}

// panicWriter is a Progress writer that panics on every write.
type panicWriter struct{}

func (panicWriter) Write([]byte) (int, error) { panic("progress writer failed") }

// TestRunTablePartial drives the sweep's anytime and failure paths at
// one, two and eight workers. A sweep cancelled from its Progress
// writer returns the table-order prefix of the uncancelled run's
// cells, one per cell line written, marked Partial whenever a cell is
// missing; cancelled on its first line it returns the context's error
// and no table. A grouping count above the core count returns the
// grouping error, and a panicking Progress writer makes the facade
// return ErrInternal: a failing or panicking task still releases the
// tasks that wait on it.
func TestRunTablePartial(t *testing.T) {
	s := soc.MustLoadBenchmark("p34392")
	base := experiments.TableConfig{Widths: []int{8, 16, 24}, Nr: []int{1000, 2000}, Groupings: []int{1, 2}, Seed: 2}
	full, err := experiments.RunTableCtx(context.Background(), s, base)
	if err != nil || full.Partial || len(full.Cells) != 6 {
		t.Fatalf("uncancelled sweep: %v (%+v)", err, full)
	}
	for _, workers := range []int{1, 2, 8} {
		for _, k := range []int{0, 1, 2, 3, 4, 7, 12} {
			name := fmt.Sprintf("workers=%d/k=%d", workers, k)
			ctx, cancel := context.WithCancel(context.Background())
			w := &cancelWriter{k: k, cancel: cancel}
			cfg := base
			cfg.Progress, cfg.Parallel = w, core.ParallelConfig{Workers: workers}
			tbl, err := experiments.RunTableCtx(ctx, s, cfg)
			cancel()
			if k == 0 && (err == nil || tbl != nil) {
				t.Errorf("%s: cancelled on the first line, got (%v, %v), want the context's error", name, tbl, err)
			}
			if err != nil {
				if !errors.Is(err, context.Canceled) || tbl != nil || w.cells != 0 {
					t.Errorf("%s: error %v with table %v after %d cell lines", name, err, tbl, w.cells)
				}
				continue
			}
			if len(tbl.Cells) != w.cells {
				t.Errorf("%s: %d cells, %d cell lines written", name, len(tbl.Cells), w.cells)
			}
			if !reflect.DeepEqual(tbl.Cells, full.Cells[:len(tbl.Cells)]) {
				t.Errorf("%s: cells are not a prefix of the uncancelled run's:\n%+v", name, tbl.Cells)
			}
			if missing := len(tbl.Cells) < len(full.Cells); missing && (!tbl.Partial || tbl.Reason == "") {
				t.Errorf("%s: %d of %d cells, Partial %v, Reason %q", name, len(tbl.Cells), len(full.Cells), tbl.Partial, tbl.Reason)
			}
		}

		cfg := base
		cfg.Groupings = []int{1, 99}
		cfg.Parallel = core.ParallelConfig{Workers: workers}
		if tbl, err := experiments.RunTableCtx(context.Background(), s, cfg); err == nil || !strings.Contains(err.Error(), "exceeds core count") {
			t.Errorf("workers=%d: g=99 returned (%v, %v), want the grouping error", workers, tbl, err)
		}

		cfg = base
		cfg.Progress, cfg.Parallel = panicWriter{}, core.ParallelConfig{Workers: workers}
		errc := make(chan error, 1)
		go func() {
			_, err := sitam.RunTableCtx(context.Background(), s, cfg)
			errc <- err
		}()
		select {
		case err := <-errc:
			if !errors.Is(err, sitam.ErrInternal) {
				t.Errorf("workers=%d: panicking Progress writer returned %v, want ErrInternal", workers, err)
			}
		case <-time.After(time.Minute):
			t.Fatalf("workers=%d: the sweep hung after its Progress writer panicked", workers)
		}
	}
}
