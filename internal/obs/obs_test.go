package obs

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
)

func TestEventValidate(t *testing.T) {
	valid := []Event{
		{Type: PhaseStart, Phase: "bottom-up merge"},
		{Type: PhaseEnd, Phase: "ILS", Best: 42, N: 7, DurNS: 100},
		{Type: CandidateEvaluated, Phase: "start solution", Cand: 3, Obj: 99},
		{Type: MergeAccepted, Phase: "ILS local search", Cand: 1, Obj: 5, Best: 5, Rails: 3, N: 10},
		{Type: MergeRejected, Phase: "core reshuffle", Obj: 5, N: 2},
		{Type: ILSKick, Kick: 1, Seed: 7, Obj: 50, Best: 40},
		{Type: SIGroupScheduled, Group: "G1", Begin: 0, End: 10, Rails: 2, Rail: 1, N: 30},
		{Type: DeadlineHit, Phase: "ILS", Cause: "deadline"},
		{Type: DeadlineHit, Cause: "interrupted"},
		{Type: DeadlineHit, Cause: "budget"},
	}
	for i, ev := range valid {
		if err := ev.Validate(); err != nil {
			t.Errorf("valid event %d rejected: %v", i, err)
		}
	}
	invalid := []Event{
		{Type: "bogus"},
		{Type: PhaseStart},                    // missing phase
		{Type: CandidateEvaluated},            // missing phase
		{Type: ILSKick, Kick: 0},              // kick must be >= 1
		{Type: SIGroupScheduled, Rails: 1},    // missing group
		{Type: SIGroupScheduled, Group: "G1"}, // zero rails
		{Type: SIGroupScheduled, Group: "G1", Rails: 1, Begin: 5, End: 4},
		{Type: DeadlineHit, Cause: "tired"},     // unknown cause
		{Type: DeadlineHit},                     // empty cause
		{Type: PhaseEnd, Phase: "x", DurNS: -1}, // negative duration
	}
	for i, ev := range invalid {
		if err := ev.Validate(); err == nil {
			t.Errorf("invalid event %d accepted: %+v", i, ev)
		}
	}
}

func TestValidateTraceSeq(t *testing.T) {
	tr := NewTracer()
	tr.Emit(Event{Type: PhaseStart, Phase: "a"})
	tr.Emit(Event{Type: PhaseEnd, Phase: "a"})
	if err := ValidateTrace(tr.Events()); err != nil {
		t.Fatalf("collector trace invalid: %v", err)
	}
	broken := tr.Events()
	broken[1].Seq = 5
	if err := ValidateTrace(broken); err == nil {
		t.Error("gap in sequence numbers accepted")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := NewTracer()
	tr.Emit(Event{Type: PhaseStart, Phase: "partition"})
	tr.Emit(Event{Type: CandidateEvaluated, Phase: "start solution", Cand: 2, Obj: 123})
	tr.Emit(Event{Type: SIGroupScheduled, Group: "RES", Begin: 1, End: 9, Rails: 4, Rail: 2, N: 67})
	tr.Emit(Event{Type: PhaseEnd, Phase: "partition", Best: 77, N: 3, DurNS: 1500})

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Events()
	if len(got) != len(want) {
		t.Fatalf("round trip lost events: %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestReadJSONLStrict(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader(`{"seq":0,"type":"ils_kick","kick":1,"bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ReadJSONL(strings.NewReader("not json")); err == nil {
		t.Error("malformed line accepted")
	}
	for _, typ := range []string{"bogus", "cache_hit", "eval_incremental"} {
		in := "{\"seq\":0,\"type\":\"ils_kick\",\"kick\":1}\n\n{\"seq\":1,\"type\":\"" + typ + "\"}\n"
		evs, err := ReadJSONL(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "unknown event type") {
			t.Errorf("type %q: %d events, err %v; want an unknown-type error naming line 3", typ, len(evs), err)
		}
	}
	evs, err := ReadJSONL(strings.NewReader("\n{\"seq\":0,\"type\":\"ils_kick\",\"kick\":1}\n\n"))
	if err != nil || len(evs) != 1 {
		t.Errorf("blank lines not skipped: %v, %d events", err, len(evs))
	}
}

func TestLocalDrainOrder(t *testing.T) {
	tr := NewTracer()
	a, b := NewLocal(), NewLocal()
	b.Emit(Event{Type: MergeRejected})
	a.Emit(Event{Type: CandidateEvaluated})
	a.Emit(Event{Type: CandidateEvaluated})
	Drain(tr, a, nil, b)
	evs := tr.Events()
	wantTypes := []Type{CandidateEvaluated, CandidateEvaluated, MergeRejected}
	if len(evs) != len(wantTypes) {
		t.Fatalf("drained %d events, want %d", len(evs), len(wantTypes))
	}
	for i, ev := range evs {
		if ev.Type != wantTypes[i] || ev.Seq != uint64(i) {
			t.Errorf("event %d = %+v, want type %s seq %d", i, ev, wantTypes[i], i)
		}
	}
	// Buffers are emptied; draining again adds nothing.
	Drain(tr, a, b)
	if tr.Len() != 3 {
		t.Errorf("re-drain appended events: len = %d", tr.Len())
	}
	Drain(nil, a) // must not panic
}

func TestSpanNilSink(t *testing.T) {
	span := Span(nil, "quiet")
	span.End(1, 2) // must not panic

	tr := NewTracer()
	span = Span(tr, "loud")
	span.End(10, 20)
	evs := tr.Events()
	if len(evs) != 2 || evs[0].Type != PhaseStart || evs[1].Type != PhaseEnd {
		t.Fatalf("span emitted %+v", evs)
	}
	if evs[1].Best != 10 || evs[1].N != 20 || evs[1].DurNS < 0 {
		t.Errorf("phase_end = %+v", evs[1])
	}
}

func TestCanonicalZeroesDuration(t *testing.T) {
	ev := Event{Type: PhaseEnd, Phase: "x", DurNS: 999, Best: 5}
	c := ev.Canonical()
	if c.DurNS != 0 || c.Best != 5 {
		t.Errorf("Canonical() = %+v", c)
	}
}

func TestMetricsNilSafety(t *testing.T) {
	var c *Counter
	c.Add(5)
	c.Inc()
	if c.Load() != 0 {
		t.Error("nil counter loaded nonzero")
	}
	var g *Gauge
	g.Set(7)
	if g.Load() != 0 {
		t.Error("nil gauge loaded nonzero")
	}
	var h *Histogram
	h.Observe(3)
	if st := h.Stats(); st.Count != 0 || st.Sum != 0 || len(st.Buckets) != 0 {
		t.Error("nil histogram accumulated")
	}
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z").Observe(2)
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Errorf("nil registry snapshot = %+v", snap)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("evals").Inc()
				r.Histogram("obj").Observe(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap.Counter("evals") != 8000 {
		t.Errorf("evals = %d, want 8000", snap.Counter("evals"))
	}
	st := snap.Histograms["obj"]
	if st.Count != 8000 || st.Min != 0 || st.Max != 7999 {
		t.Errorf("histogram = %+v", st)
	}
}

func TestHistogramExtremaWithNegatives(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{5, -3, 0, 12, -3} {
		h.Observe(v)
	}
	st := h.Stats()
	if st.Min != -3 || st.Max != 12 || st.Count != 5 || st.Sum != 11 {
		t.Errorf("stats = %+v", st)
	}
	if st.Mean() != 11.0/5 {
		t.Errorf("mean = %v", st.Mean())
	}
}

func TestSnapshotFormatDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("w").Set(4)
	r.Histogram("h").Observe(10)
	s1, s2 := r.Snapshot().Format(), r.Snapshot().Format()
	if s1 != s2 {
		t.Error("Format is not deterministic")
	}
	lines := strings.Split(strings.TrimSpace(s1), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[0], "a") || !strings.HasPrefix(lines[1], "b") {
		t.Errorf("format = %q", s1)
	}
}

func TestCtxCause(t *testing.T) {
	if got := CtxCause(context.DeadlineExceeded); got != "deadline" {
		t.Errorf("deadline cause = %q", got)
	}
	if got := CtxCause(context.Canceled); got != "interrupted" {
		t.Errorf("cancel cause = %q", got)
	}
	if got := CtxCause(nil); got != "" {
		t.Errorf("nil cause = %q", got)
	}
}

func TestAggregatePhases(t *testing.T) {
	events := []Event{
		{Type: PhaseStart, Phase: "a"},
		{Type: PhaseEnd, Phase: "a", N: 10, DurNS: 100},
		{Type: PhaseStart, Phase: "b"},
		{Type: PhaseEnd, Phase: "b", N: 1, DurNS: 5},
		{Type: PhaseEnd, Phase: "a", N: 2, DurNS: 50},
	}
	got := AggregatePhases(events)
	if len(got) != 2 {
		t.Fatalf("%d phases, want 2", len(got))
	}
	if got[0] != (PhaseAgg{Phase: "a", Spans: 2, WallNS: 150, N: 12}) {
		t.Errorf("phase a = %+v", got[0])
	}
	if got[1] != (PhaseAgg{Phase: "b", Spans: 1, WallNS: 5, N: 1}) {
		t.Errorf("phase b = %+v", got[1])
	}
}

func TestCurve(t *testing.T) {
	events := []Event{
		{Seq: 0, Type: CandidateEvaluated, Phase: "x", Obj: 90},
		{Seq: 1, Type: MergeAccepted, Phase: "x", Best: 100},
		{Seq: 2, Type: CandidateEvaluated, Phase: "x", Obj: 80},
		{Seq: 3, Type: MergeAccepted, Phase: "x", Best: 80},
		{Seq: 4, Type: PhaseEnd, Phase: "x", Best: 80}, // no improvement: no point
		{Seq: 5, Type: ILSKick, Kick: 1, Best: 75},
	}
	got := Curve(events)
	want := []CurvePoint{{Seq: 1, Evals: 1, Best: 100}, {Seq: 3, Evals: 2, Best: 80}, {Seq: 5, Evals: 2, Best: 75}}
	if len(got) != len(want) {
		t.Fatalf("curve = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if pts := Curve([]Event{{Type: PhaseEnd, Phase: "y"}}); len(pts) != 0 {
		t.Errorf("objective-free trace produced curve %+v", pts)
	}
}
