package obs

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestJobTracerStampsEvents(t *testing.T) {
	tr := NewJobTracer("j000007", 0)
	sp := Span(tr, "compaction")
	sp.End(0, 3)
	// A pre-stamped event (e.g. a concatenated foreign recording) keeps
	// its own ID.
	tr.Emit(Event{Type: ILSKick, Kick: 1, Job: "j000001"})

	events := tr.Events()
	if len(events) != 3 {
		t.Fatalf("got %d events", len(events))
	}
	if events[0].Job != "j000007" || events[1].Job != "j000007" {
		t.Errorf("span events not stamped: %+v", events[:2])
	}
	if events[2].Job != "j000001" {
		t.Errorf("pre-stamped event overwritten: %+v", events[2])
	}
	// Drained Local buffers pick the ID up at collection time.
	l := NewLocal()
	l.Emit(Event{Type: MergeRejected, Phase: "merge"})
	Drain(tr, l)
	if got := tr.Events()[3]; got.Job != "j000007" {
		t.Errorf("drained event not stamped: %+v", got)
	}
}

func TestValidateJobSpans(t *testing.T) {
	// Balanced per job, interleaved: fine.
	ok := []Event{
		{Type: PhaseStart, Phase: "merge", Job: "a"},
		{Type: PhaseStart, Phase: "merge", Job: "b"},
		{Type: PhaseEnd, Phase: "merge", Job: "a"},
		{Type: PhaseEnd, Phase: "merge", Job: "b"},
	}
	if err := ValidateJobSpans(ok); err != nil {
		t.Errorf("balanced interleaved trace rejected: %v", err)
	}

	// Globally balanced but per-job unbalanced: job a opened the span,
	// job b closed it. ValidateSpans alone cannot see this.
	crossed := []Event{
		{Type: PhaseStart, Phase: "merge", Job: "a"},
		{Type: PhaseEnd, Phase: "merge", Job: "b"},
	}
	if err := ValidateSpans(crossed); err != nil {
		t.Fatalf("global span check unexpectedly failed: %v", err)
	}
	err := ValidateJobSpans(crossed)
	if err == nil || !strings.Contains(err.Error(), `job "a"`) {
		t.Errorf("ValidateJobSpans(crossed) = %v, want per-job error", err)
	}

	// The empty ID (CLI traces) is checked too.
	bare := []Event{{Type: PhaseEnd, Phase: "merge"}}
	if err := ValidateJobSpans(bare); err == nil {
		t.Error("unbalanced bare trace accepted")
	}
}

// TestJobTracerBound feeds bounded job tracers ten bounds past their
// bound, with phase spans in the elided middle: the live trace never
// holds more than the bound plus its phase events, the retained trace
// is the head (the first half of the bound), every phase event and the
// tail, in seq order, and Len counts every event. A trace that fits its
// bound is kept whole and contiguous.
func TestJobTracerBound(t *testing.T) {
	for _, limit := range []int{1, 2, 3, 64} {
		for _, n := range []int{limit, 11 * limit} {
			t.Run(fmt.Sprintf("%d/%d", limit, n), func(t *testing.T) {
				testJobTracerBound(t, limit, n)
			})
		}
	}
}

func testJobTracerBound(t *testing.T, limit, n int) {
	head, tail := limit/2, limit-limit/2
	tr := NewJobTracer("j1", limit)
	var want []uint64
	open, phases := false, 0
	for i := 0; i < n; i++ {
		ev := Event{Type: CandidateEvaluated, Phase: "merge", Cand: i}
		switch {
		case !open && i%5 == 1 && i < n-1:
			ev, open = Event{Type: PhaseStart, Phase: "merge"}, true
		case open && (i%5 == 3 || i == n-1):
			ev, open = Event{Type: PhaseEnd, Phase: "merge"}, false
		}
		tr.Emit(ev)
		if ev.Type != CandidateEvaluated {
			phases++
		}
		if got := len(tr.Events()); got > limit+phases {
			t.Fatalf("after %d events the live trace holds %d, over the bound %d plus %d phase events", i+1, got, limit, phases)
		}
		if n <= limit || i < head || i >= n-tail || ev.Type != CandidateEvaluated {
			want = append(want, uint64(i))
		}
	}
	checkSeqs := func(what string, got []Event, want []uint64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d events, want %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Seq != want[i] || got[i].Job != "j1" || (got[i].Type == CandidateEvaluated) != (got[i].Cand == int(got[i].Seq)) {
				t.Fatalf("%s: event %d = %+v, want seq %d", what, i, got[i], want[i])
			}
		}
	}
	if tr.Len() != n {
		t.Errorf("Len = %d, want %d", tr.Len(), n)
	}
	checkSeqs("Events", tr.Events(), want)
	for from := 0; from <= n+1; from++ {
		var rest []uint64
		for _, seq := range want {
			if seq >= uint64(from) {
				rest = append(rest, seq)
			}
		}
		checkSeqs(fmt.Sprintf("Since(%d)", from), tr.Since(from), rest)
	}

	events := tr.Release()
	checkSeqs("Release", events, want)
	if err := ValidateSpans(events); err != nil {
		t.Errorf("retained spans: %v", err)
	}
	if elided, err := ValidateRecording(events); err != nil || elided != n-len(want) {
		t.Errorf("ValidateRecording = %d, %v; want %d elided", elided, err, n-len(want))
	}
	if n <= limit {
		if err := ValidateTrace(events); err != nil {
			t.Errorf("trace within the bound: %v", err)
		}
	}
	tr.Emit(Event{Type: CandidateEvaluated})
	if tr.Len() != n || len(tr.Events()) != 0 || len(tr.Since(0)) != 0 {
		t.Errorf("after release: Len %d, %d events, %d since 0; want %d, 0, 0", tr.Len(), len(tr.Events()), len(tr.Since(0)), n)
	}
}

func TestValidateRecording(t *testing.T) {
	// Two jobs interleaved, each with a gap: 3 + 5 elided.
	ok := []Event{
		{Seq: 0, Type: ILSKick, Kick: 1, Job: "a"},
		{Seq: 0, Type: ILSKick, Kick: 1, Job: "b"},
		{Seq: 4, Type: ILSKick, Kick: 1, Job: "a"},
		{Seq: 6, Type: ILSKick, Kick: 1, Job: "b"},
	}
	if elided, err := ValidateRecording(ok); err != nil || elided != 8 {
		t.Errorf("ValidateRecording = %d, %v; want 8 elided", elided, err)
	}
	for name, bad := range map[string][]Event{
		"repeated seq": {{Seq: 3, Type: ILSKick, Kick: 1, Job: "a"}, {Seq: 3, Type: ILSKick, Kick: 1, Job: "a"}},
		"falling seq":  {{Seq: 3, Type: ILSKick, Kick: 1, Job: "a"}, {Seq: 2, Type: ILSKick, Kick: 1, Job: "a"}},
		"no job ID":    {{Seq: 0, Type: ILSKick, Kick: 1}},
		"bad event":    {{Seq: 0, Type: ILSKick, Job: "a"}},
	} {
		if _, err := ValidateRecording(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestJobTracerConcurrentRelease is the -race proof for a bounded job
// tracer: one goroutine emits directly, one through drained Local
// buffers, an SSE-style follower reads it with Since and a poller with
// Len, and the finishing Release races all four.
func TestJobTracerConcurrentRelease(t *testing.T) {
	const limit, perEmitter = 16, 2000
	tr := NewJobTracer("j1", limit)
	var wg sync.WaitGroup
	released := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < perEmitter; i++ {
			sp := Span(tr, "direct")
			tr.Emit(Event{Type: CandidateEvaluated, Phase: "direct", Cand: i})
			sp.End(int64(i+1), 1)
		}
	}()
	go func() {
		defer wg.Done()
		l := NewLocal()
		for i := 0; i < perEmitter; i++ {
			sp := Span(l, "drained")
			l.Emit(Event{Type: CandidateEvaluated, Phase: "drained", Cand: i})
			sp.End(0, 1)
			if i%10 == 9 {
				Drain(tr, l)
			}
		}
		Drain(tr, l)
	}()

	var readers sync.WaitGroup
	readers.Add(2)
	go func() { // follower
		defer readers.Done()
		next := 0
		for {
			select {
			case <-released:
				if rest := tr.Since(next); len(rest) != 0 {
					t.Errorf("follower read %d events after the release", len(rest))
				}
				return
			default:
			}
			for _, ev := range tr.Since(next) {
				if int(ev.Seq) < next || ev.Job != "j1" {
					t.Errorf("follower at seq %d read %+v", next, ev)
					return
				}
				next = int(ev.Seq) + 1
			}
		}
	}()
	go func() { // Len poller
		defer readers.Done()
		last := 0
		for {
			select {
			case <-released:
				return
			default:
			}
			n := tr.Len()
			if n < last {
				t.Errorf("Len went from %d to %d", last, n)
				return
			}
			last = n
		}
	}()

	for tr.Len() < perEmitter {
		runtime.Gosched()
	}
	events := tr.Release()
	total := tr.Len()
	close(released)
	wg.Wait()
	readers.Wait()

	if tr.Len() != total || len(tr.Events()) != 0 {
		t.Errorf("after release: Len %d (want %d), %d events (want 0)", tr.Len(), total, len(tr.Events()))
	}
	elided, err := ValidateRecording(events)
	if err != nil {
		t.Fatal(err)
	}
	var phases int
	for _, ev := range events {
		if ev.Type == PhaseStart || ev.Type == PhaseEnd {
			phases++
		}
	}
	if elided != total-len(events) || len(events)-phases > limit {
		t.Errorf("released %d events (%d phase) of %d, %d elided; want at most %d besides phase events", len(events), phases, total, elided, limit)
	}
}
