package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sitam/internal/sischedule"
	"sitam/internal/tam"
	"sitam/internal/wrapper"
)

// freshRails builds the trivial valid architecture for smallSOC: one
// rail per core, width w each.
func freshRails(w int) *tam.Architecture {
	s := smallSOC()
	tt, err := wrapper.NewTimeTable(s, 16)
	if err != nil {
		panic(err)
	}
	a := tam.New(s, tt)
	for _, c := range s.Cores() {
		a.Rails = append(a.Rails, &tam.Rail{Cores: []int{c.ID}, Width: w})
	}
	return a
}

// mutateArch applies one random validity-preserving perturbation
// through the tam mutation API: moving a core, widening or narrowing a
// rail, or carving a core out into a new single-wire rail.
func mutateArch(a *tam.Architecture, rng *rand.Rand) {
	switch rng.Intn(4) {
	case 0: // move a core between rails
		from := rng.Intn(len(a.Rails))
		if len(a.Rails[from].Cores) < 2 || len(a.Rails) < 2 {
			return
		}
		id := a.Rails[from].Cores[rng.Intn(len(a.Rails[from].Cores))]
		to := rng.Intn(len(a.Rails) - 1)
		if to >= from {
			to++
		}
		a.MoveCore(from, to, id)
	case 1: // widen (within the width range the time table covers)
		if i := rng.Intn(len(a.Rails)); a.Rails[i].Width < 12 {
			a.SetWidth(i, a.Rails[i].Width+1)
		}
	case 2: // narrow
		i := rng.Intn(len(a.Rails))
		if a.Rails[i].Width > 1 {
			a.SetWidth(i, a.Rails[i].Width-1)
		}
	case 3: // carve a core into a new rail, keeping the source width
		from := rng.Intn(len(a.Rails))
		if len(a.Rails[from].Cores) < 2 {
			return
		}
		id := a.Rails[from].Cores[rng.Intn(len(a.Rails[from].Cores))]
		a.CarveCore(from, id)
		a.SetWidth(from, a.Rails[from].Width+1) // undo CarveCore's wire shrink
	}
}

// checkCachedEqualsFresh evaluates a with both the cached and a fresh
// evaluator and requires identical objectives and identical per-rail
// TimeIn/TimeSI bookkeeping (the side effects a cache hit restores).
func checkCachedEqualsFresh(t *testing.T, cached *CachedEvaluator, fresh Evaluator, a *tam.Architecture) {
	t.Helper()
	if err := cachedMatchesFresh(cached, fresh, a); err != nil {
		t.Fatal(err)
	}
}

// cachedMatchesFresh is checkCachedEqualsFresh for any goroutine: it
// returns the mismatch instead of failing the test.
func cachedMatchesFresh(cached *CachedEvaluator, fresh Evaluator, a *tam.Architecture) error {
	b := a.Clone()
	gotObj, gotErr := cached.Evaluate(a)
	wantObj, wantErr := fresh.Evaluate(b)
	if (gotErr != nil) != (wantErr != nil) {
		return fmt.Errorf("cached err = %v, fresh err = %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if gotObj != wantObj {
		return fmt.Errorf("cached obj = %d, fresh obj = %d\narch:\n%s", gotObj, wantObj, a)
	}
	for i := range a.Rails {
		if a.Rails[i].TimeIn != b.Rails[i].TimeIn || a.Rails[i].TimeSI != b.Rails[i].TimeSI {
			return fmt.Errorf("rail %d bookkeeping: cached (in=%d, si=%d), fresh (in=%d, si=%d)",
				i, a.Rails[i].TimeIn, a.Rails[i].TimeSI, b.Rails[i].TimeIn, b.Rails[i].TimeSI)
		}
	}
	return nil
}

// FuzzEvalCache drives a randomized walk over architecture space and
// checks after every step that the memoized evaluator is extensionally
// equal to a fresh one — same objective, same restored bookkeeping —
// under a deliberately tiny capacity so epoch evictions are exercised
// constantly.
func FuzzEvalCache(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(2))
	f.Add(int64(42), uint8(60), uint8(1))
	f.Add(int64(-7), uint8(100), uint8(8))
	f.Add(int64(999), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, steps, capSel uint8) {
		groups := smallGroups()
		m := sischedule.DefaultModel()
		capacity := []int{1, 4, 64, DefaultCacheSize}[int(capSel)%4]
		cached := NewCachedEvaluator(&SIEvaluator{Groups: groups, Model: m}, capacity)
		fresh := &SIEvaluator{Groups: groups, Model: m}
		rng := rand.New(rand.NewSource(seed))
		a := freshRails(1 + rng.Intn(4))
		for i := 0; i < int(steps); i++ {
			mutateArch(a, rng)
			// Evaluate twice: the second call must hit (same epoch,
			// capacity permitting) and still agree with fresh.
			checkCachedEqualsFresh(t, cached, fresh, a)
			checkCachedEqualsFresh(t, cached, fresh, a)
		}
		st := cached.Stats()
		if st.Entries > capacity {
			t.Fatalf("cache holds %d entries, capacity %d", st.Entries, capacity)
		}
		// Each loop iteration issues exactly two cached lookups.
		if st.Hits+st.Misses != 2*int64(steps) {
			t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, 2*int64(steps))
		}
	})
}

// TestCachePermutationInvariance pins the keying argument: permuting
// the rail order of an architecture must hit the same cache entry and
// restore the right per-rail bookkeeping for the permuted order.
func TestCachePermutationInvariance(t *testing.T) {
	groups := smallGroups()
	m := sischedule.DefaultModel()
	cached := NewCachedEvaluator(&SIEvaluator{Groups: groups, Model: m}, 0)
	fresh := &SIEvaluator{Groups: groups, Model: m}
	a := freshRails(2)
	a.SetWidth(0, 3) // make rails distinguishable
	checkCachedEqualsFresh(t, cached, fresh, a)
	perm := a.Clone()
	r := perm.Rails
	perm.Rails = []*tam.Rail{r[3], r[1], r[4], r[0], r[2]}
	for i := range perm.Rails {
		// Zero the bookkeeping and mark the rails stale so the hit must
		// rebuild both fields (TimeIn via the keying refresh, TimeSI
		// from the entry).
		perm.Rails[i].TimeIn, perm.Rails[i].TimeSI = 0, 0
		perm.MarkDirty(i)
	}
	checkCachedEqualsFresh(t, cached, fresh, perm)
	st := cached.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("permuted rail order: hits=%d misses=%d, want 1 hit 1 miss", st.Hits, st.Misses)
	}
}

// TestCacheEviction checks the epoch-flush policy: at capacity the map
// is dropped, the eviction counter advances, and results stay correct.
func TestCacheEviction(t *testing.T) {
	cached := NewCachedEvaluator(InTestEvaluator{}, 2)
	fresh := InTestEvaluator{}
	for w := 1; w <= 6; w++ {
		checkCachedEqualsFresh(t, cached, fresh, freshRails(w))
	}
	st := cached.Stats()
	if st.Evictions == 0 {
		t.Errorf("no evictions after 6 distinct compositions at capacity 2: %+v", st)
	}
	if st.Entries > 2 {
		t.Errorf("entries %d exceed capacity 2", st.Entries)
	}
	cached.Reset()
	st = cached.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Evictions != 0 || st.Entries != 0 {
		t.Errorf("Reset left counters %+v", st)
	}
}

// TestCacheConcurrentEvaluations drives 8 goroutines, each through its
// own fork of one CachedEvaluator over one IncrementalSIEvaluator, as
// concurrent ILS restarts do: the forks share only the planner's memo
// and the cache file. Goroutine pairs walk the same random sequence, so
// memo lookups and file appends of one composition race, and every
// answer is checked against a fresh SIEvaluator: at a capacity small
// enough that the forks flush, at capacity 2, and with an attached
// cache file that a goroutine closes mid-run, which every fork's next
// failing append must detach.
func TestCacheConcurrentEvaluations(t *testing.T) {
	const goroutines, steps = 8, 150
	groups := smallGroups()
	m := sischedule.DefaultModel()
	for _, tc := range []struct {
		name     string
		capacity int // per fork; 0 forks the default capacity
		file     bool
	}{
		{"flushing", 16, false},
		{"capacity 2", 2, false},
		{"file closed mid-run", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCachedEvaluator(NewIncrementalSIEvaluator(groups, m, nil), tc.capacity*goroutines)
			var cf *CacheFile
			if tc.file {
				var err error
				if cf, err = OpenCacheFile(filepath.Join(t.TempDir(), "cache.sit")); err != nil {
					t.Fatal(err)
				}
				c.AttachPersistent(cf)
			}
			forks := make([]*CachedEvaluator, goroutines)
			for g := range forks {
				forks[g] = forkEvaluator(c, goroutines).(*CachedEvaluator)
			}
			var evals atomic.Int64
			var wg sync.WaitGroup
			wg.Add(goroutines)
			for g := 0; g < goroutines; g++ {
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g / 2)))
					a := freshRails(1 + g/2)
					fresh := &SIEvaluator{Groups: groups, Model: m}
					for i := 0; i < steps; i++ {
						mutateArch(a, rng)
						if err := cachedMatchesFresh(forks[g], fresh, a); err != nil {
							t.Errorf("goroutine %d step %d: %v", g, i, err)
							return
						}
						if evals.Add(1) == goroutines*steps/2 && cf != nil {
							if err := cf.Close(); err != nil {
								t.Errorf("closing the cache file: %v", err)
							}
						}
					}
				}(g)
			}
			wg.Wait()
			for g, f := range forks {
				st := f.Stats()
				if st.Hits+st.Misses != steps || st.Hits == 0 {
					t.Errorf("fork %d: %+v, want %d lookups, some of them hits", g, st, steps)
				}
				if other := forks[g^1].Stats(); st != other {
					t.Errorf("forks %d and %d walked one sequence: %+v and %+v", g, g^1, st, other)
				}
				if tc.capacity > 0 && (st.Entries > tc.capacity || st.Evictions == 0) {
					t.Errorf("fork %d at capacity %d: %+v", g, tc.capacity, st)
				}
			}
			for g, f := range forks {
				if cf == nil {
					break
				}
				// A fork detaches the closed file on its first failing
				// Append, and only a miss appends. Make one more: no
				// walk reaches a rail of width 13, since mutateArch
				// widens no rail past 12.
				if err := cachedMatchesFresh(f, &SIEvaluator{Groups: groups, Model: m}, freshRails(13)); err != nil {
					t.Fatal(err)
				}
				if f.persist != nil {
					t.Errorf("fork %d: the closed cache file is still attached", g)
				}
			}
			var lookups, misses int64
			for _, f := range forks {
				joinEvaluator(c, f)
				st := f.Stats()
				lookups, misses = lookups+st.Hits+st.Misses, misses+st.Misses
			}
			if st := c.Stats(); st.Hits+st.Misses != lookups || st.Misses != misses {
				t.Errorf("joined cache counts %+v, the forks looked up %d times and missed %d", st, lookups, misses)
			}
			if got := c.Inner.(*IncrementalSIEvaluator).Stats().Evals; got != misses {
				t.Errorf("joined evaluator counts %d evaluations, the forks missed %d times", got, misses)
			}
			if cf != nil && cf.Len() == 0 {
				t.Error("nothing was persisted before the file closed")
			}
		})
	}
}

// flakyEvaluator fails its first n calls, then delegates.
type flakyEvaluator struct {
	fails atomic.Int64
	inner Evaluator
}

func (f *flakyEvaluator) Evaluate(a *tam.Architecture) (int64, error) {
	if f.fails.Add(-1) >= 0 {
		return 0, errors.New("transient evaluator failure")
	}
	return f.inner.Evaluate(a)
}

// TestCacheDoesNotCacheErrors: a failed evaluation must not poison the
// cache — the next lookup of the same composition re-evaluates.
func TestCacheDoesNotCacheErrors(t *testing.T) {
	fl := &flakyEvaluator{inner: InTestEvaluator{}}
	fl.fails.Store(1)
	cached := NewCachedEvaluator(fl, 0)
	a := freshRails(2)
	if _, err := cached.Evaluate(a); err == nil {
		t.Fatal("first Evaluate should fail")
	}
	obj, err := cached.Evaluate(a)
	if err != nil {
		t.Fatalf("second Evaluate: %v", err)
	}
	want, _ := InTestEvaluator{}.Evaluate(freshRails(2))
	if obj != want {
		t.Fatalf("obj = %d, want %d", obj, want)
	}
}

// atomicCountdown is a race-safe countdownCtx for parallel runs: Err
// flips to DeadlineExceeded after n polls from any goroutine.
type atomicCountdown struct {
	context.Context
	n atomic.Int64
}

func newAtomicCountdown(n int) *atomicCountdown {
	c := &atomicCountdown{Context: context.Background()}
	c.n.Store(int64(n))
	return c
}

func (c *atomicCountdown) Err() error {
	if c.n.Add(-1) < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestParallelCancellationNoLeak cancels optimizations configured with
// eight workers at many points mid-flight and checks the anytime
// contract holds and no goroutines outlive the call.
func TestParallelCancellationNoLeak(t *testing.T) {
	s := smallSOC()
	groups := smallGroups()
	m := sischedule.DefaultModel()
	before := runtime.NumGoroutine()
	for n := 0; n < 120; n += 7 {
		ctx := newAtomicCountdown(n)
		res, err := TAMOptimizationWith(ctx, s, 12, groups, m, ParallelConfig{Workers: 8})
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("n=%d: unexpected error %v", n, err)
			}
			continue
		}
		if res.Architecture == nil {
			t.Fatalf("n=%d: nil architecture with nil error", n)
		}
		if err := res.Architecture.Validate(); err != nil {
			t.Fatalf("n=%d: invalid partial architecture: %v", n, err)
		}
	}
	// Goroutines are scoped to each call; give the scheduler a moment
	// and require the goroutine count to settle back.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= before {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, g)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestParallelForPanicPropagation: a panic in any candidate must
// surface on the calling goroutine — and the lowest candidate index
// wins, matching the serial panic surface.
func TestParallelForPanicPropagation(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if r != "boom-3" {
			t.Fatalf("propagated %v, want the lowest-index panic boom-3", r)
		}
	}()
	ParallelFor(4, 16, func(i int) {
		if i >= 3 && i%2 == 1 {
			panic("boom-" + string(rune('0'+i%10)))
		}
	})
}
