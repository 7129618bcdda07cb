package sischedule

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"sitam/internal/soc"
	"sitam/internal/tam"
	"sitam/internal/wrapper"
)

// TestPlannerMemoConcurrentFlush looks up the cost profiles of more
// distinct rail compositions than the memo holds from 8 goroutines at
// once, so memo shards flush while other goroutines read them, and
// checks every profile against a fresh computation. Goroutine pairs
// draw the same compositions, so lookups and stores of one profile
// race.
func TestPlannerMemoConcurrentFlush(t *testing.T) {
	const goroutines, draws, wmax = 8, 20000, 64
	s := soc.MustLoadBenchmark("p93791")
	tt, err := wrapper.NewTimeTable(s, wmax)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for _, c := range s.Cores() {
		ids = append(ids, c.ID)
	}
	groups := []*Group{
		{Name: "G1", Cores: ids[:10], Patterns: 7},
		{Name: "G2", Cores: ids[5:20], Patterns: 11},
		{Name: "RES", Cores: ids, Patterns: 3},
	}
	p := NewPlanner(groups, DefaultModel(), nil)
	p.initOnce.Do(func() { p.buildMeta(s) })
	var before [len(p.memo)]*memoTable
	for i := range p.memo {
		before[i] = p.memo[i].Load()
	}
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g / 2)))
			sc, ref := p.scratch.Get().(*costScratch), p.scratch.Get().(*costScratch)
			sc.reset(len(groups), 1)
			ref.reset(len(groups), 1)
			for i := 0; i < draws; i++ {
				var cores []int
				for _, id := range ids {
					if rng.Intn(2) == 0 {
						cores = append(cores, id)
					}
				}
				if len(cores) == 0 {
					continue
				}
				r := tam.New(s, tt).AddRail(cores, 1+rng.Intn(wmax))
				var st CostStats
				got := p.railProfile(r, sc, &st)
				want := p.computeRail(r, ref)
				if got.hash != r.Hash() || !reflect.DeepEqual(got.touches, want.touches) {
					t.Errorf("goroutine %d draw %d: memo profile %+v, fresh %+v", g, i, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	flushed := 0
	for i := range p.memo {
		if p.memo[i].Load() != before[i] {
			flushed++
		}
	}
	if flushed == 0 {
		t.Errorf("no memo shard flushed after %d draws", goroutines/2*draws)
	}
}
