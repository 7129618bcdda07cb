package sischedule

import (
	"fmt"
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
	p := NewMemoPlanner(groups, DefaultModel(), nil)
	p.initOnce.Do(func() { p.initErr = p.buildMeta(s) })
	if p.initErr != nil {
		t.Fatal(p.initErr)
	}
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
			sc, ref := new(costScratch), new(costScratch)
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
				got := append([]railTouch(nil), p.railProfile(r, sc, &st)...)
				want := p.computeRail(r, ref, nil)
				if !reflect.DeepEqual(got, want) {
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

// oracleCase is one planner-versus-oracle instance.
type oracleCase struct {
	a      *tam.Architecture
	groups []*Group
	m      Model
	cons   *Constraints
}

// drawCase builds an instance from draw, which returns a value in
// [0, n): an SOC with gaps in its core IDs, rails that may be empty,
// duplicated or leave a core off every rail, groups that may have no
// cores, no patterns or a core the SOC lacks, a cost model, and a
// constraint set of one kind (or all of them) whose budget may be
// below a group's power.
// It reports false when the draws make no valid SOC.
func drawCase(draw func(n int) int) (oracleCase, bool) {
	s := &soc.SOC{Name: "oracle", BusWidth: 1 + draw(16)}
	id := 0
	for i, n := 0, 1+draw(10); i < n; i++ {
		id += 1 + draw(3)
		s.CoreList = append(s.CoreList, &soc.Core{
			ID: id, Inputs: draw(6), Outputs: draw(20), Bidirs: draw(3),
			ScanChains: []int{1 + draw(9)}, Patterns: 1 + draw(9),
		})
	}
	if s.Validate() != nil {
		return oracleCase{}, false
	}
	const wmax = 8
	tt, err := wrapper.NewTimeTable(s, wmax)
	if err != nil {
		return oracleCase{}, false
	}
	a := tam.New(s, tt)
	railCores := make([][]int, 1+draw(4))
	for _, c := range s.Cores() {
		if r := draw(len(railCores) + 1); r < len(railCores) {
			railCores[r] = append(railCores[r], c.ID)
		}
	}
	for _, cores := range railCores {
		w := 1 + draw(wmax)
		a.AddRail(cores, w)
		if draw(4) == 0 {
			a.AddRail(cores, w) // an identical rail: one memo profile
		}
	}
	c := oracleCase{a: a, m: Model{Bypass: int64(draw(3)), Overhead: int64(draw(5))}}
	for g, n := 0, draw(7); g < n; g++ {
		grp := &Group{Name: fmt.Sprintf("G%d", g)}
		for _, core := range s.Cores() {
			if draw(3) == 0 {
				grp.Cores = append(grp.Cores, core.ID)
			}
		}
		if draw(5) > 0 {
			grp.Patterns = int64(1 + draw(40))
		}
		if draw(30) == 0 {
			grp.Cores = append([]int{0}, grp.Cores...) // no core has ID 0
		}
		c.groups = append(c.groups, grp)
	}
	pick := func() int { return s.CoreList[draw(len(s.CoreList))].ID }
	var cs soc.ConstraintSet
	kind := draw(5)
	if kind == 1 || kind == 4 {
		cs.PowerBudget = int64(1 + draw(60))
	}
	if kind == 2 || kind == 4 {
		for i, n := 0, 1+draw(3); i < n; i++ {
			if b, af := pick(), pick(); b != af {
				cs.Precedences = append(cs.Precedences, soc.Precedence{Before: b, After: af})
			}
		}
	}
	if kind == 3 || kind == 4 {
		if x, y := pick(), pick(); x != y {
			cs.Exclusions = [][]int{{x, y}}
		}
	}
	if kind == 4 {
		cs.CorePower = map[int]int64{pick(): int64(draw(30))}
	}
	if cons, err := CompileConstraints(s, &cs, c.groups); err == nil {
		c.cons = cons // a cyclic lifted precedence leaves the case unconstrained
	}
	return c, true
}

// errText renders an error for comparison; nil renders empty.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkAgainstOracle schedules c with the oracle, then with a one-shot
// and a memoizing planner, each twice (a cold, then a warm memo), and
// requires the same schedule, rail TimeSI, Cost total, group times and
// error text.
func checkAgainstOracle(t *testing.T, c oracleCase) {
	t.Helper()
	oa := c.a.Clone()
	want, wantErr := oracleScheduleSITest(oa, c.groups, c.m, c.cons)
	timeSI := func(a *tam.Architecture) []int64 {
		out := make([]int64, len(a.Rails))
		for i, r := range a.Rails {
			out[i] = r.TimeSI
		}
		return out
	}
	wantTimes, wantTimesErr := oracleCalculateSITestTime(c.a.Clone(), c.groups, c.m)
	gotTimes, gotTimesErr := CalculateSITestTime(c.a.Clone(), c.groups, c.m)
	if errText(gotTimesErr) != errText(wantTimesErr) || !reflect.DeepEqual(gotTimes, wantTimes) {
		t.Fatalf("group times %+v (err %v), oracle %+v (err %v)", gotTimes, gotTimesErr, wantTimes, wantTimesErr)
	}
	for _, p := range []*Planner{NewPlanner(c.groups, c.m, c.cons), NewMemoPlanner(c.groups, c.m, c.cons)} {
		for pass := 0; pass < 2; pass++ {
			memo := p.memo != nil
			pa := c.a.Clone()
			got, err := p.Schedule(pa, nil)
			if errText(err) != errText(wantErr) {
				t.Fatalf("memo=%v pass %d: Schedule error %q, oracle %q", memo, pass, errText(err), errText(wantErr))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("memo=%v pass %d: schedule\n%+v\noracle\n%+v", memo, pass, got, want)
			}
			if !reflect.DeepEqual(timeSI(pa), timeSI(oa)) {
				t.Fatalf("memo=%v pass %d: Schedule left TimeSI %v, oracle %v", memo, pass, timeSI(pa), timeSI(oa))
			}
			ca := c.a.Clone()
			total, _, err := p.Cost(ca)
			if errText(err) != errText(wantErr) {
				t.Fatalf("memo=%v pass %d: Cost error %q, oracle %q", memo, pass, errText(err), errText(wantErr))
			}
			if want != nil && total != want.TotalSI {
				t.Fatalf("memo=%v pass %d: Cost %d, oracle T_si %d", memo, pass, total, want.TotalSI)
			}
			if !reflect.DeepEqual(timeSI(ca), timeSI(oa)) {
				t.Fatalf("memo=%v pass %d: Cost left TimeSI %v, oracle %v", memo, pass, timeSI(ca), timeSI(oa))
			}
		}
	}
}

// TestPlannerMatchesOracle holds both kinds of planner to the
// from-scratch oracle on random instances, and checks that the draws
// reach constrained schedules and rejected instances (an infeasible
// budget or an unknown core).
func TestPlannerMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var checked, constrained, failing int
	for i := 0; i < 1000; i++ {
		c, ok := drawCase(rng.Intn)
		if !ok {
			continue
		}
		checked++
		if c.cons != nil {
			constrained++
		}
		if _, err := oracleScheduleSITest(c.a.Clone(), c.groups, c.m, c.cons); err != nil {
			failing++
		}
		checkAgainstOracle(t, c)
	}
	t.Logf("%d instances, %d constrained, %d rejected", checked, constrained, failing)
	if checked < 500 || constrained < 100 || failing < 10 {
		t.Fatalf("draws too narrow: %d instances, %d constrained, %d rejected", checked, constrained, failing)
	}
}

// FuzzPlannerMatchesOracle is TestPlannerMatchesOracle over instances
// decoded from arbitrary bytes.
func FuzzPlannerMatchesOracle(f *testing.F) {
	f.Add([]byte{3, 2, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{9, 0, 4, 4, 0, 7, 2, 9, 1, 5, 8, 255, 0, 1, 2, 3, 4, 4, 6, 1, 0, 200})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		draw := func(n int) int {
			if pos >= len(data) {
				return 0
			}
			pos++
			return int(data[pos-1]) % n
		}
		if c, ok := drawCase(draw); ok {
			checkAgainstOracle(t, c)
		}
	})
}

// TestPlannerDedupesGroupCores checks that a core listed twice in one
// group counts once, as the oracle's membership marks do.
func TestPlannerDedupesGroupCores(t *testing.T) {
	s, tt := fig3SOC(t)
	a := tam.New(s, tt)
	a.AddRail([]int{1, 2}, 2)
	a.AddRail([]int{3, 4, 5}, 1)
	groups := []*Group{
		{Name: "dup", Cores: []int{2, 1, 2, 4}, Patterns: 3},
		{Name: "SI3", Cores: []int{3, 3}, Patterns: 5},
	}
	checkAgainstOracle(t, oracleCase{a: a, groups: groups, m: DefaultModel()})
}
