package sischedule

// The Planner is the incremental counterpart of CalculateSITestTime +
// scheduleSITest: a cost-only Algorithm-1 evaluator that memoizes the
// per-rail SI cost contributions by the rail's (width, cores)
// composition hash. The optimizer's hot loops mutate only one or two
// rails per candidate, so almost every rail of a candidate hits the
// memo and only the rails that actually changed are recosted; the
// Algorithm-1 packing itself is rebuilt from the memoized group times,
// which is cheap (O(groups²) with tiny constants) compared to the
// per-core cost scan it replaces.
//
// The memo key is tam.Rail.Hash(), which identifies the (width, cores)
// composition — exactly the inputs of a rail's per-pattern cost — so a
// memo hit is always semantically exact. The planner produces results
// byte-identical to ScheduleSITest: same group times, same bottleneck
// tie-breaks (first strict maximum in rail-index order), same
// first-fit packing, same per-rail TimeSI side effects, same deadlock
// error. The differential suite in internal/core pins this.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sitam/internal/soc"
	"sitam/internal/tam"
)

// plannerMemoCap bounds the number of memoized rail compositions; when
// exceeded the memo is flushed wholesale (the entries are cheap to
// recompute and the epoch-style flush keeps the planner allocation-free
// in steady state).
const plannerMemoCap = 1 << 16

// railTouch is one group's cost contribution of a memoized rail: the
// group index and the rail's per-pattern cycle cost for that group.
type railTouch struct {
	group      int32
	perPattern int64
}

// railInfo is the memoized cost profile of one rail composition.
type railInfo struct {
	touches []railTouch
}

// coreMeta is the per-core data the cost model needs: the core's WOC
// and the groups it belongs to.
type coreMeta struct {
	woc    int64
	groups []int32
}

// CostStats reports how much of one Cost call was recomputed versus
// served from the memo.
type CostStats struct {
	// RailsRecomputed / RailsMemoized count rail cost profiles.
	RailsRecomputed int
	RailsMemoized   int

	// GroupsRecomputed counts groups whose time changed hands through at
	// least one recomputed rail; GroupsMemoized is the rest.
	GroupsRecomputed int
	GroupsMemoized   int
}

// Planner evaluates the SI scheduling cost of architectures over a
// fixed group set and cost model, memoizing per-rail cost profiles by
// composition hash. It is safe for concurrent use; concurrent misses of
// the same composition may compute the profile twice, which is benign
// (the profiles are pure values).
type Planner struct {
	groups []*Group
	model  Model
	cons   *Constraints

	initOnce sync.Once
	initErr  error
	cores    map[int]*coreMeta

	memo      atomic.Pointer[sync.Map] // uint64 -> *railInfo
	memoCount atomic.Int64

	scratch sync.Pool
}

// NewPlanner builds a planner over the given groups and model under a
// compiled constraint set (nil = unconstrained): Cost packs with the
// constrained Algorithm 1 (power, precedence, exclusion), matching
// ScheduleSITestCons's TotalSI exactly. The rail cost memo is
// unaffected — constraints only shape the packing, never a rail's
// per-pattern cost. The per-core metadata is derived lazily from the
// first architecture's SOC; all architectures passed to Cost must share
// that SOC.
func NewPlanner(groups []*Group, m Model, cons *Constraints) *Planner {
	p := &Planner{groups: groups, model: m, cons: cons}
	p.memo.Store(new(sync.Map))
	p.scratch.New = func() any {
		return &costScratch{perGroup: make([][]railContrib, len(groups))}
	}
	return p
}

func (p *Planner) buildMeta(s *soc.SOC) {
	cores := make(map[int]*coreMeta, s.NumCores())
	for _, c := range s.Cores() {
		cores[c.ID] = &coreMeta{woc: int64(c.WOC())}
	}
	for gi, g := range p.groups {
		for _, id := range g.Cores {
			cm, ok := cores[id]
			if !ok {
				p.initErr = fmt.Errorf("sischedule: group %q involves unknown core %d", g.Name, id)
				return
			}
			cm.groups = append(cm.groups, int32(gi))
		}
	}
	p.cores = cores
}

// railContrib is one rail's contribution to a group, assembled per
// evaluation in rail-index order.
type railContrib struct {
	rail int32
	time int64 // Patterns × perPattern
}

// costScratch holds the reusable per-evaluation state of one Cost call.
type costScratch struct {
	// Assembly state (indexed by group).
	perGroup   [][]railContrib
	groupTime  []int64
	groupDirty []bool

	// Packing state (indexed by rail / queue position).
	railSI []int64
	busy   []bool
	queue  []int32
	active []activeRun

	// Constrained packing state (indexed by group; used only when the
	// planner carries constraints). endOf[g] is -1 while unscheduled.
	endOf    []int64
	runningG []bool

	// computeRail state (indexed by group, epoch-marked).
	shift    []int64
	nCare    []int32
	gEpoch   []uint32
	epoch    uint32
	touchedG []int32
}

type activeRun struct {
	end   int64
	group int32
}

func (sc *costScratch) reset(nGroups, nRails int) {
	for i := range sc.perGroup {
		sc.perGroup[i] = sc.perGroup[i][:0]
	}
	if cap(sc.groupTime) < nGroups {
		sc.groupTime = make([]int64, nGroups)
		sc.groupDirty = make([]bool, nGroups)
		sc.shift = make([]int64, nGroups)
		sc.nCare = make([]int32, nGroups)
		sc.gEpoch = make([]uint32, nGroups)
	}
	sc.groupTime = sc.groupTime[:nGroups]
	sc.groupDirty = sc.groupDirty[:nGroups]
	for i := range sc.groupDirty {
		sc.groupTime[i] = 0
		sc.groupDirty[i] = false
	}
	if cap(sc.railSI) < nRails {
		sc.railSI = make([]int64, nRails)
		sc.busy = make([]bool, nRails)
	}
	sc.railSI = sc.railSI[:nRails]
	sc.busy = sc.busy[:nRails]
	for i := range sc.railSI {
		sc.railSI[i] = 0
		sc.busy[i] = false
	}
	sc.queue = sc.queue[:0]
	sc.active = sc.active[:0]
}

// computeRail builds the cost profile of one rail composition: for each
// group with care cores on the rail, the per-pattern cycle cost
//
//	Σ ceil(WOC/width) over care cores + Bypass·(don't-care cores) + Overhead
//
// identical to CalculateSITestTime's inner loop.
func (p *Planner) computeRail(r *tam.Rail, sc *costScratch) *railInfo {
	sc.epoch++
	sc.touchedG = sc.touchedG[:0]
	w := int64(r.Width)
	for _, id := range r.Cores {
		cm := p.cores[id]
		if cm == nil {
			// Rail cores outside the SOC carry no group membership and
			// contribute only to the bypass term, matching the original
			// lookup-miss behavior.
			continue
		}
		for _, g := range cm.groups {
			if sc.gEpoch[g] != sc.epoch {
				sc.gEpoch[g] = sc.epoch
				sc.shift[g] = 0
				sc.nCare[g] = 0
				sc.touchedG = append(sc.touchedG, g)
			}
			sc.shift[g] += (cm.woc + w - 1) / w
			sc.nCare[g]++
		}
	}
	info := &railInfo{touches: make([]railTouch, 0, len(sc.touchedG))}
	nCores := int64(len(r.Cores))
	for _, g := range sc.touchedG {
		perPattern := sc.shift[g] + p.model.Bypass*(nCores-int64(sc.nCare[g])) + p.model.Overhead
		info.touches = append(info.touches, railTouch{group: g, perPattern: perPattern})
	}
	return info
}

// railProfile returns the (possibly memoized) cost profile of rail r,
// recording memo statistics and marking recomputed groups in st/sc.
func (p *Planner) railProfile(r *tam.Rail, sc *costScratch, st *CostStats) *railInfo {
	h := r.Hash()
	memo := p.memo.Load()
	if v, ok := memo.Load(h); ok {
		st.RailsMemoized++
		return v.(*railInfo)
	}
	info := p.computeRail(r, sc)
	st.RailsRecomputed++
	for _, t := range info.touches {
		sc.groupDirty[t.group] = true
	}
	if _, loaded := memo.LoadOrStore(h, info); !loaded {
		if p.memoCount.Add(1) > plannerMemoCap {
			p.memo.Store(new(sync.Map))
			p.memoCount.Store(0)
		}
	}
	return info
}

// Cost evaluates the SI scheduling cost of a: it refreshes the
// architecture (recomputing only dirty rails), assembles each group's
// time from the memoized per-rail profiles, packs the groups with
// Algorithm 1, and refreshes every rail's TimeSI. The returned total is
// identical to ScheduleSITest's TotalSI.
func (p *Planner) Cost(a *tam.Architecture) (int64, CostStats, error) {
	p.initOnce.Do(func() { p.buildMeta(a.SOC) })
	var st CostStats
	if p.initErr != nil {
		return 0, st, p.initErr
	}
	a.Refresh()

	sc := p.scratch.Get().(*costScratch)
	defer p.scratch.Put(sc)
	sc.reset(len(p.groups), len(a.Rails))

	// Assemble group contributions in rail-index order, preserving the
	// original bottleneck tie-break (first strict maximum wins).
	for ri, r := range a.Rails {
		info := p.railProfile(r, sc, &st)
		for _, t := range info.touches {
			g := t.group
			sc.perGroup[g] = append(sc.perGroup[g], railContrib{rail: int32(ri), time: p.groups[g].Patterns * t.perPattern})
		}
	}
	for gi := range p.groups {
		var mx int64
		for _, c := range sc.perGroup[gi] {
			if c.time > mx {
				mx = c.time
			}
			sc.railSI[c.rail] += c.time
		}
		sc.groupTime[gi] = mx
		if sc.groupDirty[gi] {
			st.GroupsRecomputed++
		} else {
			st.GroupsMemoized++
		}
	}

	// Algorithm 1, cost only: first-fit packing of the groups onto the
	// rails, concurrent when rail sets are disjoint. Zero-pattern and
	// rail-less groups take no time and are skipped (scheduleSITest
	// records them as zero-length slots, which do not move TotalSI).
	// Under constraints the pick additionally requires power headroom,
	// finished predecessors and idle exclusion partners, exactly like
	// ScheduleSITestCons; skipped groups count as finished at t=0.
	cons := p.cons
	if cons != nil {
		if cap(sc.endOf) < len(p.groups) {
			sc.endOf = make([]int64, len(p.groups))
			sc.runningG = make([]bool, len(p.groups))
		}
		sc.endOf = sc.endOf[:len(p.groups)]
		sc.runningG = sc.runningG[:len(p.groups)]
		for i := range sc.endOf {
			sc.endOf[i] = -1
			sc.runningG[i] = false
		}
	}
	for gi, g := range p.groups {
		if g.Patterns == 0 || len(sc.perGroup[gi]) == 0 {
			if cons != nil {
				sc.endOf[gi] = 0
			}
			continue
		}
		if cons != nil && cons.PowerBudget > 0 && cons.GroupPower[gi] > cons.PowerBudget {
			return 0, st, fmt.Errorf("sischedule: group %q needs power %d > budget %d", g.Name, cons.GroupPower[gi], cons.PowerBudget)
		}
		sc.queue = append(sc.queue, int32(gi))
	}
	var total, currTime, powerInUse int64
	for len(sc.queue) > 0 {
		found := -1
		for qi, g := range sc.queue {
			if cons != nil && !cons.admissible(g, cons.GroupPower[g], powerInUse, currTime, sc.endOf, sc.runningG) {
				continue
			}
			ok := true
			for _, c := range sc.perGroup[g] {
				if sc.busy[c.rail] {
					ok = false
					break
				}
			}
			if ok {
				found = qi
				break
			}
		}
		if found >= 0 {
			g := sc.queue[found]
			sc.queue = append(sc.queue[:found], sc.queue[found+1:]...)
			end := currTime + sc.groupTime[g]
			for _, c := range sc.perGroup[g] {
				sc.busy[c.rail] = true
			}
			sc.active = append(sc.active, activeRun{end: end, group: g})
			if cons != nil {
				powerInUse += cons.GroupPower[g]
				sc.endOf[g] = end
				sc.runningG[g] = true
			}
			if end > total {
				total = end
			}
			continue
		}
		var next int64 = -1
		for _, r := range sc.active {
			if r.end > currTime && (next < 0 || r.end < next) {
				next = r.end
			}
		}
		if next < 0 {
			return 0, st, fmt.Errorf("sischedule: deadlock — %d groups unscheduled with no active group", len(sc.queue))
		}
		currTime = next
		keep := sc.active[:0]
		for _, r := range sc.active {
			if r.end > currTime {
				keep = append(keep, r)
			} else {
				for _, c := range sc.perGroup[r.group] {
					sc.busy[c.rail] = false
				}
				if cons != nil {
					powerInUse -= cons.GroupPower[r.group]
					sc.runningG[r.group] = false
				}
			}
		}
		sc.active = keep
	}

	for i := range a.Rails {
		a.Rails[i].SetTimeSI(sc.railSI[i])
	}
	return total, st, nil
}
