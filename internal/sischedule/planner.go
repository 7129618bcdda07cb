package sischedule

// The Planner is the package's one implementation of CalculateSITestTime
// and Algorithm 1: one pass assembles every group's per-rail costs and
// packs the groups, and returns the makespan (Cost, the optimizer's hot
// loop) or the whole Schedule. A planner from NewMemoPlanner also
// memoizes each rail's cost profile under tam.Rail.Hash(), which
// identifies exactly the (width, cores) inputs of the profile: a
// candidate changes a rail or two, so the other rails hit the memo.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sitam/internal/obs"
	"sitam/internal/soc"
	"sitam/internal/tam"
)

// plannerMemoCap bounds the number of memoized rail compositions. The
// memo is split into 1 << memoShardBits shards, each holding its share
// of plannerMemoCap, and a full shard is replaced by an empty one (the
// profiles are cheap to recompute and the epoch-style flush keeps the
// bookkeeping trivial).
const (
	plannerMemoCap = 1 << 16
	memoShardBits  = 6
)

// memoSpread multiplies a rail hash by 2^64/φ (Fibonacci hashing), so
// that every bit of the product depends on the hash's low bits: its top
// bits pick the rail's memo shard and the bits of its high half below
// them the first slot probed. The hash's own high bits barely vary,
// because an FNV-1a product over small integers carries their
// differences mostly in its low bits.
func memoSpread(h uint64) uint64 { return h * 0x9E3779B97F4A7C15 }

// memoTable is one memo shard: an open-addressing table of rail
// profiles with twice as many slots as the shard may hold, so probes
// stay short and reach an empty slot. A slot is written once, from
// nil, by CompareAndSwap, and a full table is replaced rather than
// cleared, so a lookup only loads: concurrent Cost calls hitting the
// memo write nothing the other reads.
type memoTable struct {
	slots [2 * plannerMemoCap >> memoShardBits]atomic.Pointer[railInfo]
	used  atomic.Int32
}

// lookup returns the profile memoized under rail hash h, or nil.
func (t *memoTable) lookup(h uint64) *railInfo {
	i := int((memoSpread(h) >> 32) % uint64(len(t.slots)))
	for range t.slots {
		info := t.slots[i].Load()
		if info == nil || info.hash == h {
			return info
		}
		i = (i + 1) % len(t.slots)
	}
	return nil
}

// store memoizes info unless its hash is already there. It reports
// false, storing nothing, once the table holds its share of
// plannerMemoCap.
func (t *memoTable) store(info *railInfo) bool {
	if t.used.Load() >= plannerMemoCap>>memoShardBits {
		return false
	}
	i := int((memoSpread(info.hash) >> 32) % uint64(len(t.slots)))
	for range t.slots {
		if t.slots[i].CompareAndSwap(nil, info) {
			t.used.Add(1)
			return true
		}
		if t.slots[i].Load().hash == info.hash {
			return true // a concurrent miss stored the same profile
		}
		i = (i + 1) % len(t.slots)
	}
	return false
}

// scratchPool recycles the per-call state of every planner's calls;
// reset sizes a scratch to the planner and architecture at hand. One
// pool for all planners keeps a one-shot planner from allocating its
// own, and keeps a planner from being held alive by a registered pool.
var scratchPool = sync.Pool{New: func() any { return new(costScratch) }}

// railTouch is one group's cost contribution of a rail: the group
// index and the rail's per-pattern cycle cost for that group.
type railTouch struct {
	group      int32
	perPattern int64
}

// railInfo is the memoized cost profile of one rail composition,
// stored under the rail's hash.
type railInfo struct {
	hash    uint64
	touches []railTouch
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

// Planner costs and schedules SI test groups on architectures over a
// fixed group set, cost model and constraint set. It is safe for
// concurrent use; concurrent memo misses of the same composition may
// compute the profile twice, which is benign (the profiles are pure
// values).
type Planner struct {
	groups []*Group
	model  Model
	cons   *Constraints

	// The per-core data of the cost model, indexed densely by core ID
	// and derived once from the first architecture's SOC: woc[id] is
	// the core's WOC (-1 for an ID naming no core), and the groups
	// involving core id are coreGroups[coreOff[id]:coreOff[id+1]].
	initOnce   sync.Once
	initErr    error
	woc        []int64
	coreOff    []int32
	coreGroups []int32

	// memo is nil for a planner that costs every rail afresh.
	memo *[1 << memoShardBits]atomic.Pointer[memoTable]
}

// NewPlanner builds a one-shot planner over the given groups and model
// under a compiled constraint set (nil = unconstrained): it costs
// every rail of every architecture afresh and keeps no memo, so
// building one and scheduling once costs about as much as the
// schedule. All architectures passed to it must share one SOC.
func NewPlanner(groups []*Group, m Model, cons *Constraints) *Planner {
	return &Planner{groups: groups, model: m, cons: cons}
}

// NewMemoPlanner is NewPlanner with a rail cost memo shared by every
// call: the planner of an optimization run, which costs many
// architectures that differ in a rail or two. Constraints only shape
// the packing, never a rail's per-pattern cost, so they leave the memo
// alone.
func NewMemoPlanner(groups []*Group, m Model, cons *Constraints) *Planner {
	p := NewPlanner(groups, m, cons)
	p.memo = new([1 << memoShardBits]atomic.Pointer[memoTable])
	for i := range p.memo {
		p.memo[i].Store(new(memoTable))
	}
	return p
}

// buildMeta indexes the cost model's per-core data over s's core IDs.
// It rejects constraints compiled for another group list and groups
// naming a core s does not have.
func (p *Planner) buildMeta(s *soc.SOC) error {
	if p.cons != nil && len(p.cons.GroupPower) != len(p.groups) {
		return fmt.Errorf("%w: constraints compiled for %d groups, scheduling %d", soc.ErrInvalid, len(p.cons.GroupPower), len(p.groups))
	}
	n := 0
	for _, c := range s.Cores() {
		n = max(n, c.ID+1)
	}
	p.woc, p.coreOff = make([]int64, n), make([]int32, n+1)
	for i := range p.woc {
		p.woc[i] = -1
	}
	for _, c := range s.Cores() {
		p.woc[c.ID] = int64(c.WOC())
	}
	// Count each core's groups, then fill them in group order. A core
	// listed twice in one group counts once: last[id] is one more than
	// the last group counted for core id, then core id's fill cursor.
	last := make([]int32, n)
	for gi, g := range p.groups {
		for _, id := range g.Cores {
			if id < 0 || id >= n || p.woc[id] < 0 {
				return fmt.Errorf("sischedule: group %q involves unknown core %d", g.Name, id)
			}
			if last[id] != int32(gi)+1 {
				last[id] = int32(gi) + 1
				p.coreOff[id+1]++
			}
		}
	}
	for id := range last {
		p.coreOff[id+1] += p.coreOff[id]
		last[id] = p.coreOff[id]
	}
	p.coreGroups = make([]int32, p.coreOff[n])
	for gi, g := range p.groups {
		for _, id := range g.Cores {
			if c := last[id]; c == p.coreOff[id] || p.coreGroups[c-1] != int32(gi) {
				p.coreGroups[c] = int32(gi)
				last[id]++
			}
		}
	}
	return nil
}

// railContrib is one rail's contribution to a group, assembled per
// evaluation in rail-index order.
type railContrib struct {
	rail int32
	time int64 // Patterns × perPattern
}

// placed is one slot of the packing: a group and its start time and
// power (power is 0 for a group that occupies no rail).
type placed struct {
	group        int32
	begin, power int64
}

// groupAcc accumulates one group's care-core shift and count on the
// rail being costed; epoch marks it as belonging to that rail.
type groupAcc struct {
	shift int64
	nCare int32
	epoch uint32
}

// costScratch holds the reusable per-call state of a planner.
type costScratch struct {
	// Assembly state (indexed by group). Every perGroup[g], up to
	// cap(perGroup), has room for one contribution per rail, up to
	// railCap rails.
	perGroup   [][]railContrib
	railCap    int
	groupTime  []int64
	groupDirty []bool

	// Packing state (indexed by rail / queue position). order is the
	// slot order: the groups that occupy no rail, then the others in
	// the order they were placed.
	railSI []int64
	busy   []bool
	queue  []int32
	active []activeRun
	order  []placed

	// Constrained packing state (indexed by group; read only when the
	// planner carries constraints). endOf[g] is -1 while unscheduled.
	endOf    []int64
	runningG []bool

	// computeRail state: per-group accumulators, epoch-marked, the
	// groups the current rail touches and its profile.
	acc      []groupAcc
	epoch    uint32
	touchedG []int32
	touches  []railTouch
}

type activeRun struct {
	end   int64
	group int32
}

// reset readies sc for nGroups groups on nRails rails, growing what is
// too small.
func (sc *costScratch) reset(nGroups, nRails int) {
	if cap(sc.perGroup) < nGroups || sc.railCap < nRails {
		// A group takes at most one contribution per rail.
		g, r := max(nGroups, cap(sc.perGroup)), max(nRails, sc.railCap)
		arena := make([]railContrib, g*r)
		sc.perGroup = make([][]railContrib, g)
		for i := range sc.perGroup {
			sc.perGroup[i] = arena[i*r : i*r : (i+1)*r]
		}
		sc.railSI, sc.busy, sc.railCap = make([]int64, r), make([]bool, r), r
	}
	if cap(sc.groupTime) < nGroups {
		sc.groupTime, sc.groupDirty, sc.acc = make([]int64, nGroups), make([]bool, nGroups), make([]groupAcc, nGroups)
		sc.endOf, sc.runningG = make([]int64, nGroups), make([]bool, nGroups)
	}
	sc.perGroup, sc.groupTime, sc.groupDirty = sc.perGroup[:nGroups], sc.groupTime[:nGroups], sc.groupDirty[:nGroups]
	sc.acc, sc.endOf, sc.runningG = sc.acc[:nGroups], sc.endOf[:nGroups], sc.runningG[:nGroups]
	for g := range sc.perGroup {
		sc.perGroup[g], sc.groupDirty[g] = sc.perGroup[g][:0], false
	}
	sc.railSI, sc.busy = sc.railSI[:nRails], sc.busy[:nRails]
	clear(sc.railSI)
	clear(sc.busy)
	sc.queue, sc.active, sc.order = sc.queue[:0], sc.active[:0], sc.order[:0]
}

// computeRail appends rail r's cost profile to touches: for each group
// with care cores on the rail, in first-touch order, the per-pattern
// cycle cost
//
//	Σ ceil(WOC/width) over care cores + Bypass·(don't-care cores) + Overhead
//
// Rail cores outside the SOC carry no group membership and contribute
// only to the bypass term.
func (p *Planner) computeRail(r *tam.Rail, sc *costScratch, touches []railTouch) []railTouch {
	sc.epoch++
	sc.touchedG = sc.touchedG[:0]
	w := int64(r.Width)
	for _, id := range r.Cores {
		if id < 0 || id >= len(p.woc) || p.coreOff[id] == p.coreOff[id+1] {
			continue
		}
		shift := (p.woc[id] + w - 1) / w
		for _, g := range p.coreGroups[p.coreOff[id]:p.coreOff[id+1]] {
			acc := &sc.acc[g]
			if acc.epoch != sc.epoch {
				*acc = groupAcc{epoch: sc.epoch}
				sc.touchedG = append(sc.touchedG, g)
			}
			acc.shift += shift
			acc.nCare++
		}
	}
	nCores := int64(len(r.Cores))
	for _, g := range sc.touchedG {
		acc := &sc.acc[g]
		perPattern := acc.shift + p.model.Bypass*(nCores-int64(acc.nCare)) + p.model.Overhead
		touches = append(touches, railTouch{group: g, perPattern: perPattern})
	}
	return touches
}

// railProfile returns rail r's cost profile, from the memo when the
// planner has one and the composition is there, recording memo
// statistics and marking recomputed groups in st/sc. A profile
// computed without a memo lives in sc until the next call.
func (p *Planner) railProfile(r *tam.Rail, sc *costScratch, st *CostStats) []railTouch {
	var shard *atomic.Pointer[memoTable]
	var tab *memoTable
	if p.memo != nil {
		h := r.Hash()
		shard = &p.memo[memoSpread(h)>>(64-memoShardBits)]
		tab = shard.Load()
		if info := tab.lookup(h); info != nil {
			st.RailsMemoized++
			return info.touches
		}
	}
	sc.touches = p.computeRail(r, sc, sc.touches[:0])
	st.RailsRecomputed++
	for _, t := range sc.touches {
		sc.groupDirty[t.group] = true
	}
	if p.memo == nil {
		return sc.touches
	}
	info := &railInfo{hash: r.Hash(), touches: append([]railTouch(nil), sc.touches...)}
	if !tab.store(info) {
		// The shard is full: flush it. When a concurrent miss flushed
		// it first, its table stays and info goes unmemoized.
		fresh := new(memoTable)
		fresh.store(info)
		shard.CompareAndSwap(tab, fresh)
	}
	return info.touches
}

// assemble costs a into sc: every group's per-rail contributions in
// rail-index order, its time (the first strict maximum over its rails)
// and every rail's summed SI time. A memoizing planner refreshes a
// first (recomputing only dirty rails), since its memo keys on the
// rails' composition hashes.
func (p *Planner) assemble(a *tam.Architecture, sc *costScratch, st *CostStats) error {
	p.initOnce.Do(func() { p.initErr = p.buildMeta(a.SOC) })
	if p.initErr != nil {
		return p.initErr
	}
	if p.memo != nil {
		a.Refresh()
	}
	sc.reset(len(p.groups), len(a.Rails))
	for ri, r := range a.Rails {
		for _, t := range p.railProfile(r, sc, st) {
			g := t.group
			sc.perGroup[g] = append(sc.perGroup[g], railContrib{rail: int32(ri), time: p.groups[g].Patterns * t.perPattern})
		}
	}
	for gi := range p.groups {
		var mx int64
		for i, c := range sc.perGroup[gi] {
			if i == 0 || c.time > mx {
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
	return nil
}

// pack runs Algorithm 1 over the assembled groups and returns the
// makespan, recording the slot order in sc.order. In input order, the
// first unscheduled group whose rails are all free starts now; when
// none can, time advances to the earliest finish after now and that
// group's rails are released (Fig. 5, Lines 13-16). Under constraints
// the pick additionally requires power headroom, finished
// predecessors and idle exclusion partners, and a group hotter than
// the budget is an error. Groups that occupy no rail (zero patterns or
// no involved rail) take no time, are exempt from constraints, count
// as finished at t=0 and lead the slot order.
func (p *Planner) pack(sc *costScratch) (int64, error) {
	cons := p.cons
	if cons != nil {
		for i := range sc.endOf {
			sc.endOf[i], sc.runningG[i] = -1, false
		}
	}
	for gi, g := range p.groups {
		if g.Patterns == 0 || len(sc.perGroup[gi]) == 0 {
			sc.order = append(sc.order, placed{group: int32(gi)})
			if cons != nil {
				sc.endOf[gi] = 0
			}
			continue
		}
		if cons != nil && cons.PowerBudget > 0 && cons.GroupPower[gi] > cons.PowerBudget {
			return 0, fmt.Errorf("sischedule: group %q needs power %d > budget %d", g.Name, cons.GroupPower[gi], cons.PowerBudget)
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
			var power int64
			if cons != nil {
				power = cons.GroupPower[g]
				powerInUse += power
				sc.endOf[g] = end
				sc.runningG[g] = true
			}
			sc.order = append(sc.order, placed{group: g, begin: currTime, power: power})
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
			return 0, fmt.Errorf("sischedule: deadlock — %d groups unscheduled with no active group", len(sc.queue))
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
	return total, nil
}

// admissible reports whether group gi may start at currTime under the
// constraints, given the scheduler's running state: power headroom,
// predecessors finished (scheduled with end <= now), and no running
// exclusion partner. Rail availability is the caller's check.
func (c *Constraints) admissible(gi int32, power, powerInUse, currTime int64, endOf []int64, runningG []bool) bool {
	if c.PowerBudget > 0 && powerInUse+power > c.PowerBudget {
		return false
	}
	for _, p := range c.preds[gi] {
		if endOf[p] < 0 || endOf[p] > currTime {
			return false
		}
	}
	for _, e := range c.excl[gi] {
		if runningG[e] {
			return false
		}
	}
	return true
}

// plan assembles and packs a and sets every rail's TimeSI.
func (p *Planner) plan(a *tam.Architecture, sc *costScratch, st *CostStats) (int64, error) {
	if err := p.assemble(a, sc, st); err != nil {
		return 0, err
	}
	total, err := p.pack(sc)
	if err != nil {
		return 0, err
	}
	for i, r := range a.Rails {
		r.SetTimeSI(sc.railSI[i])
	}
	return total, nil
}

// Cost returns the SI testing time T_soc_si of a, the TotalSI of the
// schedule Schedule returns, and refreshes every rail's TimeSI.
func (p *Planner) Cost(a *tam.Architecture) (int64, CostStats, error) {
	var st CostStats
	sc := scratchPool.Get().(*costScratch)
	defer scratchPool.Put(sc)
	total, err := p.plan(a, sc, &st)
	return total, st, err
}

// Schedule schedules the groups on a with Algorithm 1 and returns the
// schedule: the groups that occupy no rail first, as zero-length slots
// at t=0, then the others in the order they were placed, and each
// rail's busy SI time, which it also stores in the rail's TimeSI.
//
// Each slot that occupies a rail is reported to sink as an
// si_group_scheduled event (group name, begin and end times, involved
// rail count, bottleneck rail, pattern count) in slot order, which is
// deterministic. Under a constraint set each event additionally
// carries the group's power and the budget, making every event
// self-contained for downstream power validation (sitrace -check) even
// on truncated traces. A nil sink traces nothing.
func (p *Planner) Schedule(a *tam.Architecture, sink obs.Sink) (*Schedule, error) {
	var st CostStats
	sc := scratchPool.Get().(*costScratch)
	defer scratchPool.Put(sc)
	total, err := p.plan(a, sc, &st)
	if err != nil {
		return nil, err
	}
	times := sc.groupTimes()
	sched := &Schedule{Slots: make([]Slot, len(sc.order)), TotalSI: total, RailSI: make([]int64, len(sc.railSI))}
	copy(sched.RailSI, sc.railSI)
	var budget int64
	if p.cons != nil {
		budget = p.cons.PowerBudget
	}
	for i, pl := range sc.order {
		sl := Slot{Group: p.groups[pl.group], GroupTime: times[pl.group], Begin: pl.begin, Power: pl.power}
		sl.End = sl.Begin + sl.Time
		sched.Slots[i] = sl
		if sink != nil && len(sl.Rails) > 0 { // a group on no rail was not placed
			sink.Emit(obs.Event{
				Type: obs.SIGroupScheduled, Group: sl.Group.Name,
				Begin: sl.Begin, End: sl.End,
				Rails: len(sl.Rails), Rail: sl.Bottleneck,
				N:     sl.Group.Patterns,
				Power: sl.Power, Budget: budget,
			})
		}
	}
	return sched, nil
}

// groupTimes costs a and returns every group's GroupTime, leaving the
// rails' TimeSI alone.
func (p *Planner) groupTimes(a *tam.Architecture) ([]GroupTime, error) {
	var st CostStats
	sc := scratchPool.Get().(*costScratch)
	defer scratchPool.Put(sc)
	if err := p.assemble(a, sc, &st); err != nil {
		return nil, err
	}
	return sc.groupTimes(), nil
}

// groupTimes builds every assembled group's GroupTime. The Rails and
// PerRail slices of all groups share two arenas; a group on no rail
// keeps them nil, with Bottleneck -1.
func (sc *costScratch) groupTimes() []GroupTime {
	n := 0
	for _, cs := range sc.perGroup {
		n += len(cs)
	}
	rails, per := make([]int, n), make([]int64, n)
	out := make([]GroupTime, len(sc.perGroup))
	for gi, cs := range sc.perGroup {
		gt := GroupTime{Time: sc.groupTime[gi], Bottleneck: -1}
		if len(cs) > 0 {
			gt.Rails, rails = rails[:len(cs):len(cs)], rails[len(cs):]
			gt.PerRail, per = per[:len(cs):len(cs)], per[len(cs):]
			for i, c := range cs {
				gt.Rails[i], gt.PerRail[i] = int(c.rail), c.time
				if gt.Bottleneck < 0 && c.time == gt.Time {
					gt.Bottleneck = int(c.rail)
				}
			}
		}
		out[gi] = gt
	}
	return out
}
