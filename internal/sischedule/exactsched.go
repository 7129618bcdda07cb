package sischedule

import (
	"context"
	"fmt"
	"sort"

	"sitam/internal/tam"
)

// Exact SI scheduling for small group counts. Algorithm 1 is a greedy
// first-fit list scheduler; for a handful of groups the optimal
// makespan can be found by branch-and-bound over the serial
// schedule-generation scheme: every permutation of the groups, each
// placed at its earliest rail-feasible start, enumerates all active
// schedules, which are known to contain an optimum for makespan
// objectives. Used by tests and the ablation study to bound Algorithm
// 1's optimality gap.

// MaxExactGroups bounds the instance size ExactSchedule accepts.
const MaxExactGroups = 10

// ExactSchedule returns the minimum-makespan SI testing time for the
// groups on the architecture (same cost model as ScheduleSITest) under
// a compiled constraint set, the number of branch-and-bound nodes
// explored, and whether the search was cut short.
//
// A nil cons searches the unconstrained problem: every permutation,
// each job at its earliest rail-feasible start. Under constraints the
// search is branch-and-bound over precedence-feasible permutations,
// each job placed at its earliest start satisfying rail availability,
// power headroom over its whole duration, finished predecessors and
// idle exclusion partners. This is the serial schedule-generation
// scheme of resource-constrained project scheduling, whose enumeration
// is known to contain an optimum for regular measures; it bounds the
// constrained Algorithm 1's optimality gap exactly as the unconstrained
// search does.
//
// ExactSchedule is an anytime algorithm. The context is polled every
// 256 branch-and-bound nodes; on cancellation or deadline expiry the
// search stops and the best complete schedule found so far is returned
// with the partial flag set. Because the search enumerates complete
// active schedules, a partial result is a valid achievable makespan —
// an upper bound on the true optimum, never below it. If the context
// fires before any complete schedule was found, the context's error is
// returned.
func ExactSchedule(ctx context.Context, a *tam.Architecture, groups []*Group, m Model, cons *Constraints) (int64, int, bool, error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, false, err
	}
	times, err := NewPlanner(groups, m, cons).groupTimes(a)
	if err != nil {
		return 0, 0, false, err
	}
	if err := cons.Feasible(groups, times); err != nil {
		return 0, 0, false, err
	}
	if len(a.Rails) > 64 {
		return 0, 0, false, fmt.Errorf("sischedule: exact scheduling supports at most 64 rails, got %d", len(a.Rails))
	}
	type job struct {
		dur   int64
		mask  uint64
		gi    int32
		power int64
		preds []int32 // job indices that must be placed and finished first
		excl  []int32 // job indices that may not overlap
	}
	var jobs []job
	jobOf := make([]int32, len(groups)) // group index -> job index, -1 = zero slot
	for i := range jobOf {
		jobOf[i] = -1
	}
	for i, g := range groups {
		if times[i].Time <= 0 || len(times[i].Rails) == 0 || g.Patterns == 0 {
			continue
		}
		var mask uint64
		for _, ri := range times[i].Rails {
			mask |= 1 << uint(ri)
		}
		jobOf[i] = int32(len(jobs))
		j := job{dur: times[i].Time, mask: mask, gi: int32(i)}
		if cons != nil {
			j.power = cons.GroupPower[i]
		}
		jobs = append(jobs, j)
	}
	if len(jobs) > MaxExactGroups {
		return 0, 0, false, fmt.Errorf("sischedule: exact scheduling limited to %d groups, got %d", MaxExactGroups, len(jobs))
	}
	if len(jobs) == 0 {
		return 0, 0, false, nil
	}
	// Lift the group-level relations to job indices; relations touching
	// zero-duration groups are satisfied at t=0 and drop out.
	if cons != nil {
		for ji := range jobs {
			gi := jobs[ji].gi
			for _, p := range cons.preds[gi] {
				if j := jobOf[p]; j >= 0 {
					jobs[ji].preds = append(jobs[ji].preds, j)
				}
			}
			for _, e := range cons.excl[gi] {
				if j := jobOf[e]; j >= 0 {
					jobs[ji].excl = append(jobs[ji].excl, j)
				}
			}
		}
	}

	railLoad := make([]int64, len(a.Rails))
	for _, j := range jobs {
		for r := 0; r < len(a.Rails); r++ {
			if j.mask&(1<<uint(r)) != 0 {
				railLoad[r] += j.dur
			}
		}
	}
	var best int64 = -1
	railFree := make([]int64, len(a.Rails))
	remaining := make([]int64, len(a.Rails))
	copy(remaining, railLoad)
	type placed struct {
		begin, end int64
		job        int32
		power      int64
	}
	placedJobs := make([]placed, 0, len(jobs))
	used := make([]bool, len(jobs))
	endAt := make([]int64, len(jobs))
	nodes := 0
	stopped := false

	// feasibleAt reports whether job j can occupy [t, t+dur) against the
	// placed intervals: no overlapping exclusion partner, and the power
	// profile (piecewise constant, changing only at interval boundaries)
	// stays within budget over the whole window.
	feasibleAt := func(j *job, t int64) bool {
		end := t + j.dur
		for _, e := range j.excl {
			if used[e] {
				for pi := range placedJobs {
					p := &placedJobs[pi]
					if p.job == e && p.begin < end && t < p.end {
						return false
					}
				}
			}
		}
		if cons != nil && cons.PowerBudget > 0 {
			probe := func(q int64) bool {
				inUse := j.power
				for pi := range placedJobs {
					p := &placedJobs[pi]
					if p.begin <= q && q < p.end {
						inUse += p.power
					}
				}
				return inUse <= cons.PowerBudget
			}
			if !probe(t) {
				return false
			}
			for pi := range placedJobs {
				if b := placedJobs[pi].begin; t < b && b < end && !probe(b) {
					return false
				}
			}
		}
		return true
	}

	var dfs func(done int, makespan int64)
	dfs = func(done int, makespan int64) {
		nodes++
		if nodes&255 == 0 && ctx.Err() != nil {
			stopped = true
		}
		if stopped {
			return
		}
		if best >= 0 {
			lb := makespan
			for r := range railFree {
				if v := railFree[r] + remaining[r]; v > lb {
					lb = v
				}
			}
			if lb >= best {
				return
			}
		}
		if done == len(jobs) {
			if best < 0 || makespan < best {
				best = makespan
			}
			return
		}
	nextJob:
		for i := range jobs {
			j := &jobs[i]
			if used[i] {
				continue
			}
			if stopped {
				return
			}
			// Earliest start: involved rails free and predecessors done.
			// Precedence-infeasible orders (a pred not yet placed) are
			// skipped; every topological order is still enumerated.
			var start int64
			for r := range railFree {
				if j.mask&(1<<uint(r)) != 0 && railFree[r] > start {
					start = railFree[r]
				}
			}
			for _, p := range j.preds {
				if !used[p] {
					continue nextJob
				}
				if endAt[p] > start {
					start = endAt[p]
				}
			}
			// Push the start right past infeasible windows. The profile
			// only improves at placed-interval ends, so those (plus the
			// base start) are the only candidates; past the last end all
			// intervals are over and the job runs alone.
			if !feasibleAt(j, start) {
				var ends []int64
				for pi := range placedJobs {
					if e := placedJobs[pi].end; e > start {
						ends = append(ends, e)
					}
				}
				sort.Slice(ends, func(x, y int) bool { return ends[x] < ends[y] })
				ok := false
				for _, e := range ends {
					if feasibleAt(j, e) {
						start = e
						ok = true
						break
					}
				}
				if !ok {
					continue // cannot place in this branch's order
				}
			}
			end := start + j.dur
			saved := make([]int64, 0, 4)
			for r := range railFree {
				if j.mask&(1<<uint(r)) != 0 {
					saved = append(saved, railFree[r])
					railFree[r] = end
					remaining[r] -= j.dur
				}
			}
			used[i] = true
			endAt[i] = end
			placedJobs = append(placedJobs, placed{begin: start, end: end, job: int32(i), power: j.power})
			ms := makespan
			if end > ms {
				ms = end
			}
			dfs(done+1, ms)
			placedJobs = placedJobs[:len(placedJobs)-1]
			used[i] = false
			k := 0
			for r := range railFree {
				if j.mask&(1<<uint(r)) != 0 {
					railFree[r] = saved[k]
					remaining[r] += j.dur
					k++
				}
			}
		}
	}
	dfs(0, 0)
	if stopped && best < 0 {
		return 0, nodes, false, ctx.Err()
	}
	if best < 0 {
		return 0, nodes, false, fmt.Errorf("sischedule: no feasible constrained schedule for %d groups", len(jobs))
	}
	return best, nodes, stopped, nil
}
