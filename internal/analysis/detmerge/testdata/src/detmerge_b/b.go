package detmerge_b

import (
	"sort"

	"detmerge_a"
)

//sitlint:detmerge-root
func Merge(parts []map[int]int, done chan int, extra chan int) []int {
	var out []int
	for _, m := range parts {
		out = append(out, collect(m)...)
	}
	select { // want `select-based reduction`
	case v := <-done:
		out = append(out, v)
	case v := <-extra:
		out = append(out, v)
	}
	out = append(out, detmerge_a.LeakOrder(parts[0])) // want `nondeterministic order`
	out = append(out, detmerge_a.SortedWalk(parts[0])...)
	out = append(out, detmerge_a.SortsOther(parts[0], out)...) // want `nondeterministic order`
	return out
}

// collect is reachable from the root and ranges a map without sorting.
func collect(m map[int]int) []int {
	var out []int
	for k := range m { // want `map iteration on the deterministic merge path.*reachable from merge root Merge\)`
		out = append(out, k)
	}
	return out
}

// collectSorted is also reachable but sorts — clean.
func collectSorted(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

//sitlint:detmerge-root
func mergeSorted(parts []map[int]int) []int {
	var out []int
	for _, m := range parts {
		out = append(out, collectSorted(m)...)
	}
	return out
}

// unreachable ranges a map but no root reaches it — clean here (it
// does export MapOrder for external callers).
func unreachable(m map[int]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// ctxStyle select with one receive and a default is the cancellation
// poll, not a reduction — clean.
//
//sitlint:detmerge-root
func ctxStyle(stop chan struct{}, parts []map[int]int) int {
	n := 0
	for range parts {
		select {
		case <-stop:
			return n
		default:
		}
		n++
	}
	return n
}

// mergeUnrelatedSort ranges a map of buckets and sorts each bucket's
// members, but not the buckets: they still come out in map order.
//
//sitlint:detmerge-root
func mergeUnrelatedSort(buckets map[string][]int) [][]int {
	var groups [][]int
	for _, b := range buckets { // want `map iteration on the deterministic merge path.*reachable from merge root mergeUnrelatedSort\)`
		ids := make([]int, 0, len(b))
		for _, id := range b {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		groups = append(groups, ids)
	}
	return groups
}

// keysSorted collects the keys into a slice it sorts through a
// conversion — the idiom, clean.
//
//sitlint:detmerge-root
func keysSorted(m map[int]bool) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sort.Sort(sort.IntSlice(keys))
	return keys
}
