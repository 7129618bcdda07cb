package detmerge_a

import "sort"

// LeakOrder ranges over a map with no sort — it carries the MapOrder
// fact and is flagged when called from a merge path in another
// package. It is not reachable from any root here, so no diagnostic
// lands in this file.
func LeakOrder(m map[int]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// SortedWalk collects and sorts in the same function — the sanctioned
// idiom, no MapOrder fact.
func SortedWalk(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// SortsOther ranges a map and sorts, but not what the range collects:
// the sort does not order the walk, so it carries the MapOrder fact.
func SortsOther(m map[int]int, other []int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v)
	}
	sort.Ints(other)
	return out
}
