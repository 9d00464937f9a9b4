// Package mapfix exercises maporder inside the deterministic set (it lives
// under repro/internal/sim): unsorted map ranges are flagged, sorted and
// waived ones are not, and a waiver with no map range to waive is flagged.
package mapfix

import (
	"maps"
	"slices"
	"sort"
)

// Emit leaks map order into its output: both loops must be flagged.
func Emit(m map[string]int) []int {
	var out []int
	for _, v := range m { // want `range over map m in deterministic package`
		out = append(out, v)
	}
	for k := range maps.Keys(m) { // want `range over map maps\.Keys\(m\) in deterministic package`
		out = append(out, m[k])
	}
	return out
}

// EmitSorted iterates sorted keys; ranging over slices is never flagged,
// and the collection loop carries a waiver.
func EmitSorted(m map[string]int) []int {
	keys := make([]string, 0, len(m))
	//quanto:ordered key collection is sorted below before use
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]int, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	for _, k := range slices.Sorted(maps.Keys(m)) {
		out = append(out, m[k])
	}
	return out
}

// Any is order-independent and says so inline.
func Any(m map[string]bool) bool {
	for _, v := range m { //quanto:ordered existence test is order-independent
		if v {
			return true
		}
	}
	return false
}

// Unwaived has a waiver marker with no reason, which must not count.
func Unwaived(m map[string]bool) bool {
	//quanto:ordered
	for _, v := range m { // want `range over map m in deterministic package`
		if v {
			return true
		}
	}
	return false
}

// Stale carries waivers that waive nothing: one above a slice range, one
// trailing a statement, and one two lines above a map range, which its own
// waiver covers.
func Stale(s []int, m map[string]int) int {
	n := 0
	/* want `//quanto:ordered waives nothing` */ //quanto:ordered a slice range needs no waiver
	for _, v := range s {
		n += v
	}
	n++ /* want `//quanto:ordered waives nothing` */ //quanto:ordered no range here
	/* want `//quanto:ordered waives nothing` */ //quanto:ordered too far above the range
	n--
	//quanto:ordered the sum is order-independent
	for _, v := range m {
		n += v
	}
	return n
}
