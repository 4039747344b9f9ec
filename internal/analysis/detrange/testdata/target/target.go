// Package target exercises detrange inside its target set: the test
// harness type-checks it as repro/internal/report.
package target

import "sort"

// rawRange is the violation: map iteration order reaches the output
// slice.
func rawRange(m map[string]int) []int {
	var out []int
	for _, v := range m { // want "range over map m iterates in randomized order"
		out = append(out, v)
	}
	return out
}

// sortedKeys is the sanctioned shape: collect keys, sort, iterate the
// slice. The collection loop is the exempt append-key idiom.
func sortedKeys(m map[string]int) []int {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]int, 0, len(m))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// drain is the exempt clear idiom: deleting the range key from the
// ranged map is order-insensitive.
func drain(m map[string]int) {
	for k := range m {
		delete(m, k)
	}
}

// justified carries a detrange directive: an order-insensitive
// reduction over the values.
func justified(m map[string]int) int {
	best := 0
	//lint:detrange max over values is order-insensitive
	for _, v := range m { // want-suppressed "range over map m"
		if v > best {
			best = v
		}
	}
	return best
}

// bare shows that a directive without a justification suppresses
// nothing: the finding must survive.
func bare(m map[string]int) int {
	n := 0
	//lint:detrange
	for range m { // want "range over map m"
		n++
	}
	return n
}

// valueConsumed looks like key collection but appends the value, which
// is order-sensitive work: not exempt.
func valueConsumed(m map[string]int) []int {
	var out []int
	for _, v := range m { // want "range over map m"
		out = append(out, v)
	}
	return out
}
