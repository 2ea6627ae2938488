// Fixture for the mapiter analyzer: the blessed order-insensitive shapes
// pass, order-sensitive bodies are flagged, and the allow comment
// suppresses.
package mapiter

import "slices"

// collect is the idiom of sortedPages in proto/errors.go: gather keys, sort,
// then work.
func collect(m map[int]string) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// guardedCollect mixes conditions, integer counters and continue — all
// order-insensitive.
func guardedCollect(m map[int][]int) (pages []int, n int) {
	for k, vs := range m {
		if len(vs) == 0 {
			continue
		}
		n += len(vs)
		pages = append(pages, k)
	}
	return
}

// transform writes an element indexed by the loop's own key: each
// iteration touches a distinct slot, so order cannot matter.
func transform(dst map[int]int, src map[int]int) {
	for k, v := range src {
		dst[k] = v * 2
	}
}

func drain(m map[int]bool) {
	for k := range m {
		delete(m, k)
	}
}

// sumFloat is flagged: float addition is not associative, so the last bits
// of the sum depend on visit order.
func sumFloat(m map[int]float64) float64 {
	var s float64
	for _, v := range m { // want `iteration order is nondeterministic`
		s += v
	}
	return s
}

// visit is flagged: the callback observes the visit order directly.
func visit(m map[int]int, f func(int)) {
	for k := range m { // want `iteration order is nondeterministic`
		f(k)
	}
}

// lastWins is flagged: a plain assignment keeps whichever key the runtime
// happened to visit last.
func lastWins(m map[int]int) (last int) {
	for k := range m { // want `iteration order is nondeterministic`
		last = k
	}
	return
}

func sanctioned(m map[int]int, f func(int)) {
	//dsmvet:allow mapiter — fixture: callback is commutative by contract
	for k := range m {
		f(k)
	}
}
