package sat

import "time"

// This file is the determinism half of the sat fixture: the import path
// ends in internal/sat, so the analyzer treats it as a target. The
// equivalences the binary-implication harvest returns become learnt facts
// in that order, so grouping literals by component must not follow map
// iteration order.

// badGroupByMap groups literals by component in a map and emits the
// groups in map order.
func badGroupByMap(comp []int32) [][]int32 {
	byComp := map[int32][]int32{}
	for l, c := range comp {
		byComp[c] = append(byComp[c], int32(l))
	}
	var out [][]int32
	for _, lits := range byComp { // want determinism "map iteration order"
		out = append(out, lits)
	}
	return out
}

// groupByCounting groups literals by component with a counting pass and
// emits the groups in component id order.
func groupByCounting(comp []int32, n int32) [][]int32 {
	start := make([]int32, n+1)
	for _, c := range comp {
		start[c+1]++
	}
	for c := int32(0); c < n; c++ {
		start[c+1] += start[c]
	}
	lits := make([]int32, len(comp))
	next := append([]int32(nil), start...)
	for l, c := range comp {
		lits[next[c]] = int32(l)
		next[c]++
	}
	out := make([][]int32, n)
	for c := range out {
		out[c] = lits[start[c]:start[c+1]]
	}
	return out
}

// badRestartOnClock restarts on the wall clock: the restart schedule,
// and with it the learnt clauses, would differ between identical runs.
func badRestartOnClock(last time.Time) bool {
	return time.Now().Sub(last) > time.Millisecond // want determinism "time.Now"
}

// deadlineExpired carries a reasoned suppression: a deadline the caller
// opts into bounds the search but never orders it.
func deadlineExpired(deadline time.Time) bool {
	//lint:ignore determinism deadline only: bounds the search, never ordering
	return !deadline.IsZero() && time.Now().After(deadline)
}
