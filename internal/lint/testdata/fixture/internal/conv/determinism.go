// Package conv is a lint fixture: its import path ends in internal/conv,
// so the determinism analyzer treats it as a target. The converter's
// clause order steers every SAT step's search, so a cover memo may be
// looked up but never ranged over to emit clauses.
package conv

type cube struct{ mask, val uint32 }

// emitFromMemo walks the memo itself: the clause order would follow map
// iteration order.
func emitFromMemo(covers map[string][]cube) [][]cube {
	var clauses [][]cube
	for _, cs := range covers { // want determinism "map iteration order"
		clauses = append(clauses, cs)
	}
	return clauses
}

// emitInInputOrder only looks the memo up, in the order of its keys'
// polynomials.
func emitInInputOrder(covers map[string][]cube, keys []string) [][]cube {
	var clauses [][]cube
	for _, k := range keys {
		clauses = append(clauses, covers[k])
	}
	return clauses
}
