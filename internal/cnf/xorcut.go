package cnf

import "math/bits"

// CancelPairs returns vars without the variables that occur an even
// number of times (x ⊕ x = 0), each remaining variable once, in the order
// of its first occurrence.
func CancelPairs(vars []Var) []Var {
	vs := make([]Var, 0, len(vars))
	for i, v := range vars {
		odd, first := false, true
		for j, w := range vars {
			if w == v {
				odd = !odd
				first = first && j >= i
			}
		}
		if odd && first {
			vs = append(vs, v)
		}
	}
	return vs
}

// XorCut encodes v1 ⊕ … ⊕ vk = rhs over CancelPairs(vars) as the 2^(k−1)
// clauses that each block one assignment of the wrong parity. It passes
// them to emit in the order of the blocked assignment read as a binary
// number (bit i set: vi true, and vi negated in the clause), stopping at
// the first emit that returns false; XorCut then returns false. When
// every variable cancels, rhs = 1 yields the empty clause and rhs = 0
// nothing. emit must not keep the clause: its storage is reused.
func XorCut(rhs bool, vars []Var, emit func(Clause) bool) bool {
	vs := CancelPairs(vars)
	lits := make(Clause, len(vs))
	for mask := 0; mask < 1<<len(vs); mask++ {
		if (bits.OnesCount(uint(mask))&1 == 1) == rhs {
			continue // right parity: allowed
		}
		for i, v := range vs {
			lits[i] = MkLit(v, mask>>i&1 == 1)
		}
		if !emit(lits) {
			return false
		}
	}
	return true
}

// AddXorCut appends the XorCut clauses of v1 ⊕ … ⊕ vk = rhs to f.
func (f *Formula) AddXorCut(rhs bool, vars ...Var) {
	XorCut(rhs, vars, func(c Clause) bool {
		f.AddClause(c...)
		return true
	})
}
