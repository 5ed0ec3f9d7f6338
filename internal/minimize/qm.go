// Package minimize implements two-level Boolean minimization with the
// Quine–McCluskey procedure plus a prime-implicant cover search. It stands
// in for ESPRESSO in the ANF→CNF converter's Karnaugh-map path: Bosphorus
// uses a logic minimizer to emit a near-minimal clause representation of a
// low-arity polynomial instead of the bulkier Tseitin encoding.
//
// Like ESPRESSO, the cover step is heuristic beyond the essential primes
// (greedy set cover), which is fast and near-optimal in practice; an exact
// Petrick-style search is used when the residual problem is tiny.
package minimize

import (
	"fmt"
	"math/bits"
	"sort"
)

// Cube is a product term over n variables: variable i is fixed to bit i of
// Val when bit i of Mask is set, and unconstrained (don't-care) otherwise.
type Cube struct {
	Mask uint32
	Val  uint32
}

// Covers reports whether the cube contains the minterm m.
func (c Cube) Covers(m uint32) bool { return m&c.Mask == c.Val }

// FixedVars returns the number of constrained variables.
func (c Cube) FixedVars() int { return bits.OnesCount32(c.Mask) }

// String renders the cube as a pattern like "1-0-" (variable 0 leftmost).
func (c Cube) String() string {
	if c.Mask == 0 {
		return "-"
	}
	n := 32 - bits.LeadingZeros32(c.Mask)
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		switch {
		case c.Mask>>uint(i)&1 == 0:
			out[i] = '-'
		case c.Val>>uint(i)&1 == 1:
			out[i] = '1'
		default:
			out[i] = '0'
		}
	}
	return string(out)
}

// MaxVars is the largest variable count Minimize accepts.
const MaxVars = 20

// Minimize returns a small set of cubes whose union is exactly the given
// on-set over n variables (n ≤ MaxVars). Minterms are bit patterns: bit i
// is variable i's value. The result covers every on-set minterm and no
// off-set minterm.
func Minimize(n int, onset []uint32) []Cube {
	if n < 0 || n > MaxVars {
		panic(fmt.Sprintf("minimize: unsupported variable count %d", n))
	}
	if len(onset) == 0 {
		return nil
	}
	full := uint32(1)<<uint(n) - 1
	// Deduplicate the on-set.
	inOn := map[uint32]bool{}
	var ms []uint32
	for _, m := range onset {
		if m > full {
			panic("minimize: minterm out of range")
		}
		if !inOn[m] {
			inOn[m] = true
			ms = append(ms, m)
		}
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	if len(ms) == 1<<uint(n) {
		return []Cube{{Mask: 0, Val: 0}} // constant-1 function
	}
	primes := primeImplicants(full, ms)
	return cover(ms, primes)
}

// primeImplicants runs the QM merging passes: cubes differing in exactly
// one fixed bit merge into a cube with that bit free; cubes that never
// merge are prime.
func primeImplicants(full uint32, onset []uint32) []Cube {
	type key struct{ mask, val uint32 }
	current := map[key]bool{} // value: merged into a bigger cube?
	for _, m := range onset {
		current[key{full, m}] = false
	}
	var primes []Cube
	for len(current) > 0 {
		next := map[key]bool{}
		keys := make([]key, 0, len(current))
		for k := range current {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].mask != keys[j].mask {
				return keys[i].mask < keys[j].mask
			}
			return keys[i].val < keys[j].val
		})
		// Try to merge each pair with the same mask differing in one bit.
		byMask := map[uint32][]key{}
		for _, k := range keys {
			byMask[k.mask] = append(byMask[k.mask], k)
		}
		merged := map[key]bool{}
		for _, group := range byMask {
			for i := 0; i < len(group); i++ {
				for j := i + 1; j < len(group); j++ {
					diff := group[i].val ^ group[j].val
					if bits.OnesCount32(diff) != 1 {
						continue
					}
					merged[group[i]] = true
					merged[group[j]] = true
					nk := key{group[i].mask &^ diff, group[i].val &^ diff}
					next[nk] = false
				}
			}
		}
		for _, k := range keys {
			if !merged[k] {
				primes = append(primes, Cube{Mask: k.mask, Val: k.val})
			}
		}
		current = next
	}
	return primes
}

// cover selects a subset of primes covering all minterms: essential primes
// first, then exact search if the residue is tiny, else greedy.
func cover(minterms []uint32, primes []Cube) []Cube {
	coveredBy := make([][]int, len(minterms)) // minterm index -> prime indices
	for pi, p := range primes {
		for mi, m := range minterms {
			if p.Covers(m) {
				coveredBy[mi] = append(coveredBy[mi], pi)
			}
		}
	}
	chosen := map[int]bool{}
	coveredM := make([]bool, len(minterms))
	// Essential primes: sole cover of some minterm.
	for mi := range minterms {
		if len(coveredBy[mi]) == 1 {
			chosen[coveredBy[mi][0]] = true
		}
	}
	markCovered := func() {
		for mi, m := range minterms {
			if coveredM[mi] {
				continue
			}
			for pi := range chosen {
				if primes[pi].Covers(m) {
					coveredM[mi] = true
					break
				}
			}
		}
	}
	markCovered()
	remaining := func() []int {
		var out []int
		for mi := range minterms {
			if !coveredM[mi] {
				out = append(out, mi)
			}
		}
		return out
	}
	if rem := remaining(); len(rem) > 0 {
		if len(rem) <= 16 && len(primes) <= 24 {
			exactCover(minterms, primes, chosen, rem, coveredBy)
		} else {
			greedyCover(minterms, primes, chosen, coveredM)
		}
	}
	out := make([]Cube, 0, len(chosen))
	idxs := make([]int, 0, len(chosen))
	for pi := range chosen {
		idxs = append(idxs, pi)
	}
	sort.Ints(idxs)
	for _, pi := range idxs {
		out = append(out, primes[pi])
	}
	return out
}

// greedyCover repeatedly picks the prime covering the most uncovered
// minterms (larger cubes break ties).
func greedyCover(minterms []uint32, primes []Cube, chosen map[int]bool, coveredM []bool) {
	for {
		best, bestCount, bestFree := -1, 0, -1
		for pi, p := range primes {
			if chosen[pi] {
				continue
			}
			count := 0
			for mi, m := range minterms {
				if !coveredM[mi] && p.Covers(m) {
					count++
				}
			}
			free := 32 - p.FixedVars()
			if count > bestCount || (count == bestCount && count > 0 && free > bestFree) {
				best, bestCount, bestFree = pi, count, free
			}
		}
		if best < 0 || bestCount == 0 {
			return
		}
		chosen[best] = true
		for mi, m := range minterms {
			if primes[best].Covers(m) {
				coveredM[mi] = true
			}
		}
	}
}

// exactCover finds a minimum set of additional primes covering the
// remaining minterms by branch and bound over the (small) residual
// problem, in the spirit of Petrick's method.
func exactCover(minterms []uint32, primes []Cube, chosen map[int]bool, rem []int, coveredBy [][]int) {
	// Candidate primes: those covering at least one remaining minterm.
	candSet := map[int]bool{}
	for _, mi := range rem {
		for _, pi := range coveredBy[mi] {
			if !chosen[pi] {
				candSet[pi] = true
			}
		}
	}
	cands := make([]int, 0, len(candSet))
	for pi := range candSet {
		cands = append(cands, pi)
	}
	sort.Ints(cands)
	// Bitmask over rem for each candidate.
	masks := make([]uint32, len(cands))
	for ci, pi := range cands {
		for ri, mi := range rem {
			if primes[pi].Covers(minterms[mi]) {
				masks[ci] |= 1 << uint(ri)
			}
		}
	}
	target := uint32(1)<<uint(len(rem)) - 1
	bestSel := []int(nil)
	var search func(idx int, cur uint32, sel []int)
	search = func(idx int, cur uint32, sel []int) {
		if cur == target {
			if bestSel == nil || len(sel) < len(bestSel) {
				bestSel = append([]int(nil), sel...)
			}
			return
		}
		if idx >= len(cands) {
			return
		}
		if bestSel != nil && len(sel)+1 >= len(bestSel) {
			return // cannot improve
		}
		// Branch on the first uncovered minterm: try each candidate
		// covering it.
		var first int
		for first = 0; first < len(rem); first++ {
			if cur>>uint(first)&1 == 0 {
				break
			}
		}
		for ci := range cands {
			if masks[ci]>>uint(first)&1 == 1 {
				search(idx+1, cur|masks[ci], append(sel, ci))
			}
		}
	}
	search(0, 0, nil)
	for _, ci := range bestSel {
		chosen[cands[ci]] = true
	}
}
