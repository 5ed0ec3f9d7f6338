package gf2

import (
	"math"
	"math/bits"
	"sync"
)

// SparseRREF reduces a GF(2) system given as sparse rows to reduced row
// echelon form. rows[i] lists the set columns of row i, strictly
// ascending and each below cols; the lists are only read. red holds the
// nonzero rows of the unique RREF sorted by leading column, as ascending
// column lists: the rows RREF and RREFM4R leave on top of the dense matrix
// of the same system. With track, combos[i] lists, strictly ascending, the
// input rows whose XOR is red[i]; without, combos is nil.
//
// The kernel never builds the dense matrix. Each input row is loaded into
// one packed accumulator and its leading entries are cleared against a
// column → pivot table until its lead is a column no pivot holds (the row
// becomes that column's pivot) or the row vanishes. The pivots are then
// back-substituted in descending lead order: each is XORed with the final
// rows of the pivots its own entries name, which hold no other pivot
// column. Work scales with the entries the rows hold, not with
// rows × columns — the XL and ElimLin linearizations are wide and nearly
// empty, and stay so after reduction. Tracking carries each row's
// combination along through a second accumulator, one bit per input row.
//
// The accumulators, the pivot table and the stores of pivot rows are
// pooled, so a call allocates only the rows it returns.
func SparseRREF(rows [][]int32, cols int, track bool) (red, combos [][]int32) {
	kinds := 1 // rows only; 2 = rows and combinations
	if track {
		kinds = 2
	}
	// The workspace goes back to the pool only on a normal return: a call
	// that panics (a column out of range) may leave it dirty.
	ws := getSparseWorkspace(cols, len(rows), track)
	for i, row := range rows {
		if len(row) == 0 {
			continue
		}
		r := [2]wordRange{{int(row[0]) / wordBits, xorEntries(ws.acc[0], row)}, {i / wordBits, i / wordBits}}
		if track {
			XorBit(ws.acc[1], i)
		}
		lead := ws.reduce(&r, kinds)
		if lead < 0 {
			for k := 0; k < kinds; k++ {
				clear(ws.acc[k][r[k].lo : r[k].hi+1])
			}
			continue
		}
		ws.pivotOf[lead] = int32(len(ws.pivots))
		ws.pivots = append(ws.pivots, sparsePivot{lead: int32(lead)})
		ws.settle(&ws.pivots[len(ws.pivots)-1], &r, kinds)
	}
	if len(ws.pivots) == 0 {
		putSparseWorkspace(ws)
		return nil, nil
	}
	for c := cols - 1; c >= 0; c-- {
		if p := ws.pivotOf[c]; p >= 0 {
			ws.backSubstitute(p, kinds)
		}
	}
	red = ws.collect(0, cols)
	if track {
		combos = ws.collect(1, cols)
	}
	for _, pv := range ws.pivots {
		ws.pivotOf[pv.lead] = -1
	}
	putSparseWorkspace(ws)
	return red, combos
}

// span is a half-open range of a workspace store.
type span struct{ lo, hi int32 }

// wordRange bounds, inclusively, the words of an accumulator that may hold
// set bits.
type wordRange struct{ lo, hi int }

// noWords is the range of a zero accumulator.
var noWords = [2]wordRange{{math.MaxInt, -1}, {math.MaxInt, -1}}

// sparsePivot is one pivot of the elimination: its leading column and
// where the current versions of its row (kind 0) and, tracked, its
// combination (kind 1) sit in the stores.
type sparsePivot struct {
	lead int32
	span [2]span
}

// sparseWorkspace is the pooled scratch of SparseRREF. Kind 0 is rows,
// kind 1 combinations. Between calls the accumulators are all zero and the
// pivot table is all -1, over their full capacity, so a call only sizes
// them.
type sparseWorkspace struct {
	acc     [2][]uint64 // packed accumulators: one bit per column, per input row
	store   [2][]int32  // every version of every pivot row and combination
	pivotOf []int32     // column → index into pivots, -1 when no pivot leads there
	pivots  []sparsePivot
}

var sparsePool = sync.Pool{New: func() interface{} { return new(sparseWorkspace) }}

// getSparseWorkspace returns a workspace sized for cols columns and, when
// tracking, nrows input rows.
func getSparseWorkspace(cols, nrows int, track bool) *sparseWorkspace {
	ws := sparsePool.Get().(*sparseWorkspace)
	ws.acc[0] = zeroWords(ws.acc[0], Words(cols))
	if track {
		ws.acc[1] = zeroWords(ws.acc[1], Words(nrows))
	}
	if cap(ws.pivotOf) < cols {
		ws.pivotOf = make([]int32, cols)
		for c := range ws.pivotOf {
			ws.pivotOf[c] = -1
		}
	}
	ws.pivotOf = ws.pivotOf[:cols]
	return ws
}

// zeroWords returns buf resized to n words; its backing is all zero.
func zeroWords(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

func putSparseWorkspace(ws *sparseWorkspace) {
	ws.pivots = ws.pivots[:0]
	ws.store[0] = ws.store[0][:0]
	ws.store[1] = ws.store[1][:0]
	sparsePool.Put(ws)
}

// reduce clears the row accumulator's leading entries against the pivot
// table: while its lowest set column leads a pivot, that pivot is added.
// A pivot row holds no column below its lead, so the scan only moves
// forward. It returns the leading column, or -1 once the row is zero.
//
//bosphorus:hotpath sparse elimination: clear a row's leading entries
func (ws *sparseWorkspace) reduce(r *[2]wordRange, kinds int) int {
	acc, w := ws.acc[0], r[0].lo
	for {
		for w <= r[0].hi && acc[w] == 0 {
			w++
		}
		if w > r[0].hi {
			return -1
		}
		c := w*wordBits + bits.TrailingZeros64(acc[w])
		p := ws.pivotOf[c]
		if p < 0 {
			return c
		}
		ws.add(p, r, kinds)
	}
}

// backSubstitute makes pivot p's row final: it adds every other pivot its
// entries name. Pivots leading after p's lead are final already (they go
// in descending lead order), and a final row holds no pivot column but
// its lead, so each addition clears exactly one pivot column and the
// result holds none but p's lead.
//
//bosphorus:hotpath sparse elimination: back-substitute a pivot
func (ws *sparseWorkspace) backSubstitute(p int32, kinds int) {
	pv := &ws.pivots[p]
	row := ws.store[0][pv.span[0].lo:pv.span[0].hi]
	k := 1
	for k < len(row) && ws.pivotOf[row[k]] < 0 {
		k++
	}
	if k == len(row) {
		return
	}
	r := noWords
	ws.add(p, &r, kinds)
	for _, c := range row[k:] {
		if q := ws.pivotOf[c]; q >= 0 {
			ws.add(q, &r, kinds)
		}
	}
	ws.settle(pv, &r, kinds)
}

// add XORs pivot p's current row and, for kinds 2, its combination into
// the accumulators, widening their ranges r.
//
//bosphorus:hotpath sparse elimination: add a pivot
func (ws *sparseWorkspace) add(p int32, r *[2]wordRange, kinds int) {
	pv := &ws.pivots[p]
	for k := 0; k < kinds; k++ {
		ents := ws.store[k][pv.span[k].lo:pv.span[k].hi]
		r[k].lo = min(r[k].lo, int(ents[0])/wordBits)
		r[k].hi = max(r[k].hi, xorEntries(ws.acc[k], ents))
	}
}

// xorEntries flips the listed bits of a packed row and returns the word
// of the last one. ents must be nonempty.
//
//bosphorus:hotpath sparse elimination: XOR a column list into a packed row
func xorEntries(acc []uint64, ents []int32) int {
	for _, c := range ents {
		acc[uint32(c)/wordBits] ^= 1 << (uint32(c) % wordBits)
	}
	return int(uint32(ents[len(ents)-1]) / wordBits)
}

// settle moves the accumulators' set bits, ascending, to the ends of the
// stores as pivot pv's current row and combination, clearing them. The
// stores are pooled, so their growth amortizes across calls.
//
//bosphorus:hotpath sparse elimination: store a pivot
func (ws *sparseWorkspace) settle(pv *sparsePivot, r *[2]wordRange, kinds int) {
	for k := 0; k < kinds; k++ {
		pv.span[k].lo = int32(len(ws.store[k]))
		acc := ws.acc[k]
		for w := r[k].lo; w <= r[k].hi; w++ {
			for word := acc[w]; word != 0; word &= word - 1 {
				ws.store[k] = append(ws.store[k], int32(w*wordBits+bits.TrailingZeros64(word)))
			}
			acc[w] = 0
		}
		pv.span[k].hi = int32(len(ws.store[k]))
	}
}

// collect copies the final row (kind 0) or combination (kind 1) of every
// pivot, in ascending lead order, into one fresh backing array.
func (ws *sparseWorkspace) collect(kind, cols int) [][]int32 {
	n := 0
	for _, pv := range ws.pivots {
		n += int(pv.span[kind].hi - pv.span[kind].lo)
	}
	flat := make([]int32, 0, n)
	out := make([][]int32, 0, len(ws.pivots))
	for c := 0; c < cols; c++ {
		if p := ws.pivotOf[c]; p >= 0 {
			s := ws.pivots[p].span[kind]
			start := len(flat)
			flat = append(flat, ws.store[kind][s.lo:s.hi]...)
			out = append(out, flat[start:len(flat):len(flat)])
		}
	}
	return out
}
