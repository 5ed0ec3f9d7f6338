package gf2

import "math/bits"

// RREF reduces the matrix in place to reduced row echelon form using plain
// Gauss–Jordan elimination with partial (first-nonzero) pivoting, and
// returns the rank. After the call, pivot rows are sorted by leading column
// and every pivot column has exactly one set bit.
func (m *Matrix) RREF() int {
	rank := 0
	for col := 0; col < m.cols && rank < m.rows; col++ {
		// Find a pivot row at or below rank with a 1 in this column.
		pivot := -1
		for r := rank; r < m.rows; r++ {
			if m.Get(r, col) {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		m.SwapRows(rank, pivot)
		// Eliminate the column from every other row.
		prow := m.Row(rank)
		for r := 0; r < m.rows; r++ {
			if r == rank || !m.Get(r, col) {
				continue
			}
			row := m.Row(r)
			for w := range row {
				row[w] ^= prow[w]
			}
		}
		rank++
	}
	return rank
}

// Rank returns the rank of the matrix without modifying it.
func (m *Matrix) Rank() int {
	return m.Clone().RREF()
}

// fastCacheWords is the cache working set the elimination kernel blocks
// for: 32768 words = 256 KiB. A round whose combination table fits it is
// applied in one fused pass; a larger one is applied in column strips of
// the table that fit it, and the table itself is kept within 16 times it.
// These choices never change the eliminated matrix (every path computes
// the same XORs), only the run time. It is a variable so tests can lower
// it to route small matrices through the blocked path.
var fastCacheWords = 32768

// minStripWords keeps strips from degenerating below one cache line worth
// of useful streaming per row visit.
const minStripWords = 8

// stripWordsFor returns the column-strip width for a 2^np-entry table:
// the widest strip whose table slice still fits fastCacheWords, clamped
// below by minStripWords.
func stripWordsFor(np int) int {
	w := fastCacheWords >> uint(np)
	if w < minStripWords {
		w = minStripWords
	}
	return w
}

// m4rK picks the kernel's table width: roughly log2 of the matrix size,
// clamped to [1, 8] so tables stay small, then narrowed to account for the
// row stride — a 2^k-entry table of stride-word rows must stay within 16
// times fastCacheWords or the per-round build cost stops amortizing and
// the blocked application thrashes. Wide-and-short matrices (large
// stride) therefore step k down; square benchmark shapes keep the full
// width.
func m4rK(rows, cols, stride int) int {
	n := rows
	if cols < n {
		n = cols
	}
	k := bits.Len(uint(n)) - 2
	if k < 1 {
		k = 1
	}
	if k > 8 {
		k = 8
	}
	for k > 1 && (1<<uint(k))*stride > 16*fastCacheWords {
		k--
	}
	return k
}

// RREFM4R reduces the matrix in place to reduced row echelon form using
// the Method of the Four Russians and returns the rank. It processes up
// to k pivot columns per round: the k pivot rows are mutually reduced, a
// 2^k-entry table of all their GF(2) combinations is built Gray-code
// style, and every other row is cleared in one table lookup plus one
// word-parallel XOR — the elimination algorithm that gives M4RI its name
// and its O(n³ / log n) behaviour.
//
// Beyond the classic algorithm the kernel keeps three pieces of hot-path
// structure:
//
//   - Per-row lead tracking: the leading column of every unfinished row is
//     maintained across rounds, so pivot selection is one scan of an int32
//     array (the k smallest distinct leads) instead of a per-column probe
//     of the matrix — empty columns cost nothing.
//   - Skip-zero prefix: every table row is a combination of pivot rows,
//     all of which lead at or after the round's first pivot column, so the
//     build and the application both run over [startWord, stride) only.
//   - Cache blocking: when the live table exceeds fastCacheWords, the
//     application sweep runs in column strips — masks are extracted once
//     per row into a workspace buffer, then each strip of the table is
//     streamed over all rows while it is hot.
//
// The workspace (table, leads, masks) is pooled, so steady-state rounds
// allocate nothing.
func (m *Matrix) RREFM4R() int {
	if m.rows == 0 || m.cols == 0 || m.stride == 0 {
		return 0
	}
	k := m4rK(m.rows, m.cols, m.stride)
	ws := getM4RWorkspace(m.stride, k, m.rows)
	defer putM4RWorkspace(ws)

	for r := 0; r < m.rows; r++ {
		ws.leads[r] = m.leadColFrom(r, 0)
	}
	rank := 0
	for rank < m.rows {
		np := m.gatherPivots(ws, rank, k)
		if np == 0 {
			break
		}
		startWord := int(ws.pcCol[0]) / wordBits
		m.buildTable(ws, rank, np, startWord)
		m.applyRound(ws, rank, np, startWord)
		rank += np
	}
	// Pivot gathering takes leads in whatever order the rounds produce
	// them, so finish with a compaction pass that restores canonical RREF
	// row order (pivot rows by leading column, zero rows last).
	m.sortRowsByLeading()
	return rank
}

// leadColFrom returns the leading column of row r scanning from the given
// word, or m.cols when the row has no set bit in a valid column (the
// zero-row sentinel used by the lead-tracking arrays).
func (m *Matrix) leadColFrom(r, fromWord int) int32 {
	row := m.Row(r)
	for w := fromWord; w < len(row); w++ {
		if word := row[w]; word != 0 {
			c := w*wordBits + bits.TrailingZeros64(word)
			if c >= m.cols {
				return int32(m.cols)
			}
			return int32(c)
		}
	}
	return int32(m.cols)
}

// gatherPivots selects the next pivot block: the rows holding the (up to k)
// smallest distinct leading columns among rows ≥ rank, preferring the
// smallest row index per column. The chosen rows are swapped into the
// contiguous block [rank, rank+np) and mutually reduced, and the workspace
// pivot descriptors (pcCol, pcWord, pcBit) are filled in ascending column
// order. Returns the number of pivots gathered; 0 means every remaining
// row is zero.
//
// Rows that share a leading column with a chosen pivot are left alone: the
// round's table application clears their pivot-column bits, and whatever
// lead they reduce to is picked up by a later round. RREF is unique, so
// the final matrix is unaffected by this scheduling choice.
func (m *Matrix) gatherPivots(ws *m4rWorkspace, rank, k int) int {
	np := 0
	for r := rank; r < m.rows; r++ {
		lead := ws.leads[r]
		if int(lead) >= m.cols {
			continue // zero row
		}
		// Full list and lead at or beyond its maximum: cannot improve it.
		if np == k && lead >= ws.pcCol[k-1] {
			continue
		}
		// Insertion position in the (tiny, ≤ k) sorted candidate list.
		pos := np
		dup := false
		for i := 0; i < np; i++ {
			if ws.pcCol[i] == lead {
				dup = true
				break
			}
			if ws.pcCol[i] > lead {
				pos = i
				break
			}
		}
		if dup {
			continue
		}
		if pos == np {
			if np == k {
				continue // larger than every candidate, list full
			}
			ws.pcCol[np] = lead
			ws.pcRow[np] = int32(r)
			np++
			continue
		}
		if np < k {
			np++
		}
		for j := np - 1; j > pos; j-- {
			ws.pcCol[j] = ws.pcCol[j-1]
			ws.pcRow[j] = ws.pcRow[j-1]
		}
		ws.pcCol[pos] = lead
		ws.pcRow[pos] = int32(r)
	}
	// Swap the chosen rows into the block, tracking displaced candidates.
	for i := 0; i < np; i++ {
		src := int(ws.pcRow[i])
		dst := rank + i
		if src != dst {
			m.SwapRows(src, dst)
			ws.leads[src], ws.leads[dst] = ws.leads[dst], ws.leads[src]
			for j := i + 1; j < np; j++ {
				if int(ws.pcRow[j]) == dst {
					ws.pcRow[j] = int32(src)
				}
			}
		}
	}
	// Mutually reduce the block: clear pivot column j from every earlier
	// pivot row. Pivot row j leads at pcCol[j], so the XOR never
	// reintroduces earlier columns and can start at that column's word.
	for j := 1; j < np; j++ {
		cj := int(ws.pcCol[j])
		wj := cj / wordBits
		bj := uint(cj) % wordBits
		rowj := m.Row(rank + j)[wj:]
		for i := 0; i < j; i++ {
			rowi := m.Row(rank + i)
			if rowi[wj]>>bj&1 == 1 {
				xorWords(rowi[wj:], rowj)
			}
		}
	}
	for i := 0; i < np; i++ {
		c := int(ws.pcCol[i])
		ws.pcWord[i] = c / wordBits
		ws.pcBit[i] = uint(c) % wordBits
	}
	return np
}

// buildTable fills the workspace combination table for the current pivot
// block over the live suffix [startWord, stride): table[mask] = XOR of the
// pivot rows whose bit is set in mask, built incrementally (Gray-code
// style) so each entry costs one row XOR.
//
//bosphorus:hotpath M4R combination-table build into the pooled workspace
func (m *Matrix) buildTable(ws *m4rWorkspace, rank, np, startWord int) {
	tw := m.stride - startWord
	ws.tableWidth = tw
	zero := ws.tableRow(0)
	for w := range zero {
		zero[w] = 0
	}
	for mask := 1; mask < 1<<uint(np); mask++ {
		low := bits.TrailingZeros(uint(mask))
		prev := ws.tableRow(mask & (mask - 1))
		row := ws.tableRow(mask)
		pr := m.Row(rank + low)[startWord:]
		for w := range row {
			row[w] = prev[w] ^ pr[w]
		}
	}
}

// applyRound clears the pivot columns from every non-pivot row: the row's
// bits at the np pivot columns index the combination table, whose entry is
// XORed into the row's live suffix, and the row's tracked lead is
// rescanned. When the live table fits fastCacheWords the sweep is a single
// fused pass; otherwise it is column-blocked — masks are extracted into
// the workspace first, then each table strip is streamed over all rows
// while it is cache-resident.
//
//bosphorus:hotpath M4R table-apply sweep
func (m *Matrix) applyRound(ws *m4rWorkspace, rank, np, startWord int) {
	m.fillMasks(ws, rank, np)
	masks := ws.masks
	tw := m.stride - startWord
	if (1<<uint(np))*tw <= fastCacheWords {
		// Fused: table XOR and lead rescan in one pass per row.
		for r := 0; r < m.rows; r++ {
			mask := masks[r]
			if mask == 0 {
				continue
			}
			base := r * m.stride
			xorWords(m.data[base+startWord:base+m.stride], ws.tableRow(int(mask)))
			if r >= rank+np {
				ws.leads[r] = m.leadColFrom(r, int(ws.leads[r])/wordBits)
			}
		}
		return
	}
	// Blocked: stream the table strip-by-strip over all rows.
	strip := stripWordsFor(np)
	for w0 := startWord; w0 < m.stride; w0 += strip {
		w1 := w0 + strip
		if w1 > m.stride {
			w1 = m.stride
		}
		toff := w0 - startWord
		tend := w1 - startWord
		for r := 0; r < m.rows; r++ {
			mask := masks[r]
			if mask == 0 {
				continue
			}
			base := r * m.stride
			xorWords(m.data[base+w0:base+w1], ws.tableRow(int(mask))[toff:tend])
		}
	}
	// Final pass: rescan leads of the touched unfinished rows. Bits below
	// the old lead were zero and stay zero (the table's support starts at
	// the first pivot column, which is at or after every candidate's
	// lead), so the rescan starts at the old lead's word.
	for r := rank + np; r < m.rows; r++ {
		if masks[r] != 0 {
			ws.leads[r] = m.leadColFrom(r, int(ws.leads[r])/wordBits)
		}
	}
}

// fillMasks extracts every row's table index (bit i = pivot column i) into
// ws.masks; the pivot block itself gets 0. The common dense case — the
// round's pivot columns are consecutive — reads the index with one or two
// word loads instead of np scattered probes.
//
//bosphorus:hotpath per-row table-index extraction
func (m *Matrix) fillMasks(ws *m4rWorkspace, rank, np int) {
	masks := ws.masks
	if ws.pcCol[np-1]-ws.pcCol[0] == int32(np-1) {
		c0 := int(ws.pcCol[0])
		w0, off := c0/wordBits, uint(c0)%wordBits
		low := uint64(1)<<uint(np) - 1
		spill := off+uint(np) > wordBits && w0+1 < m.stride
		for r := 0; r < m.rows; r++ {
			base := r * m.stride
			v := m.data[base+w0] >> off
			if spill {
				v |= m.data[base+w0+1] << (wordBits - off)
			}
			masks[r] = uint16(v & low)
		}
	} else {
		for r := 0; r < m.rows; r++ {
			base := r * m.stride
			mask := uint16(0)
			for i := 0; i < np; i++ {
				mask |= uint16(m.data[base+ws.pcWord[i]]>>ws.pcBit[i]&1) << uint(i)
			}
			masks[r] = mask
		}
	}
	for r := rank; r < rank+np; r++ {
		masks[r] = 0
	}
}

// sortRowsByLeading reorders rows so leading columns are strictly
// increasing, with zero rows last. Rows in RREF are unique per leading
// column, so a counting placement suffices.
func (m *Matrix) sortRowsByLeading() {
	type rowLead struct{ row, lead int }
	leads := make([]rowLead, m.rows)
	for r := 0; r < m.rows; r++ {
		l := m.LeadingCol(r)
		if l < 0 {
			l = m.cols
		}
		leads[r] = rowLead{r, l}
	}
	// Insertion sort on the lead column; matrices here are small enough and
	// usually nearly sorted already.
	for i := 1; i < len(leads); i++ {
		for j := i; j > 0 && leads[j].lead < leads[j-1].lead; j-- {
			leads[j], leads[j-1] = leads[j-1], leads[j]
			m.SwapRows(leads[j].row, leads[j-1].row)
			leads[j].row, leads[j-1].row = leads[j-1].row, leads[j].row
		}
	}
}

// NullSpace returns a basis of the right null space of m: every returned
// vector v (length Cols) satisfies m·v = 0. The basis vectors are packed
// bit vectors in the same layout as matrix rows.
func (m *Matrix) NullSpace() []*Matrix {
	r := m.Clone()
	r.RREF()
	// Identify pivot columns.
	pivotCol := make([]int, 0, m.rows)
	isPivot := make([]bool, m.cols)
	for row := 0; row < r.rows; row++ {
		c := r.LeadingCol(row)
		if c < 0 {
			break
		}
		pivotCol = append(pivotCol, c)
		isPivot[c] = true
	}
	var basis []*Matrix
	for free := 0; free < m.cols; free++ {
		if isPivot[free] {
			continue
		}
		v := NewMatrix(1, m.cols)
		v.Set(0, free, true)
		for row, pc := range pivotCol {
			if r.Get(row, free) {
				v.Set(0, pc, true)
			}
		}
		basis = append(basis, v)
	}
	return basis
}

// Solve finds one solution x to m·x = b, where b is a column vector given
// as a packed bit slice of length Rows. It returns (x, true) on success and
// (nil, false) if the system is inconsistent. Free variables are set to 0.
func (m *Matrix) Solve(b []bool) ([]bool, bool) {
	if len(b) != m.rows {
		panic("gf2: Solve rhs length mismatch")
	}
	// Build the augmented matrix [m | b]. Row() exposes the packed words,
	// so a caller can have smeared bits past column cols into the source
	// row's final partial word; mask the trailing word after the copy so
	// stale bits cannot land in (or beyond) the augmented column.
	aug := NewMatrix(m.rows, m.cols+1)
	mask := lastWordMask(m.cols)
	for r := 0; r < m.rows; r++ {
		dst := aug.Row(r)
		copy(dst, m.Row(r))
		if m.stride > 0 {
			dst[m.stride-1] &= mask
		}
		aug.Set(r, m.cols, b[r])
	}
	// M4R-accelerated reduction: same echelon form as RREF, an order of
	// magnitude less word work on the large systems the fragment router
	// feeds through here.
	aug.RREFM4R()
	x := make([]bool, m.cols)
	for r := 0; r < aug.rows; r++ {
		lead := aug.LeadingCol(r)
		if lead < 0 {
			break
		}
		if lead == m.cols {
			return nil, false // row 0...0 | 1: inconsistent
		}
		x[lead] = aug.Get(r, m.cols)
	}
	return x, true
}
