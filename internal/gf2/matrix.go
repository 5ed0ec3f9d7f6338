// Package gf2 provides linear algebra over GF(2), the Galois field of two
// elements. It plays the role the M4RI library plays in Bosphorus: every
// XL and ElimLin step linearizes a polynomial system into a Boolean
// matrix and reduces it with Gauss–Jordan elimination.
//
// Those linearizations are thousands of columns wide and nearly empty, and
// stay so after reduction, so they never become dense matrices here:
// SparseRREF reduces them as one ascending column list per row, and can also
// list the input rows each reduced row sums (the provenance path). Dense
// matrices are stored row-major with 64 columns packed per machine word, so
// row operations (the inner loop of elimination) are word-parallel XORs.
// Besides the plain Gauss–Jordan kernel (behind Rank and NullSpace, and the
// tests' reference), the package implements the "Method of the Four
// Russians" elimination (M4R), the algorithm M4RI is named after, which
// processes pivot blocks of k rows at a time through a 2^k-entry combination
// table; the SAT solver's Gauss side-car and the fragment router's XOR solve
// run it.
package gf2

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Matrix is a dense matrix over GF(2). Rows are packed little-endian into
// 64-bit words: column c of row r lives at bit (c % 64) of word c/64.
type Matrix struct {
	rows, cols int
	stride     int // words per row
	data       []uint64
}

// NewMatrix returns a zero matrix with the given dimensions.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("gf2: invalid dimensions %dx%d", rows, cols))
	}
	stride := (cols + wordBits - 1) / wordBits
	return &Matrix{
		rows:   rows,
		cols:   cols,
		stride: stride,
		data:   make([]uint64, rows*stride),
	}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Row returns the packed words of row r. The slice aliases the matrix
// storage; callers may mutate it to mutate the row.
func (m *Matrix) Row(r int) []uint64 {
	return m.data[r*m.stride : (r+1)*m.stride : (r+1)*m.stride]
}

// Get returns the bit at (r, c).
func (m *Matrix) Get(r, c int) bool {
	m.check(r, c)
	return m.data[r*m.stride+c/wordBits]>>(uint(c)%wordBits)&1 == 1
}

// Set sets the bit at (r, c) to v.
func (m *Matrix) Set(r, c int, v bool) {
	m.check(r, c)
	w := &m.data[r*m.stride+c/wordBits]
	mask := uint64(1) << (uint(c) % wordBits)
	if v {
		*w |= mask
	} else {
		*w &^= mask
	}
}

// Flip toggles the bit at (r, c).
func (m *Matrix) Flip(r, c int) {
	m.check(r, c)
	m.data[r*m.stride+c/wordBits] ^= uint64(1) << (uint(c) % wordBits)
}

func (m *Matrix) check(r, c int) {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		panic(fmt.Sprintf("gf2: index (%d,%d) out of %dx%d", r, c, m.rows, m.cols))
	}
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	n := &Matrix{rows: m.rows, cols: m.cols, stride: m.stride}
	n.data = append([]uint64(nil), m.data...)
	return n
}

// SwapRows exchanges rows i and j.
func (m *Matrix) SwapRows(i, j int) {
	if i == j {
		return
	}
	ri, rj := m.Row(i), m.Row(j)
	for w := range ri {
		ri[w], rj[w] = rj[w], ri[w]
	}
}

// AddRowTo XORs row src into row dst (dst += src over GF(2)).
func (m *Matrix) AddRowTo(src, dst int) {
	rs, rd := m.Row(src), m.Row(dst)
	for w := range rd {
		rd[w] ^= rs[w]
	}
}

// AddRowFrom XORs the packed words src into row dst (dst += src over
// GF(2)). src must have at least stride words; extra words are ignored.
// This is the word-level hook the elimination kernels use to apply
// combination-table rows without materializing per-round slices.
func (m *Matrix) AddRowFrom(dst int, src []uint64) {
	xorWords(m.Row(dst), src)
}

// lastWordMask returns the mask of valid bits in the final word of a row
// with the given positive column count (all ones when cols is a multiple
// of 64).
func lastWordMask(cols int) uint64 {
	if r := uint(cols) % wordBits; r != 0 {
		return (uint64(1) << r) - 1
	}
	return ^uint64(0)
}

// RowIsZero reports whether row r is all zeros.
func (m *Matrix) RowIsZero(r int) bool {
	for _, w := range m.Row(r) {
		if w != 0 {
			return false
		}
	}
	return true
}

// LeadingCol returns the column of the first set bit in row r, or -1 if the
// row is zero.
func (m *Matrix) LeadingCol(r int) int {
	row := m.Row(r)
	for w, word := range row {
		if word != 0 {
			c := w*wordBits + bits.TrailingZeros64(word)
			if c >= m.cols {
				return -1
			}
			return c
		}
	}
	return -1
}

// PopCountRow returns the number of set bits in row r.
func (m *Matrix) PopCountRow(r int) int {
	n := 0
	for _, w := range m.Row(r) {
		n += bits.OnesCount64(w)
	}
	return n
}

// String renders the matrix as rows of 0/1 characters, for debugging and
// golden tests.
func (m *Matrix) String() string {
	var b strings.Builder
	for r := 0; r < m.rows; r++ {
		for c := 0; c < m.cols; c++ {
			if m.Get(r, c) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		if r != m.rows-1 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Equal reports whether two matrices have identical dimensions and contents.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i, w := range m.data {
		if w != o.data[i] {
			return false
		}
	}
	return true
}

// Mul returns the matrix product m·o over GF(2).
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.cols != o.rows {
		panic(fmt.Sprintf("gf2: dimension mismatch %dx%d · %dx%d", m.rows, m.cols, o.rows, o.cols))
	}
	p := NewMatrix(m.rows, o.cols)
	for r := 0; r < m.rows; r++ {
		pr := p.Row(r)
		row := m.Row(r)
		for w, word := range row {
			for word != 0 {
				k := w*wordBits + bits.TrailingZeros64(word)
				word &= word - 1
				if k >= m.cols {
					break
				}
				ok := o.Row(k)
				for j := range pr {
					pr[j] ^= ok[j]
				}
			}
		}
	}
	return p
}

// Transpose returns the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for r := 0; r < m.rows; r++ {
		row := m.Row(r)
		for w, word := range row {
			for word != 0 {
				c := w*wordBits + bits.TrailingZeros64(word)
				word &= word - 1
				if c < m.cols {
					t.Set(c, r, true)
				}
			}
		}
	}
	return t
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, true)
	}
	return m
}
