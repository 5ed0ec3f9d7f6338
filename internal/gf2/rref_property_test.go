package gf2

import (
	"math/rand"
	"testing"
)

// forceBlockedApply shrinks the fast-cache budget so applyRound takes the
// column-blocked strip path even on small test matrices, and returns a
// restore func.
func forceBlockedApply() func() {
	old := fastCacheWords
	fastCacheWords = minStripWords
	return func() { fastCacheWords = old }
}

// The column-blocked strip path must produce the same unique RREF as the
// scalar kernel on every shape, including tail-word widths and zero rows.
// The default budget keeps small matrices on the fused path, so it is
// pinned down to route every round through the strips.
func TestBlockedApplyMatchesScalar(t *testing.T) {
	defer forceBlockedApply()()
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 80; trial++ {
		m := randomShapedMatrix(rng)
		// Splice in explicit zero rows to exercise the lead sentinel.
		for i := 0; i < m.Rows()/8; i++ {
			r := rng.Intn(m.Rows())
			row := m.Row(r)
			for w := range row {
				row[w] = 0
			}
		}
		plain, blocked := m.Clone(), m.Clone()
		rp := plain.RREF()
		if rb := blocked.RREFM4R(); rb != rp {
			t.Fatalf("trial %d (%dx%d): rank %d, want %d", trial, m.Rows(), m.Cols(), rb, rp)
		} else if !blocked.Equal(plain) {
			t.Fatalf("trial %d (%dx%d): blocked RREF differs from scalar", trial, m.Rows(), m.Cols())
		}
	}
}

// Degenerate shapes must not panic and must agree with the scalar kernel.
func TestKernelDegenerateShapes(t *testing.T) {
	shapes := []struct{ rows, cols int }{
		{0, 0}, {0, 5}, {5, 0}, {1, 1}, {1, 200}, {200, 1}, {3, 64}, {64, 3},
	}
	rng := rand.New(rand.NewSource(5))
	for _, sh := range shapes {
		m := NewMatrix(sh.rows, sh.cols)
		for r := 0; r < sh.rows; r++ {
			for c := 0; c < sh.cols; c++ {
				if rng.Intn(2) == 0 {
					m.Set(r, c, true)
				}
			}
		}
		plain, m4r := m.Clone(), m.Clone()
		if rp, rm := plain.RREF(), m4r.RREFM4R(); rp != rm || !plain.Equal(m4r) {
			t.Fatalf("%dx%d: scalar and M4R kernels disagree (rank %d vs %d)", sh.rows, sh.cols, rp, rm)
		}
		if zero := NewMatrix(sh.rows, sh.cols); zero.RREFM4R() != 0 {
			t.Fatalf("%dx%d: zero matrix must have rank 0", sh.rows, sh.cols)
		}
	}
}

// The tracked sparse kernel must mirror the M4R kernel bit-identically
// (RREF is unique) and its combinations must replay: the XOR of the input
// rows listed for a reduced row is that row. The provenance witnesses and
// VerifyFacts replay depend on both halves.
func TestTrackedMirrorsOptimizedKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		m := randomShapedMatrix(rng)
		fast := m.Clone()
		rf := fast.RREFM4R()
		rows := sparseOf(m)
		red, combos := SparseRREF(rows, m.Cols(), true)
		if len(red) != rf {
			t.Fatalf("trial %d (%dx%d): rank tracked=%d fast=%d", trial, m.Rows(), m.Cols(), len(red), rf)
		}
		if got := denseOf(red, m.Cols()); !got.Equal(rowsOf(fast, rf)) {
			t.Fatalf("trial %d (%dx%d): tracked RREF not bit-identical to optimized kernel",
				trial, m.Rows(), m.Cols())
		}
		for i, combo := range combos {
			replay := NewMatrix(1, m.Cols())
			for _, j := range combo {
				replay.AddRowFrom(0, m.Row(int(j)))
			}
			if !replay.Equal(denseOf(red[i:i+1], m.Cols())) {
				t.Fatalf("trial %d (%dx%d): combination %d does not replay the reduction",
					trial, m.Rows(), m.Cols(), i)
			}
		}
	}
}

// rowsOf returns a copy of m's first n rows.
func rowsOf(m *Matrix, n int) *Matrix {
	out := NewMatrix(n, m.Cols())
	for r := 0; r < n; r++ {
		copy(out.Row(r), m.Row(r))
	}
	return out
}

// Smeared bits past the last valid column must not change the computed
// RREF of the valid columns: Row() exposes the packed words, so callers
// (linearize buffers, augmented assemblies) can leave garbage in the tail
// word, and lead tracking must treat it as zero.
func TestKernelIgnoresTailGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, cols := range []int{5, 63, 65, 127} {
		rows := 20
		m := NewMatrix(rows, cols)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if rng.Intn(2) == 0 {
					m.Set(r, c, true)
				}
			}
		}
		clean := m.Clone()
		rc := clean.RREF()
		dirty := m.Clone()
		mask := lastWordMask(cols)
		for r := 0; r < rows; r++ {
			row := dirty.Row(r)
			row[len(row)-1] |= ^mask // smear every invalid bit
		}
		rd := dirty.RREFM4R()
		if rd != rc {
			t.Fatalf("cols=%d: rank with tail garbage %d, want %d", cols, rd, rc)
		}
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if dirty.Get(r, c) != clean.Get(r, c) {
					t.Fatalf("cols=%d: bit (%d,%d) differs under tail garbage", cols, r, c)
				}
			}
		}
	}
}
