package gf2

import (
	"math/rand"
	"testing"
)

// randomShapedMatrix produces shapes the kernels must all agree on:
// all-zero columns, rows ≫ cols, cols ≫ rows, and dense squares.
func randomShapedMatrix(rng *rand.Rand) *Matrix {
	var rows, cols int
	switch rng.Intn(4) {
	case 0: // rows ≫ cols
		rows, cols = 50+rng.Intn(200), 1+rng.Intn(20)
	case 1: // cols ≫ rows
		rows, cols = 1+rng.Intn(20), 50+rng.Intn(200)
	case 2: // square-ish
		rows, cols = 1+rng.Intn(80), 1+rng.Intn(80)
	default: // word-boundary widths
		rows = 1 + rng.Intn(80)
		cols = []int{63, 64, 65, 127, 128, 129}[rng.Intn(6)]
	}
	m := NewMatrix(rows, cols)
	density := 1 + rng.Intn(4)
	// Zero out a random set of columns entirely to exercise pivot gaps.
	dead := map[int]bool{}
	for i := 0; i < cols/4; i++ {
		dead[rng.Intn(cols)] = true
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if !dead[c] && rng.Intn(4) < density {
				m.Set(r, c, true)
			}
		}
	}
	return m
}

// Both elimination kernels — plain Gauss–Jordan and M4R — must return
// the identical rank and identical canonical rows (RREF is unique, so this
// is full bit equality).
func TestKernelsAgreeFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 120; trial++ {
		m := randomShapedMatrix(rng)
		plain, m4r := m.Clone(), m.Clone()
		rp := plain.RREF()
		rm := m4r.RREFM4R()
		if rp != rm {
			t.Fatalf("trial %d (%dx%d): rank plain=%d m4r=%d", trial, m.Rows(), m.Cols(), rp, rm)
		}
		if !plain.Equal(m4r) {
			t.Fatalf("trial %d (%dx%d): RREF differs plain vs m4r", trial, m.Rows(), m.Cols())
		}
	}
}

// A 1024² random matrix — the benchtab kernel shape, eliminated with the
// full 2^8-entry tables over hundreds of rounds — must match the plain
// kernel bit for bit.
func TestM4RLargeMatrixMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	m := randomMatrix(rng, 1024, 1024)
	want, got := m.Clone(), m.Clone()
	wr := want.RREF()
	if gr := got.RREFM4R(); gr != wr {
		t.Fatalf("rank %d, want %d", gr, wr)
	}
	if !got.Equal(want) {
		t.Fatal("M4R result differs from plain RREF")
	}
}

func TestAddRowFrom(t *testing.T) {
	m := NewMatrix(2, 130)
	m.Set(0, 0, true)
	m.Set(0, 129, true)
	src := make([]uint64, 3)
	src[0] = 1 << 5
	src[2] = 1 << 1 // column 129
	m.AddRowFrom(0, src)
	if !m.Get(0, 5) || m.Get(0, 129) || !m.Get(0, 0) {
		t.Fatalf("AddRowFrom wrong result: %s", m.String()[:12])
	}
}

// Regression: Solve must not read stale bits past column cols out of the
// source rows. cols%64 == 63 puts the augmented column in the same word as
// the last data column, directly in the path of a smeared bit.
func TestSolveTailWordRegression(t *testing.T) {
	const cols = 63
	m := NewMatrix(2, cols)
	m.Set(0, 0, true)
	m.Set(1, 1, true)
	// Smear garbage into bit 63 of each row's only word — past the last
	// valid column, exactly where the augmented bit will live.
	m.Row(0)[0] |= 1 << 63
	m.Row(1)[0] |= 1 << 63
	x, ok := m.Solve([]bool{true, false})
	if !ok {
		t.Fatal("consistent system reported unsolvable")
	}
	if !x[0] || x[1] {
		t.Fatalf("solution corrupted by stale tail bits: x0=%v x1=%v", x[0], x[1])
	}
	// And a multi-word shape: cols%64 == 63 with stride 2.
	m2 := NewMatrix(1, 127)
	m2.Set(0, 3, true)
	m2.Row(0)[1] |= 1 << 63
	x2, ok := m2.Solve([]bool{false})
	if !ok || x2[3] {
		t.Fatalf("multi-word tail smear: ok=%v x3=%v", ok, x2[3])
	}
}

func benchmarkRREFM4R(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(42))
	m := randomMatrix(rng, n, n)
	b.ReportAllocs()
	b.SetBytes(int64(n * n / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := m.Clone()
		b.StartTimer()
		c.RREFM4R()
	}
}

func BenchmarkRREFM4R1024(b *testing.B) { benchmarkRREFM4R(b, 1024) }
func BenchmarkRREFM4R2048(b *testing.B) { benchmarkRREFM4R(b, 2048) }
