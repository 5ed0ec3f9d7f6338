package gf2

import (
	"math/rand"
	"slices"
	"testing"
)

// sparseOf lists the set columns of every row of m, ascending.
func sparseOf(m *Matrix) [][]int32 {
	rows := make([][]int32, m.Rows())
	for r := range rows {
		rows[r] = []int32{}
		ForEachSetBit(m.Row(r), func(c int) {
			if c < m.Cols() {
				rows[r] = append(rows[r], int32(c))
			}
		})
	}
	return rows
}

// denseOf packs sparse rows into a rows × cols matrix.
func denseOf(rows [][]int32, cols int) *Matrix {
	m := NewMatrix(len(rows), cols)
	for r, row := range rows {
		for _, c := range row {
			m.Flip(r, int(c))
		}
	}
	return m
}

// checkSparseRREF runs SparseRREF on rows, untracked and tracked, and
// checks both against plain RREF of the dense matrix: the same rank and
// the same rows in the same order. Each tracked combination must list
// distinct input rows in ascending order whose XOR is its reduced row.
func checkSparseRREF(t *testing.T, name string, rows [][]int32, cols int) {
	t.Helper()
	want := denseOf(rows, cols)
	rank := want.RREF()
	wantRows := sparseOf(want)[:rank]
	red, combos := SparseRREF(rows, cols, false)
	if combos != nil {
		t.Fatalf("%s: untracked run returned combinations", name)
	}
	tred, tcombos := SparseRREF(rows, cols, true)
	for _, got := range []struct {
		kind string
		red  [][]int32
	}{{"untracked", red}, {"tracked", tred}} {
		if len(got.red) != rank {
			t.Fatalf("%s (%dx%d): %s rank %d, want %d", name, len(rows), cols, got.kind, len(got.red), rank)
		}
		for i := range wantRows {
			if !slices.Equal(got.red[i], wantRows[i]) {
				t.Fatalf("%s (%dx%d): %s row %d = %v, want %v", name, len(rows), cols, got.kind, i, got.red[i], wantRows[i])
			}
		}
	}
	if len(tcombos) != rank {
		t.Fatalf("%s: %d combinations for %d rows", name, len(tcombos), rank)
	}
	acc := make([]uint64, Words(cols))
	for i, combo := range tcombos {
		for k, j := range combo {
			if j < 0 || int(j) >= len(rows) || (k > 0 && combo[k-1] >= j) {
				t.Fatalf("%s: combination %d is not ascending input rows: %v", name, i, combo)
			}
			for _, c := range rows[j] {
				XorBit(acc, int(c))
			}
		}
		for _, c := range tred[i] {
			XorBit(acc, int(c))
		}
		if !IsZero(acc) {
			t.Fatalf("%s (%dx%d): the inputs combination %d lists do not sum to its row", name, len(rows), cols, i)
		}
	}
}

// randomSparseSystem draws a sparse system of a random shape class — rows
// fewer than, about as many as, or more than columns — and density from
// 0.05 % to 50 %, with dead columns, duplicate rows and empty rows mixed
// in.
func randomSparseSystem(rng *rand.Rand) ([][]int32, int) {
	var nrows, cols int
	switch rng.Intn(4) {
	case 0:
		nrows, cols = 1+rng.Intn(40), 50+rng.Intn(400)
	case 1:
		nrows, cols = 50+rng.Intn(300), 1+rng.Intn(40)
	case 2:
		nrows, cols = 1+rng.Intn(120), 1+rng.Intn(120)
	default:
		nrows, cols = 1+rng.Intn(80), []int{63, 64, 65, 127, 128, 129}[rng.Intn(6)]
	}
	density := []float64{0.0005, 0.005, 0.02, 0.05, 0.2, 0.5}[rng.Intn(6)]
	dead := make([]bool, cols)
	for i := 0; i < cols/4; i++ {
		dead[rng.Intn(cols)] = true
	}
	m := NewMatrix(nrows, cols)
	for r := 0; r < nrows; r++ {
		switch k := rng.Intn(10); {
		case k == 0 && r > 0: // duplicate of an earlier row
			copy(m.Row(r), m.Row(rng.Intn(r)))
		case k == 1: // empty row
		default:
			for c := 0; c < cols; c++ {
				if !dead[c] && rng.Float64() < density {
					m.Set(r, c, true)
				}
			}
			if density < 0.05 && cols > 0 { // keep most rows nonempty
				if c := rng.Intn(cols); !dead[c] {
					m.Set(r, c, true)
				}
			}
		}
	}
	return sparseOf(m), cols
}

// The sparse kernel against plain Gauss–Jordan on random shapes and
// densities, untracked and tracked.
func TestSparseRREFMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 400; trial++ {
		rows, cols := randomSparseSystem(rng)
		checkSparseRREF(t, "random", rows, cols)
	}
}

// Degenerate systems: no rows, no columns (ElimLin reduces n × 0 systems
// after a round whose substitutions cancel every term), all-zero rows,
// a single entry, and every row alike.
func TestSparseRREFDegenerate(t *testing.T) {
	empty := func(n int) [][]int32 {
		rows := make([][]int32, n)
		for i := range rows {
			rows[i] = []int32{}
		}
		return rows
	}
	same := make([][]int32, 9)
	for i := range same {
		same[i] = []int32{3, 64, 200}
	}
	cases := []struct {
		name string
		rows [][]int32
		cols int
	}{
		{"0x0", nil, 0},
		{"0x5", nil, 5},
		{"50x0", empty(50), 0},
		{"zero rows", empty(7), 130},
		{"single", [][]int32{{}, {129}, {}}, 130},
		{"all alike", same, 201},
	}
	for _, c := range cases {
		checkSparseRREF(t, c.name, c.rows, c.cols)
	}
}

// plantedSparseSystem builds a rows × cols system whose RREF is a planted
// sparse basis: rank rows with distinct pivot columns, each holding up to
// maxExtra other non-pivot columns past its pivot. Input row k < rank is
// basis row k, XORed with probability mix with a later basis row (a unit
// triangular change of basis); the remaining rows are sums of two basis
// rows. Fill-in stays as low as in the XL and ElimLin linearizations.
func plantedSparseSystem(rng *rand.Rand, rows, cols, rank, maxExtra int, mix float64) (sys, basis [][]int32) {
	isPivot := make([]bool, cols)
	for _, c := range rng.Perm(cols)[:rank] {
		isPivot[c] = true
	}
	for c := 0; c < cols; c++ {
		if !isPivot[c] {
			continue
		}
		b := NewMatrix(1, cols)
		b.Set(0, c, true)
		if free := cols - c - 1; free > 0 {
			for n := rng.Intn(maxExtra + 1); n > 0; n-- {
				if d := c + 1 + rng.Intn(free); !isPivot[d] {
					b.Set(0, d, true)
				}
			}
		}
		basis = append(basis, sparseOf(b)[0])
	}
	sum := func(i, j int) []int32 {
		m := denseOf([][]int32{basis[i]}, cols)
		for _, c := range basis[j] {
			m.Flip(0, int(c))
		}
		return sparseOf(m)[0]
	}
	for k := 0; k < rows; k++ {
		switch {
		case k < rank && k+1 < rank && rng.Float64() < mix:
			sys = append(sys, sum(k, k+1+rng.Intn(rank-k-1)))
		case k < rank:
			sys = append(sys, basis[k])
		default:
			i, j := rng.Intn(rank), rng.Intn(rank)
			for j == i {
				j = rng.Intn(rank)
			}
			sys = append(sys, sum(i, j))
		}
	}
	rng.Shuffle(len(sys), func(i, j int) { sys[i], sys[j] = sys[j], sys[i] })
	return sys, basis
}

// The largest XL and ElimLin linearizations measured per family (CNF
// through CNFToANF, Bitcoin-[6] at 16 rounds, Simon-[8,8]), generated at
// the same shape and about the same number of set bits in the input. The
// kernel must return the planted basis, and agree with plain RREF tracked
// and untracked.
func TestSparseRREFRecordedShapes(t *testing.T) {
	shapes := []struct {
		rows, cols, rank, maxExtra int
		mix                        float64
	}{
		{4123, 4070, 3950, 0, 0.1},  // CNF, 4,628 set bits recorded
		{2481, 5762, 2400, 3, 0.6},  // CNF, 7,317
		{2409, 6969, 2350, 3, 0.6},  // Bitcoin, 7,821
		{2028, 8281, 2000, 8, 0.55}, // Simon, 12,891
	}
	if testing.Short() {
		shapes = shapes[:1]
	}
	rng := rand.New(rand.NewSource(61))
	for _, sh := range shapes {
		sys, basis := plantedSparseSystem(rng, sh.rows, sh.cols, sh.rank, sh.maxExtra, sh.mix)
		bits := 0
		for _, row := range sys {
			bits += len(row)
		}
		t.Logf("%d x %d: %d set bits in, rank %d", sh.rows, sh.cols, bits, sh.rank)
		red, _ := SparseRREF(sys, sh.cols, false)
		if len(red) != len(basis) {
			t.Fatalf("%dx%d: rank %d, want %d", sh.rows, sh.cols, len(red), len(basis))
		}
		for i := range basis {
			if !slices.Equal(red[i], basis[i]) {
				t.Fatalf("%dx%d: row %d is not the planted basis row", sh.rows, sh.cols, i)
			}
		}
		checkSparseRREF(t, "recorded shape", sys, sh.cols)
	}
}

// FuzzSparseRREF decodes a system from the input — a column count, then
// rows of column bytes with 0xff ending a row — and checks the sparse
// kernel against plain RREF, tracked and untracked.
func FuzzSparseRREF(f *testing.F) {
	f.Add([]byte{8, 1, 2, 0xff, 2, 3, 0xff, 1, 3})
	f.Add([]byte{0, 0xff, 0xff})
	f.Add([]byte{130, 129, 0xff, 0, 64, 129, 0xff, 0, 64})
	f.Add([]byte{3, 0, 1, 2, 0xff, 0, 1, 2, 0xff, 0xff, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		cols := int(data[0])
		var rows [][]int32
		row := make([]uint64, Words(cols))
		flush := func() {
			cs := []int32{}
			ForEachSetBit(row, func(c int) { cs = append(cs, int32(c)) })
			rows = append(rows, cs)
			clear(row)
		}
		for _, b := range data[1:] {
			if b == 0xff {
				flush()
			} else if int(b) < cols {
				XorBit(row, int(b))
			}
		}
		flush()
		checkSparseRREF(t, "fuzz", rows, cols)
	})
}

// BenchmarkRREFSparse times the sparse kernel, untracked and tracked, on
// planted systems at the largest recorded CNF and Simon shapes, beside
// RREFM4R on the same systems packed dense.
func BenchmarkRREFSparse(b *testing.B) {
	for _, sh := range []struct {
		name                       string
		rows, cols, rank, maxExtra int
		mix                        float64
	}{
		{"cnf-4123x4070", 4123, 4070, 3950, 0, 0.1},
		{"simon-2028x8281", 2028, 8281, 2000, 8, 0.55},
	} {
		rng := rand.New(rand.NewSource(42))
		sys, _ := plantedSparseSystem(rng, sh.rows, sh.cols, sh.rank, sh.maxExtra, sh.mix)
		for _, track := range []bool{false, true} {
			name := sh.name + "/sparse"
			if track {
				name += "-tracked"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					SparseRREF(sys, sh.cols, track)
				}
			})
		}
		b.Run(sh.name+"/m4r", func(b *testing.B) {
			m := denseOf(sys, sh.cols)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := m.Clone()
				b.StartTimer()
				c.RREFM4R()
			}
		})
	}
}
