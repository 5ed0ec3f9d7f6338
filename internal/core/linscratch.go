package core

import (
	"sync"

	"repro/internal/anf"
)

// linScratch pools the interning, column-ordering and row state behind a
// linearize→eliminate pass. XL and ElimLin run one such pass per iteration
// over systems of similar size, so the monomial table (its map buckets and
// canonical slice), the flat term-ID buffer, the column permutation and
// the sparse rows handed to the elimination are reset and reused instead
// of reallocated — the table rebuild was a visible slice of the xl_sr
// profile. Resetting is safe for escaping results: polynomials built from
// reduced rows copy the canonical Monomial values, whose vars backing is
// never recycled by Reset.
type linScratch struct {
	tab   *anf.MonoTable
	ids   []uint32  // flat term IDs, concatenated per row
	order []uint32  // column → monomial ID, sorted descending
	col   []int32   // monomial ID → column
	ents  []int32   // flat columns, concatenated per row
	rows  [][]int32 // row r's ascending columns, a window of ents
}

var linScratchPool = sync.Pool{
	New: func() interface{} { return &linScratch{tab: anf.NewMonoTable()} },
}

// getLinScratch returns a scratch with an empty table and a cleared ids
// buffer; linearize resizes the other buffers.
func getLinScratch() *linScratch {
	s := linScratchPool.Get().(*linScratch)
	s.tab.Reset()
	s.ids = s.ids[:0]
	return s
}

func putLinScratch(s *linScratch) { linScratchPool.Put(s) }

// resize returns buf with length n, reusing its backing when it is large
// enough.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
