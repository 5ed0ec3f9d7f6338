package cnf_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/cnf"
	"repro/internal/satgen"
)

// BenchmarkReadDimacs parses the text of the LFSR instance that
// bosphorusd's daemon-mix traffic sends as DIMACS.
func BenchmarkReadDimacs(b *testing.B) {
	var text bytes.Buffer
	if err := cnf.WriteDimacs(&text, satgen.LFSRReach(10, 8, false, rand.New(rand.NewSource(1))).Formula); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(text.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cnf.ReadDimacs(bytes.NewReader(text.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
