package anf_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/anf"
	"repro/internal/ciphers/simon"
)

// BenchmarkReadSystem parses the text of a Simon-[8,8] instance, the ANF
// body of bosphorusd's daemon-mix requests, so one iteration is the parse
// a cache hit pays.
func BenchmarkReadSystem(b *testing.B) {
	inst := simon.GenerateInstance(simon.Params{NPlaintexts: 8, Rounds: 8}, rand.New(rand.NewSource(1)))
	var text bytes.Buffer
	if err := anf.WriteSystem(&text, inst.Sys); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(text.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := anf.ReadSystem(bytes.NewReader(text.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteSystem writes the same instance back out.
func BenchmarkWriteSystem(b *testing.B) {
	inst := simon.GenerateInstance(simon.Params{NPlaintexts: 8, Rounds: 8}, rand.New(rand.NewSource(1)))
	var text bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		text.Reset()
		if err := anf.WriteSystem(&text, inst.Sys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanSystem scans the same text without building it, the parse
// a bosphorusd cache hit pays.
func BenchmarkScanSystem(b *testing.B) {
	inst := simon.GenerateInstance(simon.Params{NPlaintexts: 8, Rounds: 8}, rand.New(rand.NewSource(1)))
	var text bytes.Buffer
	if err := anf.WriteSystem(&text, inst.Sys); err != nil {
		b.Fatal(err)
	}
	terms := 0
	b.SetBytes(int64(text.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		terms = 0
		if err := anf.ScanSystem(bytes.NewReader(text.Bytes()), func(p anf.Poly) { terms += p.NumTerms() }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(terms), "terms")
}
