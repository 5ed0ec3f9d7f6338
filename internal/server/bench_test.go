package server

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/anf"
	"repro/internal/ciphers/simon"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/satgen"
)

// BenchmarkSolveHit serves cache hits through ServeHTTP on a warmed
// cache, one sub-benchmark per input format: the Simon-[8,8] ANF and the
// LFSR DIMACS bodies of the daemon-mix traffic, as "solve" jobs. One
// iteration is one request: JSON decode, parse, key, lookup and the
// encoded answer.
func BenchmarkSolveHit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var anfText, cnfText strings.Builder
	if err := anf.WriteSystem(&anfText, simon.GenerateInstance(simon.Params{NPlaintexts: 8, Rounds: 8}, rng).Sys); err != nil {
		b.Fatal(err)
	}
	if err := cnf.WriteDimacs(&cnfText, satgen.LFSRReach(10, 8, false, rng).Formula); err != nil {
		b.Fatal(err)
	}
	s := New(Config{Workers: 1, Engine: core.DefaultConfig()})
	defer s.Shutdown(context.Background())
	for _, in := range []struct{ name, format, text string }{
		{"anf", "anf", anfText.String()},
		{"dimacs", "dimacs", cnfText.String()},
	} {
		body, err := json.Marshal(Request{Format: in.format, Input: in.text, Mode: "solve"})
		if err != nil {
			b.Fatal(err)
		}
		serve := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(string(body))))
			return rec
		}
		if rec := serve(); rec.Code != http.StatusOK {
			b.Fatalf("%s: warm-up answered %d: %s", in.name, rec.Code, rec.Body)
		}
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rec := serve(); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"cached":true`) {
					b.Fatalf("answered %d, not a cache hit: %.200s", rec.Code, rec.Body)
				}
			}
		})
	}
}
