package server

import (
	"bytes"
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
// cache: the Simon-[8,8] ANF and the LFSR DIMACS bodies of the daemon-mix
// traffic, as "solve" jobs, each sent as the original and as daemon-mix's
// whitespace and comment variants of a repeat. One iteration is one
// request: body decode, input scan and key, lookup and the stored answer.
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
	for _, in := range []struct{ name, format, text, comment string }{
		{"anf", "anf", anfText.String(), "# repeated request\n"},
		{"dimacs", "dimacs", cnfText.String(), "c repeated request\n"},
	} {
		for _, v := range []struct{ suffix, text string }{
			{"", in.text},
			{"-whitespace", "\n  \n" + strings.ReplaceAll(in.text, "\n", "\n\n")},
			{"-comment", in.comment + in.text},
		} {
			body, err := json.Marshal(Request{Format: in.format, Input: v.text, Mode: "solve"})
			if err != nil {
				b.Fatal(err)
			}
			// The answer goes to one reused buffer, as a server writes it
			// to its connection's, so the recorder's growth is not counted.
			var out bytes.Buffer
			serve := func() *httptest.ResponseRecorder {
				out.Reset()
				rec := &httptest.ResponseRecorder{HeaderMap: make(http.Header), Body: &out, Code: http.StatusOK}
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body)))
				return rec
			}
			if rec := serve(); rec.Code != http.StatusOK {
				b.Fatalf("%s%s: warm-up answered %d: %s", in.name, v.suffix, rec.Code, rec.Body)
			}
			b.Run(in.name+v.suffix, func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if rec := serve(); rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cached":true`)) {
						b.Fatalf("answered %d, not a cache hit: %.200s", rec.Code, rec.Body)
					}
				}
			})
		}
	}
}
