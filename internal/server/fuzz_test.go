package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/anf"
	"repro/internal/cnf"
	"repro/internal/core"
)

// FuzzSolveHandler drives POST /solve end to end through ServeHTTP. Each
// input decodes to a small ANF or DIMACS problem (or, now and then, the
// raw fuzz bytes as the input text) under random knobs. No request may
// fail with a 500, and a 400 must come from parseJob rejecting the
// request. A SAT model must satisfy the input; an UNSAT verdict must leave
// the input with no model, checked by brute force over its few variables.
// An answered request sent again, byte for byte and then with other
// whitespace and a comment, must come back from the cache with the same
// answer.
func FuzzSolveHandler(f *testing.F) {
	for _, seed := range []string{
		"",
		"\x00\x05\x03\x02\x11\x07",
		"\x01\x04\x06\x03\x09\x02\x0c",
		"\x02\x03\x07\x04\x08\x01\x05\x0a\x0b",
		"\x03\x05\x05\x05\x05\x05\x05\x05\x05\x05",
		"\x81\x02\x04\x01\x02\x03\x04\x05\x06\x07\x08",
		"\x42x1*x2 + x3\nx1 + 1\n",
		"\xc3p cnf 2 2\n1 2 0\n-1 0\n",
		"\x40x1 +\n",
	} {
		f.Add([]byte(seed))
	}
	engine := core.DefaultConfig()
	s := New(Config{Workers: 2, Engine: engine})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The request as the server decodes it: JSON turns invalid UTF-8
		// in the input into U+FFFD.
		var req Request
		body, err := json.Marshal(fuzzRequest(data))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		_, parseErr := parseJob(req)
		if parseErr == nil && inputVars(t, req) > 64 {
			// Raw bytes can name a variable such as x10000000; the solve
			// would then build tables over millions of variables, seconds
			// and gigabytes per input.
			t.Skip("variable space too large for a quick solve")
		}
		code, first := serveSolve(t, s, req)
		switch {
		case code == http.StatusBadRequest && parseErr != nil:
			return
		case code != http.StatusOK || parseErr != nil:
			t.Fatalf("%+v: answered %d, parseJob error %v", req, code, parseErr)
		}
		assertVerdict(t, req, first)
		if first.Status == "CANCELED" {
			return // not cached
		}
		variant := req
		if strings.EqualFold(req.Format, "anf") {
			variant.Input = "# resent\n\n  " + strings.ReplaceAll(req.Input, "\n", "\n\n\t")
		} else {
			variant.Input = "c resent\n\n " + strings.ReplaceAll(req.Input, "\n", "\n\n\t")
		}
		for _, again := range []Request{req, variant} {
			code, resp := serveSolve(t, s, again)
			if code != http.StatusOK || !resp.Cached {
				t.Fatalf("%+v: resent as %q answered %d, cached=%v", req, again.Input, code, resp != nil && resp.Cached)
			}
			got, want := *resp, *first
			got.Cached, got.ElapsedMS, want.Cached, want.ElapsedMS = false, 0, false, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v: cached answer %+v differs from %+v", req, got, want)
			}
		}
	})
}

// inputVars returns the variable count of a request's input as the
// readers build it.
func inputVars(t *testing.T, req Request) int {
	t.Helper()
	if strings.EqualFold(req.Format, "anf") {
		sys, err := anf.ReadSystem(strings.NewReader(req.Input))
		if err != nil {
			t.Fatal(err)
		}
		return sys.NumVars()
	}
	f, err := cnf.ReadDimacs(strings.NewReader(req.Input))
	if err != nil {
		t.Fatal(err)
	}
	return f.NumVars
}

// serveSolve posts req through the handler and decodes a 200 answer.
func serveSolve(t *testing.T, s *Server, req Request) (int, *Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(string(body))))
	if rec.Code != http.StatusOK {
		return rec.Code, nil
	}
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode %q: %v", rec.Body.String(), err)
	}
	return rec.Code, &resp
}

// assertVerdict evaluates a SAT model on the request's input and refutes
// an UNSAT verdict by trying every assignment of the input's variables.
func assertVerdict(t *testing.T, req Request, resp *Response) {
	t.Helper()
	var eval func(assign func(int) bool) bool
	numVars := 0
	if strings.EqualFold(req.Format, "anf") {
		sys, err := anf.ReadSystem(strings.NewReader(req.Input))
		if err != nil {
			t.Fatal(err)
		}
		eval = func(assign func(int) bool) bool { return sys.Eval(func(v anf.Var) bool { return assign(int(v)) }) }
		numVars = sys.NumVars()
	} else {
		f, err := cnf.ReadDimacs(strings.NewReader(req.Input))
		if err != nil {
			t.Fatal(err)
		}
		eval = func(assign func(int) bool) bool { return f.Eval(func(v cnf.Var) bool { return assign(int(v)) }) }
		numVars = f.NumVars
	}
	switch resp.Status {
	case "SAT":
		sol := resp.Solution
		if !eval(func(v int) bool { return v < len(sol) && sol[v] }) {
			t.Fatalf("%+v: SAT model %v does not satisfy the input", req, sol)
		}
	case "UNSAT":
		if numVars > 16 {
			return
		}
		for a := 0; a < 1<<numVars; a++ {
			if eval(func(v int) bool { return a>>v&1 == 1 }) {
				t.Fatalf("%+v: UNSAT, but assignment %b satisfies the input", req, a)
			}
		}
	}
}

// fuzzRequest decodes fuzz bytes into a request. The first byte picks the
// format (bit 0), whether the rest of the bytes are the input text
// verbatim (bit 6), and whether the knobs may form combinations parseJob
// rejects (bit 7). Otherwise the bytes drive a small generator: a problem
// over at most six variables, then the mode and knobs.
func fuzzRequest(data []byte) Request {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	ctl := next()
	req := Request{Format: "anf"}
	if ctl&1 == 1 {
		req.Format = "dimacs"
		if ctl&2 == 2 {
			req.Format = "cnf"
		}
	}
	raw := ctl&0x40 != 0
	if raw {
		req.Input = string(data)
		data = nil
	}
	nv := 1 + next()%6
	if !raw {
		var sb strings.Builder
		if req.Format == "anf" {
			for e := 1 + next()%5; e > 0; e-- {
				var terms []string
				for k := 1 + next()%4; k > 0; k-- {
					factors := []string{"1"}
					if deg := next() % 3; deg > 0 {
						factors = factors[:0]
						for ; deg > 0; deg-- {
							factors = append(factors, fmt.Sprintf("x%d", next()%nv))
						}
					}
					terms = append(terms, strings.Join(factors, "*"))
				}
				sb.WriteString(strings.Join(terms, " + ") + "\n")
			}
		} else {
			n := 1 + next()%6
			fmt.Fprintf(&sb, "p cnf %d %d\n", nv, n)
			for ; n > 0; n-- {
				if next()%5 == 0 {
					sb.WriteString("x")
				}
				for k := 1 + next()%3; k > 0; k-- {
					lit := 1 + next()%nv
					if next()%2 == 1 {
						lit = -lit
					}
					fmt.Fprintf(&sb, "%d ", lit)
				}
				sb.WriteString("0\n")
			}
		}
		req.Input = sb.String()
	}
	req.Mode = []string{"process", "solve", "portfolio", "cube"}[next()%4]
	knobs := next()
	req.MaxIterations = next() % 3
	req.Seed = int64(next() % 3)
	req.Workers = next() % 3
	req.MaxCubes = next() % 5
	if knobs&1 != 0 {
		req.ConflictBudget = 1000
	}
	if knobs&2 != 0 {
		req.TimeoutMS = 5000
	}
	req.Verify = knobs&4 != 0
	req.Proof = knobs&8 != 0
	req.Route = knobs&16 != 0
	if ctl&0x80 == 0 {
		engine := req.Mode == "process" || req.Mode == "solve"
		req.Verify = req.Verify && engine
		req.Proof = req.Proof && req.Mode == "cube"
	}
	return req
}
