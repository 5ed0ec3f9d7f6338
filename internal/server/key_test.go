package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/anf"
	"repro/internal/cnf"
	"repro/internal/conv"
)

// keyExclusions lists the Request fields that do not enter the key as
// plain knobs, each with the reason. Every other field must change the key
// of some valid request when it changes (TestCacheKeyCoversRequest).
var keyExclusions = map[string]string{
	"Input":   "enters through the canonical encoding of the parsed input (TestCacheKeyVariants)",
	"Format":  "enters as the encoding's format tag; \"cnf\" and \"dimacs\" are one format",
	"Workers": "counts for cube mode only (TestCacheKeyIgnoresEngineWorkers)",
}

// TestCacheKeyCoversRequest fails when a Request field is neither folded
// into the cache key nor listed in keyExclusions: a forgotten knob would
// let a cache hit return a result computed under other settings. Each
// field is set to a value other than its zero value on a process-mode and
// a cube-mode request; where the request stays valid, the key must move.
func TestCacheKeyCoversRequest(t *testing.T) {
	rt := reflect.TypeOf(Request{})
	for name := range keyExclusions {
		if _, ok := rt.FieldByName(name); !ok {
			t.Errorf("keyExclusions lists %s, which Request no longer has", name)
		}
	}
	strs := map[string]string{"Mode": "solve"}
	for i := 0; i < rt.NumField(); i++ {
		field := rt.Field(i)
		if _, ok := keyExclusions[field.Name]; ok {
			continue
		}
		moved, valid := false, false
		for _, mode := range []string{"process", "cube"} {
			base := Request{Format: "anf", Input: easyANF, Mode: mode}
			alt := base
			v := reflect.ValueOf(&alt).Elem().Field(i)
			switch v.Kind() {
			case reflect.Bool:
				v.SetBool(true)
			case reflect.Int, reflect.Int64:
				v.SetInt(7)
			case reflect.String:
				s, ok := strs[field.Name]
				if !ok {
					t.Fatalf("Request.%s: add a non-zero test value for this string field", field.Name)
				}
				v.SetString(s)
			default:
				t.Fatalf("Request.%s: add a non-zero test value for kind %s", field.Name, v.Kind())
			}
			a, err := parseJob(base)
			if err != nil {
				t.Fatal(err)
			}
			b, err := parseJob(alt)
			if err != nil {
				continue // not valid in this mode (verify outside the engine, proof outside cube)
			}
			valid = true
			moved = moved || a.key != b.key
		}
		if !valid {
			t.Errorf("Request.%s: no test request is valid with the field set", field.Name)
		} else if !moved {
			t.Errorf("Request.%s changes no cache key: fold it into cacheKey or list it in keyExclusions with the reason", field.Name)
		}
	}
}

// TestCacheKeyVariants pins which spellings of one problem share a key:
// whitespace, comments, factor order, term order, "⊕" and duplicate terms
// that cancel do; equation or clause order, the declared variable count,
// and the format of an input both readers accept do not.
func TestCacheKeyVariants(t *testing.T) {
	key := func(format, input string) string {
		t.Helper()
		jb, err := parseJob(Request{Format: format, Input: input, Mode: "solve"})
		if err != nil {
			t.Fatalf("%s %q: %v", format, input, err)
		}
		return jb.key
	}
	const anfBase = "x1*x2 + x3 + 1\nx2 + x3\n"
	const cnfBase = "p cnf 3 2\n1 -2 0\n2 3 0\n"
	base := map[string]string{"anf": key("anf", anfBase), "dimacs": key("dimacs", cnfBase), "cnf": key("dimacs", cnfBase)}
	for _, tc := range []struct {
		name, format, input string
		same                bool
	}{
		{"anf whitespace", "anf", " x1 * x2+x3 +1 \n\n\tx2 + x3\r\n", true},
		{"anf comments", "anf", "# note\nc note\nx1*x2 + x3 + 1\nc\nx2 + x3\n", true},
		{"anf factor order", "anf", "x2*x1 + x3 + 1\nx2 + x3\n", true},
		{"anf term order and ⊕", "anf", "1 ⊕ x3 ⊕ x2*x1\nx3 + x2\n", true},
		{"anf duplicate terms", "anf", "x1*x2 + x4 + x3 + 1 + x4\nx2 + x2*x2 + x2 + x3\n", true},
		{"anf equation order", "anf", "x2 + x3\nx1*x2 + x3 + 1\n", false},
		{"anf other equation", "anf", "x1*x2 + x3 + 1\nx2 + x3 + 1\n", false},
		{"dimacs whitespace and comments", "dimacs", "c note\np cnf 3 2\n 1  -2 0\n\n2\n3 0\n", true},
		{"dimacs alias cnf", "cnf", cnfBase, true},
		{"dimacs variable count", "dimacs", "p cnf 4 2\n1 -2 0\n2 3 0\n", false},
		{"dimacs clause order", "dimacs", "p cnf 3 2\n2 3 0\n1 -2 0\n", false},
		{"dimacs literal order", "dimacs", "p cnf 3 2\n-2 1 0\n2 3 0\n", false},
	} {
		if same := key(tc.format, tc.input) == base[tc.format]; same != tc.same {
			t.Errorf("%s: shares the key = %v, want %v", tc.name, same, tc.same)
		}
	}
	// "1\n0\n" is the equation 1 = 0 as ANF and the unit clause (x1) as
	// DIMACS: one text, two problems, two keys.
	if key("anf", "1\n0\n") == key("dimacs", "1\n0\n") {
		t.Error("an ANF and a DIMACS reading of one text share a key")
	}
	// Without the format tag, x0 = 0 over one variable and the clause
	// (¬x1) over one variable would encode to the same varints.
	if key("anf", "x0\n") == key("dimacs", "p cnf 1 1\n-1 0\n") {
		t.Error("the format tag does not separate ANF from DIMACS")
	}
}

// textKey is the cache key parseJob computed before the binary encoding:
// a format string of the knobs hashed with the WriteSystem or WriteDimacs
// text of the parsed input.
func textKey(req Request) (string, bool) {
	jb, err := parseJob(req)
	if err != nil {
		return "", false
	}
	var canon strings.Builder
	if jb.format == tagANF {
		sys, err := anf.ReadSystem(strings.NewReader(req.Input))
		if err != nil {
			return "", false
		}
		_ = anf.WriteSystem(&canon, sys)
	} else {
		f, err := cnf.ReadDimacs(strings.NewReader(req.Input))
		if err != nil {
			return "", false
		}
		_ = cnf.WriteDimacs(&canon, f)
	}
	workers := req.Workers
	if jb.kind != kindCube {
		workers = 0
	}
	h := sha256.New()
	fmt.Fprintf(h, "mode=%d|iters=%d|confl=%d|seed=%d|workers=%d|timeout=%d|verify=%t|cubes=%d|proof=%t|route=%t|",
		jb.kind, req.MaxIterations, req.ConflictBudget, req.Seed, workers, req.TimeoutMS, req.Verify,
		req.MaxCubes, req.Proof, req.Route)
	h.Write([]byte(canon.String()))
	return hex.EncodeToString(h.Sum(nil)), true
}

// TestCacheKeyPartitionMatchesTextKey checks that the binary key groups a
// corpus of variant requests exactly as the text key did: two requests
// share a binary key if and only if they shared a text key. The corpus
// crosses random small ANF and DIMACS problems, spelling variants that
// keep or change the problem, and knob settings that keep or change the
// work.
func TestCacheKeyPartitionMatchesTextKey(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var inputs []Request
	for i := 0; i < 6; i++ {
		var sb strings.Builder
		sys := anf.NewSystem()
		for sys.Len() < 3 {
			sys.Add(anf.MustParsePoly(fmt.Sprintf("x%d*x%d + x%d + %d", rng.Intn(5), rng.Intn(5), rng.Intn(5), rng.Intn(2))))
		}
		if err := anf.WriteSystem(&sb, sys); err != nil {
			t.Fatal(err)
		}
		for _, in := range anfVariants(sb.String()) {
			inputs = append(inputs, Request{Format: "anf", Input: in})
		}
		sb.Reset()
		if err := cnf.WriteDimacs(&sb, randomFormula(rng)); err != nil {
			t.Fatal(err)
		}
		for _, in := range dimacsVariants(sb.String()) {
			inputs = append(inputs, Request{Format: "dimacs", Input: in}, Request{Format: "cnf", Input: in})
		}
	}
	inputs = append(inputs, Request{Format: "anf", Input: "1\n0\n"}, Request{Format: "dimacs", Input: "1\n0\n"})
	knobs := []func(*Request){
		func(r *Request) {},
		func(r *Request) { r.Mode = "process" },
		func(r *Request) { r.Mode = "SOLVE" },
		func(r *Request) { r.Mode = "solve"; r.Seed = 3 },
		func(r *Request) { r.Mode = "solve"; r.Workers = 2 },
		func(r *Request) { r.Mode = "cube"; r.Workers = 1 },
		func(r *Request) { r.Mode = "cube"; r.Workers = 2; r.Proof = true },
		func(r *Request) { r.Mode = "portfolio"; r.Workers = 2; r.TimeoutMS = 5000 },
		func(r *Request) { r.Verify = true; r.Route = true },
		func(r *Request) { r.MaxIterations = 2; r.ConflictBudget = 100; r.MaxCubes = 4 },
	}
	textToBin, binToText := map[string]string{}, map[string]string{}
	pairs := 0
	for _, in := range inputs {
		for _, knob := range knobs {
			req := in
			knob(&req)
			old, ok := textKey(req)
			if !ok {
				continue
			}
			jb, err := parseJob(req)
			if err != nil {
				t.Fatal(err)
			}
			pairs++
			if b, seen := textToBin[old]; seen && b != jb.key {
				t.Fatalf("%+v: one text key, two binary keys", req)
			}
			if o, seen := binToText[jb.key]; seen && o != old {
				t.Fatalf("%+v: one binary key, two text keys", req)
			}
			textToBin[old], binToText[jb.key] = jb.key, old
		}
	}
	t.Logf("%d requests in %d classes", pairs, len(textToBin))
	if len(textToBin) < 50 || pairs < 2*len(textToBin) {
		t.Fatalf("corpus too thin: %d requests in %d classes", pairs, len(textToBin))
	}
}

// anfVariants returns spellings of an ANF text: the same problem written
// with other whitespace, comments, factor and term order, "⊕" and
// cancelling duplicates, and one with two equations swapped.
func anfVariants(text string) []string {
	lines := strings.Split(strings.TrimSpace(text), "\n")[1:] // drop the header comment
	var factorsRev, termsRev, dup, oplus []string
	for _, l := range lines {
		terms := strings.Split(l, " + ")
		rev := make([]string, len(terms))
		for i, term := range terms {
			fs := strings.Split(term, "*")
			for a, b := 0, len(fs)-1; a < b; a, b = a+1, b-1 {
				fs[a], fs[b] = fs[b], fs[a]
			}
			rev[len(terms)-1-i] = strings.Join(fs, " * ")
		}
		factorsRev = append(factorsRev, strings.Join(rev, "+"))
		termsRev = append(termsRev, strings.Join(rev, " + "))
		dup = append(dup, l+" + x7*x2 + x2*x7")
		oplus = append(oplus, strings.ReplaceAll(l, "+", "⊕"))
	}
	swapped := append([]string{lines[1], lines[0]}, lines[2:]...)
	join := func(ls []string) string { return strings.Join(ls, "\n") + "\n" }
	return []string{
		text,
		"\n  \n" + strings.ReplaceAll(text, "\n", "\n\n"),
		"# note\nc note\n" + join(lines),
		join(factorsRev),
		join(termsRev),
		join(dup),
		join(oplus),
		join(swapped),
	}
}

// dimacsVariants returns spellings of a DIMACS text: the same formula with
// other whitespace and comments or clauses split over lines, and
// formulas with a changed variable count, swapped clauses and reversed
// literals.
func dimacsVariants(text string) []string {
	lines := strings.Split(strings.TrimSpace(text), "\n")
	header, body := lines[0], lines[1:]
	fields := strings.Fields(header) // p cnf <vars> <clauses>
	wider := fmt.Sprintf("p cnf 9%s %s", fields[2], fields[3])
	swapped := append([]string{body[1], body[0]}, body[2:]...)
	var reversed []string
	for _, l := range body {
		lits := strings.Fields(l)
		lits = lits[:len(lits)-1]
		for a, b := 0, len(lits)-1; a < b; a, b = a+1, b-1 {
			lits[a], lits[b] = lits[b], lits[a]
		}
		reversed = append(reversed, strings.Join(lits, " ")+" 0")
	}
	join := func(h string, ls []string) string { return h + "\n" + strings.Join(ls, "\n") + "\n" }
	return []string{
		text,
		"c note\n\n" + strings.ReplaceAll(text, " ", "  \t"),
		text + "c tail\n",
		strings.ReplaceAll(text, " 0\n", "\n0\n"),
		join(wider, body),
		join(header, swapped),
		join(header, reversed),
	}
}

// randomFormula returns a small random CNF with at least two clauses and
// literals over five variables.
func randomFormula(rng *rand.Rand) *cnf.Formula {
	f := cnf.NewFormula(5)
	for i := 2 + rng.Intn(4); i > 0; i-- {
		c := cnf.Clause{}
		for j := 1 + rng.Intn(3); j > 0; j-- {
			c = append(c, cnf.MkLit(cnf.Var(rng.Intn(5)), rng.Intn(2) == 0))
		}
		f.Clauses = append(f.Clauses, c)
	}
	return f
}

// parseJob does no conversion: a cache hit must not pay for one. prepare,
// which runs on a miss, adds what the mode needs.
func TestConversionWaitsForMiss(t *testing.T) {
	jb, err := parseJob(Request{Format: "anf", Input: easyANF, Mode: "cube"})
	if err != nil {
		t.Fatal(err)
	}
	if jb.form != nil || jb.formText != "" {
		t.Fatal("parseJob converted an ANF cube job")
	}
	if err := jb.prepare(); err != nil {
		t.Fatal(err)
	}
	want, _ := conv.ANFToCNF(jb.sys, conv.DefaultOptions())
	var text strings.Builder
	if err := cnf.WriteDimacs(&text, want); err != nil {
		t.Fatal(err)
	}
	if jb.formText != text.String() {
		t.Fatalf("formText after prepare:\n%s\nwant:\n%s", jb.formText, text.String())
	}

	jb, err = parseJob(Request{Format: "dimacs", Input: "p cnf 2 2\n1 2 0\n-1 0\n", Mode: "solve"})
	if err != nil {
		t.Fatal(err)
	}
	if jb.sys != nil {
		t.Fatal("parseJob converted a DIMACS solve job")
	}
	if err := jb.prepare(); err != nil {
		t.Fatal(err)
	}
	if jb.sys == nil || jb.sys.Len() == 0 || jb.formText != "" {
		t.Fatalf("prepare left sys=%v formText=%q", jb.sys, jb.formText)
	}
}

// refKey is the reference for the streamed key: the encoder cacheKey used
// while the key was computed from a built input, walking the System or
// Formula the readers return, in the record layout the scan streams.
func refKey(jb *job, sys *anf.System, f *cnf.Formula) string {
	e := newKeyEncoder()
	e.knobs(jb)
	if sys != nil {
		e.system(sys)
	} else {
		e.formula(f)
	}
	return hex.EncodeToString(e.sum())
}

// system encodes an ANF system: the tag, per equation its term count and
// per term its degree and variables, in the canonical order the parser
// leaves them in, a 0, no XOR rows, NumVars and the equation count.
func (e *keyEncoder) system(sys *anf.System) {
	e.uvarint(tagANF)
	for i := 0; i < sys.RawLen(); i++ {
		p := sys.At(i)
		if p.IsZero() {
			continue
		}
		b := binary.AppendUvarint(e.buf, uint64(p.NumTerms()))
		for _, t := range p.Terms() {
			vs := t.Vars()
			b = binary.AppendUvarint(b, uint64(len(vs)))
			for _, v := range vs {
				b = binary.AppendUvarint(b, uint64(v))
			}
		}
		e.buf = b
		e.spill()
	}
	e.uvarint(0)
	e.uvarint(0)
	e.uvarint(uint64(sys.NumVars()))
	e.uvarint(uint64(sys.Len()))
}

// formula encodes a CNF formula: the tag, the clauses in order (length
// plus one, then literals), a 0, the XOR row count and the rows in order
// (right-hand side, length, variables), NumVars and the clause count.
func (e *keyEncoder) formula(f *cnf.Formula) {
	e.uvarint(tagDIMACS)
	for _, c := range f.Clauses {
		b := binary.AppendUvarint(e.buf, uint64(len(c))+1)
		for _, l := range c {
			b = binary.AppendUvarint(b, uint64(l))
		}
		e.buf = b
		e.spill()
	}
	e.uvarint(0)
	e.uvarint(uint64(len(f.Xors)))
	for _, x := range f.Xors {
		rhs := byte(0)
		if x.RHS {
			rhs = 1
		}
		b := binary.AppendUvarint(append(e.buf, rhs), uint64(len(x.Vars)))
		for _, v := range x.Vars {
			b = binary.AppendUvarint(b, uint64(v))
		}
		e.buf = b
		e.spill()
	}
	e.uvarint(uint64(f.NumVars))
	e.uvarint(uint64(len(f.Clauses)))
}

// assertScanKey checks parseJob's scan of one input against its reader:
// the request fails exactly when ReadSystem or ReadDimacs rejects the text
// (or it is blank, or an ANF text without equations), with the reader's
// error text, and otherwise its key equals refKey over what the reader
// built.
func assertScanKey(t *testing.T, format, input string) {
	t.Helper()
	req := Request{Format: format, Input: input, Mode: "solve"}
	jb, err := parseJob(req)
	var want string
	var sys *anf.System
	var f *cnf.Formula
	var readErr error
	if format == "anf" {
		sys, readErr = anf.ReadSystem(strings.NewReader(input))
	} else {
		f, readErr = cnf.ReadDimacs(strings.NewReader(input))
	}
	switch {
	case strings.TrimSpace(input) == "":
		want = "empty input"
	case readErr != nil && format == "anf":
		want = "bad ANF input: " + readErr.Error()
	case readErr != nil:
		want = "bad DIMACS input: " + readErr.Error()
	case sys != nil && sys.Len() == 0:
		want = "ANF input has no equations"
	}
	if want != "" || err != nil {
		if err == nil || err.Error() != want {
			t.Fatalf("%s %q: parseJob error %v, want %q", format, input, err, want)
		}
		return
	}
	if ref := refKey(jb, sys, f); jb.key != ref {
		t.Fatalf("%s %q: scanned key %.12s, key of the read input %.12s", format, input, jb.key, ref)
	}
}

// FuzzScanKeyANF checks the ANF scan that keys a request against
// ReadSystem: the same inputs accepted, the same error text, and on
// accepted input the key of the system ReadSystem builds.
func FuzzScanKeyANF(f *testing.F) {
	for _, seed := range []string{
		easyANF,
		"# ANF system\nx0 + x16 + x17 + x51 + 1\nx1*x2 + x3\n",
		"x3*x1 + x1*x3*x3 + x2\nx5 + x5\n0\n1 + 1\nx2 ⊕ X1\n",
		"  x1 *　x2\r\n\nc x9\ncx1\n# x7\n",
		"x1 +\n",
		"x16777217\n",
		"\xff\xfex1\n",
		"x1 + x1\n",
		"\n\t\n",
		"1\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) { assertScanKey(t, "anf", input) })
}

// FuzzScanKeyDIMACS checks the DIMACS scan that keys a request against
// ReadDimacs in the same way.
func FuzzScanKeyDIMACS(f *testing.F) {
	for _, seed := range []string{
		"p cnf 3 2\n1 -2 0\n2 3 0\n",
		"c note\np cnf 4 3\n1\n-2 0\nx1 -3 4 0\n0\n",
		"x1 2 0 3 0\nx0\nx\n",
		"p cnf 2 1\n1 3 0\n",
		"1 2\n",
		"1 2\nx1 2 0\n",
		"-9223372036854775808 0\n",
		"p cnf 99999999999999999999 1\n",
		"1 -2 0\n",
		"\xff 1 0\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) { assertScanKey(t, "dimacs", input) })
}
