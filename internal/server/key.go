package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"strings"

	"repro/internal/anf"
	"repro/internal/cnf"
)

// Format tags of the key's input encoding. The tag keeps an ANF system and
// a formula apart even where their encodings would otherwise agree.
const (
	tagANF    = 'A'
	tagDIMACS = 'D'
)

// cacheKey returns the result-cache key of a request, from one scan of its
// input text and nothing built: the SHA-256, in hex, of every knob that
// can change the answer followed by a binary canonical encoding of the
// input the readers would build. Two requests share a key exactly when
// they ask for the same work on the same normalized problem, so payloads
// differing only in whitespace, comments, factor or term order or
// cancelling duplicate terms share one, while equation and clause order,
// the declared variable count and the format do not. Request fields that
// do not appear here are listed, with the reason, in the reflection test
// TestCacheKeyCoversRequest. A scan error is the request's error.
func (jb *job) cacheKey() (string, error) {
	e := newKeyEncoder()
	e.knobs(jb)
	in := strings.NewReader(jb.req.Input)
	if jb.format == tagANF {
		e.uvarint(tagANF)
		if err := anf.ScanSystem(in, e.equation); err != nil {
			return "", fmt.Errorf("bad ANF input: %w", err)
		}
		if e.count == 0 {
			return "", fmt.Errorf("ANF input has no equations")
		}
		e.end(e.numVars)
	} else {
		e.uvarint(tagDIMACS)
		numVars, err := cnf.ScanDimacs(in, e.clause, e.xor)
		if err != nil {
			return "", fmt.Errorf("bad DIMACS input: %w", err)
		}
		e.end(numVars)
	}
	return hex.EncodeToString(e.sum()), nil
}

// knobs encodes the mode and every request knob that changes the work.
func (e *keyEncoder) knobs(jb *job) {
	req := jb.req
	// Only a cube run depends on workers (its pool size changes the run):
	// process and solve give the same result at every learner fan-out
	// (core.Config.Workers) and portfolio ignores it, so for them workers
	// stays out of the key.
	workers := req.Workers
	if jb.kind != kindCube {
		workers = 0
	}
	e.uvarint(uint64(jb.kind))
	for _, x := range []int64{int64(req.MaxIterations), req.ConflictBudget, req.Seed,
		int64(workers), int64(req.TimeoutMS), int64(req.MaxCubes)} {
		e.varint(x)
	}
	var flags uint64
	for i, on := range []bool{req.Verify, req.Proof, req.Route} {
		if on {
			flags |= 1 << i
		}
	}
	e.uvarint(flags)
}

// keyEncoder writes varints into a SHA-256 through a small buffer, so the
// encoding is never materialized whole. The input's records stream in as
// the scan hands them over:
//
//   - an ANF equation is its term count, then per term its degree and
//     variables, in canonical order;
//   - a clause is its length plus one, then its literals;
//   - XOR rows (right-hand side, length, variables) are held in xors until
//     end, since a formula keeps them apart from its clauses.
//
// end closes the stream with a 0, which no equation or clause starts
// with, then the XOR rows behind their count, then the variable count and
// the equation or clause count: the totals a scan knows only at the end.
type keyEncoder struct {
	h     hash.Hash
	buf   []byte
	xors  []byte
	nxors int
	// count totals the equations or clauses scanned; numVars is one more
	// than the largest ANF variable the equations name.
	count, numVars int
}

func newKeyEncoder() *keyEncoder {
	return &keyEncoder{h: sha256.New(), buf: make([]byte, 0, 1024)}
}

func (e *keyEncoder) uvarint(x uint64) { e.buf = binary.AppendUvarint(e.buf, x); e.spill() }
func (e *keyEncoder) varint(x int64)   { e.buf = binary.AppendVarint(e.buf, x); e.spill() }

// spill hands the buffer to the hash once it is half full, so the next
// record, which the callers append whole, seldom outgrows it.
func (e *keyEncoder) spill() {
	if len(e.buf) >= cap(e.buf)/2 {
		e.h.Write(e.buf)
		e.buf = e.buf[:0]
	}
}

func (e *keyEncoder) sum() []byte {
	e.h.Write(e.buf)
	return e.h.Sum(nil)
}

// equation encodes one ANF equation.
func (e *keyEncoder) equation(p anf.Poly) {
	e.count++
	b := binary.AppendUvarint(e.buf, uint64(p.NumTerms()))
	for _, t := range p.Terms() {
		vs := t.Vars()
		b = binary.AppendUvarint(b, uint64(len(vs)))
		for _, v := range vs {
			b = binary.AppendUvarint(b, uint64(v))
		}
		if len(vs) > 0 {
			e.numVars = max(e.numVars, int(vs[len(vs)-1])+1)
		}
	}
	e.buf = b
	e.spill()
}

// clause encodes one clause.
func (e *keyEncoder) clause(c cnf.Clause) {
	e.count++
	b := binary.AppendUvarint(e.buf, uint64(len(c))+1)
	for _, l := range c {
		b = binary.AppendUvarint(b, uint64(l))
	}
	e.buf = b
	e.spill()
}

// xor holds one XOR row back for end.
func (e *keyEncoder) xor(x cnf.XorClause) {
	e.nxors++
	rhs := byte(0)
	if x.RHS {
		rhs = 1
	}
	e.xors = binary.AppendUvarint(append(e.xors, rhs), uint64(len(x.Vars)))
	for _, v := range x.Vars {
		e.xors = binary.AppendUvarint(e.xors, uint64(v))
	}
}

// end writes the terminator and the totals.
func (e *keyEncoder) end(numVars int) {
	e.uvarint(0)
	e.uvarint(uint64(e.nxors))
	e.h.Write(e.buf)
	e.h.Write(e.xors)
	e.buf = e.buf[:0]
	e.uvarint(uint64(numVars))
	e.uvarint(uint64(e.count))
}
