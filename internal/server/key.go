package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"repro/internal/anf"
	"repro/internal/cnf"
)

// Format tags of the key's input encoding. The tag keeps an ANF system and
// a formula apart even where their encodings would otherwise agree.
const (
	tagANF    = 'A'
	tagDIMACS = 'D'
)

// cacheKey returns the result-cache key of a freshly parsed job, before
// any conversion: the SHA-256, in hex, of every knob that can change the
// answer followed by a binary canonical encoding of the parsed input. Two
// requests share a key exactly when they ask for the same work on the
// same normalized problem, so payloads differing only in whitespace,
// comments, factor or term order or cancelling duplicate terms share one,
// while equation and clause order, the declared variable count and the
// format do not. Request fields that do not appear here are listed, with
// the reason, in the reflection test TestCacheKeyCoversRequest.
func (jb *job) cacheKey() string {
	req := jb.req
	// Only a cube run depends on workers (its pool size changes the run):
	// process and solve give the same result at every learner fan-out
	// (core.Config.Workers) and portfolio ignores it, so for them workers
	// stays out of the key.
	workers := req.Workers
	if jb.kind != kindCube {
		workers = 0
	}
	e := keyEncoder{h: sha256.New(), buf: make([]byte, 0, 4096)}
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
	if jb.sys != nil {
		e.system(jb.sys)
	} else {
		e.formula(jb.form)
	}
	return hex.EncodeToString(e.sum())
}

// keyEncoder writes varints into a SHA-256 through a small buffer, so the
// encoding is never materialized whole. The knobs go through uvarint and
// varint; system and formula append to the buffer directly and spill it
// once per equation or clause.
type keyEncoder struct {
	h   hash.Hash
	buf []byte
}

func (e *keyEncoder) uvarint(x uint64) { e.buf = binary.AppendUvarint(e.buf, x); e.spill() }
func (e *keyEncoder) varint(x int64)   { e.buf = binary.AppendVarint(e.buf, x); e.spill() }

// spill hands the buffer to the hash once it is nearly full.
func (e *keyEncoder) spill() {
	if len(e.buf) > cap(e.buf)-binary.MaxVarintLen64 {
		e.h.Write(e.buf)
		e.buf = e.buf[:0]
	}
}

func (e *keyEncoder) sum() []byte {
	e.h.Write(e.buf)
	return e.h.Sum(nil)
}

// system encodes an ANF system: the tag, NumVars, the equation count,
// then per equation its term count and per term its degree and variables,
// all in the canonical order the parser leaves them in.
func (e *keyEncoder) system(sys *anf.System) {
	e.uvarint(tagANF)
	e.uvarint(uint64(sys.NumVars()))
	e.uvarint(uint64(sys.Len()))
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
}

// formula encodes a CNF formula: the tag, NumVars, the clauses in order
// (length, then literals), then the XOR rows in order (right-hand side,
// length, variables).
func (e *keyEncoder) formula(f *cnf.Formula) {
	e.uvarint(tagDIMACS)
	e.uvarint(uint64(f.NumVars))
	e.uvarint(uint64(len(f.Clauses)))
	for _, c := range f.Clauses {
		b := binary.AppendUvarint(e.buf, uint64(len(c)))
		for _, l := range c {
			b = binary.AppendUvarint(b, uint64(l))
		}
		e.buf = b
		e.spill()
	}
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
}
