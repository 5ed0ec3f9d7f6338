// Package proof provides checkable correctness artifacts for the whole
// fact-learning stack: DRAT proof logging for the CDCL SAT solver (with a
// justification extension for Gauss/XOR-derived clauses), a from-scratch
// streaming RUP proof checker, and an ANF fact-provenance ledger whose
// records can be independently re-derived against the original system.
//
// Nothing in this package depends on the engine (internal/core); the
// engine depends on it. The SAT solver does not import this package
// either — it declares a small structural logging interface that the
// writers here satisfy, so the logging-off path stays free of any proof
// machinery.
package proof

import (
	"bufio"
	"encoding/binary"
	"io"
	"strconv"

	"repro/internal/cnf"
)

// Writer receives the solver's proof events. TextWriter and BinaryWriter
// implement it (and, structurally, the solver's logging interface).
//
// The stream is standard DRAT extended with one record kind: Justify marks
// a clause that is not necessarily RUP but is entailed by the input
// formula's XOR constraints (a Gauss/GJE-derived reason or conflict
// clause). The checker verifies those by GF(2) row-space membership
// instead of unit propagation.
type Writer interface {
	// Learn records the addition of a (learnt) clause. An empty or nil
	// clause is the empty clause — the UNSAT terminator.
	Learn(lits []cnf.Lit)
	// Delete records the deletion of a clause (reduceDB, simplification).
	Delete(lits []cnf.Lit)
	// Justify records the addition of an XOR-derived clause.
	Justify(lits []cnf.Lit)
	// Flush drains buffered output. The first write error is sticky and
	// returned here.
	Flush() error
}

// TextWriter emits the human-readable DRAT text form: additions as bare
// DIMACS literal lines, deletions prefixed "d", XOR justifications
// prefixed "x".
type TextWriter struct {
	bw  *bufio.Writer
	err error
}

// NewTextWriter wraps w in a buffered DRAT text writer.
func NewTextWriter(w io.Writer) *TextWriter {
	return &TextWriter{bw: bufio.NewWriter(w)}
}

func (t *TextWriter) line(prefix string, lits []cnf.Lit) {
	if t.err != nil {
		return
	}
	b := append(t.bw.AvailableBuffer(), prefix...)
	for _, l := range lits {
		b = strconv.AppendInt(b, int64(l.Dimacs()), 10)
		b = append(b, ' ')
	}
	b = append(b, "0\n"...)
	_, t.err = t.bw.Write(b)
}

// Learn implements Writer.
func (t *TextWriter) Learn(lits []cnf.Lit) { t.line("", lits) }

// Delete implements Writer.
func (t *TextWriter) Delete(lits []cnf.Lit) { t.line("d ", lits) }

// Justify implements Writer.
func (t *TextWriter) Justify(lits []cnf.Lit) { t.line("x ", lits) }

// Flush implements Writer.
func (t *TextWriter) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.bw.Flush()
}

// BinaryWriter emits the compact binary DRAT form: each record is a tag
// byte ('a' addition, 'd' deletion, 'x' XOR justification) followed by
// the clause's literals as ULEB128 varints and a 0x00 terminator. A
// literal l (cnf encoding 2·var+sign) maps to the unsigned value l+2, so
// 0 stays free as the terminator and var 0 is representable.
type BinaryWriter struct {
	bw  *bufio.Writer
	err error
}

// NewBinaryWriter wraps w in a buffered binary DRAT writer.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{bw: bufio.NewWriter(w)}
}

func (b *BinaryWriter) record(tag byte, lits []cnf.Lit) {
	if b.err != nil {
		return
	}
	rec := append(b.bw.AvailableBuffer(), tag)
	for _, l := range lits {
		rec = binary.AppendUvarint(rec, uint64(l)+2)
	}
	rec = append(rec, 0)
	_, b.err = b.bw.Write(rec)
}

// Learn implements Writer.
func (b *BinaryWriter) Learn(lits []cnf.Lit) { b.record('a', lits) }

// Delete implements Writer.
func (b *BinaryWriter) Delete(lits []cnf.Lit) { b.record('d', lits) }

// Justify implements Writer.
func (b *BinaryWriter) Justify(lits []cnf.Lit) { b.record('x', lits) }

// Flush implements Writer.
func (b *BinaryWriter) Flush() error {
	if b.err != nil {
		return b.err
	}
	return b.bw.Flush()
}
