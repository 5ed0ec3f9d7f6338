package proof

import (
	"fmt"

	"repro/internal/anf"
)

// Technique labels for Record.Technique.
const (
	TechInput       = "input"
	TechXL          = "xl"
	TechElimLin     = "elimlin"
	TechSAT         = "sat"
	TechPropagation = "propagation"
	TechGroebner    = "groebner"
	TechExtra       = "extra"
)

// Term is one summand of a witness: Mult · (the poly of ledger record
// Src). A Src of -1 marks a placeholder the producer could not attribute
// (the witness is then not exactly replayable and verification falls back
// to SAT entailment).
type Term struct {
	Mult anf.Poly
	Src  int
}

// Record is the provenance of one learnt fact: the fact polynomial, the
// technique and loop iteration that produced it, and — when the producer
// tracked the algebra exactly — a witness expressing the fact as a
// polynomial combination of earlier records, bottoming out at the input
// equations.
//
// The witness claims the Boolean-ring identity
//
//	Poly = Σ_i  Witness[i].Mult · record(Witness[i].Src).Poly
//
// which makes Poly = 0 a consequence of the source facts being 0.
type Record struct {
	ID        int
	Technique string
	Iteration int
	Poly      anf.Poly
	Witness   []Term
	// Note carries producer detail ("unit", "probe-equivalence", GJE row
	// ids, ...) for diagnostics; it is not used by verification.
	Note string
}

// Ledger is an append-only provenance table. Records 0..n-1 are the n
// input equations (Technique "input"); everything after is a learnt fact.
type Ledger struct {
	recs   []Record
	inputs int
}

// NewLedger seeds a ledger with the input system's equations.
func NewLedger(sys *anf.System) *Ledger {
	lg := &Ledger{}
	for _, p := range sys.Polys() {
		lg.recs = append(lg.recs, Record{
			ID:        len(lg.recs),
			Technique: TechInput,
			Iteration: 0,
			Poly:      p,
		})
	}
	lg.inputs = len(lg.recs)
	return lg
}

// Append adds a record, assigning and returning its ID.
func (lg *Ledger) Append(r Record) int {
	r.ID = len(lg.recs)
	lg.recs = append(lg.recs, r)
	return r.ID
}

// Len is the total number of records, inputs included.
func (lg *Ledger) Len() int { return len(lg.recs) }

// At returns record i.
func (lg *Ledger) At(i int) Record { return lg.recs[i] }

// Facts returns the learnt (non-input) records.
func (lg *Ledger) Facts() []Record { return lg.recs[lg.inputs:] }

func (r Record) String() string {
	return fmt.Sprintf("#%d [%s it%d] %s = 0 (witness terms: %d)",
		r.ID, r.Technique, r.Iteration, r.Poly, len(r.Witness))
}
