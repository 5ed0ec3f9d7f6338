package proof

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/anf"
	"repro/internal/conv"
	"repro/internal/sat"
)

// Verdict classifies how a fact was (or was not) independently verified.
type Verdict int

const (
	// VerdictInput: the fact is one of the original input equations.
	VerdictInput Verdict = iota
	// VerdictWitness: the fact's algebraic witness replayed exactly — the
	// recorded polynomial combination of verified earlier records
	// reproduces the fact, so it lies in the ideal of the input system.
	VerdictWitness
	// VerdictEntailed: a SAT refutation showed input ∧ (fact ≠ 0) is
	// unsatisfiable, so the fact is semantically entailed.
	VerdictEntailed
	// VerdictFailed: the fact is wrong — a random assignment or a SAT
	// model satisfies the input but falsifies the fact.
	VerdictFailed
	// VerdictUnverified: no witness replay and the refutation budget ran
	// out; nothing is known either way.
	VerdictUnverified
)

func (v Verdict) String() string {
	switch v {
	case VerdictInput:
		return "INPUT"
	case VerdictWitness:
		return "WITNESS"
	case VerdictEntailed:
		return "ENTAILED"
	case VerdictFailed:
		return "FAILED"
	default:
		return "UNVERIFIED"
	}
}

// Verified reports whether the verdict certifies the fact.
func (v Verdict) Verified() bool {
	return v == VerdictInput || v == VerdictWitness || v == VerdictEntailed
}

// FactVerdict is the verification outcome for one ledger record.
type FactVerdict struct {
	ID        int
	Technique string
	Iteration int
	Verdict   Verdict
	// Detail explains FAILED/UNVERIFIED outcomes and names the evidence
	// for positive ones.
	Detail string
}

// VerifyReport aggregates per-fact verdicts.
type VerifyReport struct {
	Verdicts []FactVerdict
	// Verified counts INPUT + WITNESS + ENTAILED; Failed and Unverified
	// count the rest.
	Verified, Failed, Unverified int
}

// AllVerified reports whether every checked fact was certified.
func (r *VerifyReport) AllVerified() bool { return r.Failed == 0 && r.Unverified == 0 }

// Summary is a one-line human-readable tally.
func (r *VerifyReport) Summary() string {
	return fmt.Sprintf("facts=%d verified=%d failed=%d unverified=%d",
		len(r.Verdicts), r.Verified, r.Failed, r.Unverified)
}

// VerifyOptions tunes VerifyFacts.
type VerifyOptions struct {
	// Rounds is the number of random GF(2) assignments used as a cheap
	// falsification screen before any SAT work (default 32).
	Rounds int
	// Seed fixes the random screen.
	Seed int64
	// RefuteBudget is the conflict budget for each SAT entailment
	// refutation (default 50000; -1 = unlimited).
	RefuteBudget int64
	// Context, when non-nil, cancels verification: VerifyFacts polls it
	// before each record and in-flight refutations poll it too. Once it
	// is done, the remaining facts come back UNVERIFIED ("canceled").
	Context context.Context
	// Conv sets the ANF→CNF conversion for refutations (zero value =
	// conv.DefaultOptions).
	Conv conv.Options
	// Profile picks the refutation solver (default CryptoMiniSat).
	Profile sat.Profile
}

// VerifyFacts independently re-derives every learnt fact in the ledger
// against the original ANF system. Verification never trusts the engine:
// witnesses are replayed with exact Boolean-ring arithmetic over the
// recorded source polynomials (which bottom out at the input equations),
// and facts without a replayable witness are checked by refutation —
// solving input ∧ (fact ⊕ 1) with an independent SAT translation. A
// random-assignment screen runs first so wrong facts fail fast.
func VerifyFacts(original *anf.System, lg *Ledger, opts VerifyOptions) *VerifyReport {
	if opts.Rounds <= 0 {
		opts.Rounds = 32
	}
	if opts.RefuteBudget == 0 {
		opts.RefuteBudget = 50000
	}
	if opts.Conv == (conv.Options{}) {
		opts.Conv = conv.DefaultOptions()
	}
	if opts.Profile == 0 {
		opts.Profile = sat.ProfileCMS
	}
	rng := rand.New(rand.NewSource(opts.Seed + 0x9e3779b9))

	report := &VerifyReport{}
	// verified[i] is true once record i is certified; witness replay may
	// only lean on certified sources, so records are processed in ID
	// order (witnesses never reference forward).
	verified := make([]bool, lg.Len())
	for i := 0; i < lg.Len(); i++ {
		rec := lg.At(i)
		if rec.Technique == TechInput {
			verified[i] = true
			continue
		}
		fv := FactVerdict{ID: rec.ID, Technique: rec.Technique, Iteration: rec.Iteration}
		if opts.Context != nil && opts.Context.Err() != nil {
			fv.Verdict, fv.Detail = VerdictUnverified, "canceled"
		} else {
			fv.Verdict, fv.Detail = verifyOne(original, lg, rec, verified, rng, opts)
		}
		if fv.Verdict.Verified() {
			verified[i] = true
			report.Verified++
		} else if fv.Verdict == VerdictFailed {
			report.Failed++
		} else {
			report.Unverified++
		}
		report.Verdicts = append(report.Verdicts, fv)
	}
	return report
}

func verifyOne(original *anf.System, lg *Ledger, rec Record, verified []bool, rng *rand.Rand, opts VerifyOptions) (Verdict, string) {
	// Cheap screen: a random assignment satisfying the input must zero
	// the fact. Few random assignments satisfy a constrained system, but
	// when one does and the fact disagrees, the fact is refuted outright.
	n := original.NumVars()
	assign := make([]bool, n)
	for r := 0; r < opts.Rounds; r++ {
		for v := range assign {
			assign[v] = rng.Intn(2) == 1
		}
		at := func(v anf.Var) bool { return int(v) < n && assign[v] }
		if original.Eval(at) && rec.Poly.Eval(at) {
			return VerdictFailed, fmt.Sprintf("random assignment satisfies the input but fact evaluates to 1 (round %d)", r)
		}
	}

	if original.Contains(rec.Poly) {
		return VerdictInput, "matches an input equation"
	}

	if len(rec.Witness) > 0 {
		if v, detail, ok := replayWitness(lg, rec, verified); ok {
			return v, detail
		} else if detail != "" {
			// A witness that replays to the wrong polynomial is a recording
			// bug, not proof of a wrong fact — fall through to refutation,
			// but surface the replay failure if that also stalls.
			return refute(original, rec, opts, "witness replay failed: "+detail)
		}
	}
	return refute(original, rec, opts, "no replayable witness")
}

// replayWitness re-runs the recorded algebra. ok=false with a non-empty
// detail means the replay was attempted and failed; ok=false with empty
// detail means the witness is not replayable (placeholder sources).
func replayWitness(lg *Ledger, rec Record, verified []bool) (Verdict, string, bool) {
	sum := anf.Zero()
	for _, t := range rec.Witness {
		if t.Src < 0 {
			return 0, "", false
		}
		if t.Src >= rec.ID {
			return 0, fmt.Sprintf("witness references record %d at or after the fact itself", t.Src), false
		}
		if !verified[t.Src] {
			return 0, "", false
		}
		sum = sum.Add(t.Mult.Mul(lg.At(t.Src).Poly))
	}
	if !sum.Equal(rec.Poly) {
		return 0, fmt.Sprintf("combination yields %s, fact is %s", sum, rec.Poly), false
	}
	return VerdictWitness, fmt.Sprintf("exact replay over %d source records", len(rec.Witness)), true
}

// refute checks semantic entailment with an independent SAT translation:
// input ∧ (fact ⊕ 1) unsatisfiable ⇔ input ⊨ fact = 0. For the
// contradiction fact 1 = 0 this degenerates to refuting the input alone.
func refute(original *anf.System, rec Record, opts VerifyOptions, why string) (Verdict, string) {
	sys := original.Clone()
	if !rec.Poly.IsOne() {
		sys.Add(rec.Poly.AddConstant(true))
	}
	f, _ := conv.ANFToCNF(sys, opts.Conv)
	s := sat.New(sat.DefaultOptions(opts.Profile))
	if !s.AddFormula(f) {
		return VerdictEntailed, "refutation UNSAT at clause insertion (" + why + ")"
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	switch s.SolveLimitedCtx(ctx, opts.RefuteBudget) {
	case sat.Unsat:
		return VerdictEntailed, "SAT refutation proved entailment (" + why + ")"
	case sat.Sat:
		if rec.Poly.IsOne() {
			return VerdictFailed, "input system is satisfiable but the ledger claims a contradiction"
		}
		return VerdictFailed, "SAT model satisfies the input but falsifies the fact"
	default:
		return VerdictUnverified, "refutation budget exhausted (" + why + ")"
	}
}
