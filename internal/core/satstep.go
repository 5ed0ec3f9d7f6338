package core

import (
	"bytes"
	"context"
	"sort"
	"time"

	"repro/internal/anf"
	"repro/internal/cnf"
	"repro/internal/conv"
	"repro/internal/proof"
	"repro/internal/route"
	"repro/internal/sat"
	"repro/internal/simp"
)

// SATStepConfig parameterizes conflict-bounded SAT solving (§II-D).
type SATStepConfig struct {
	// ConflictBudget is C, the number of conflicts the solver may spend.
	ConflictBudget int64
	// Profile selects the solver personality.
	Profile sat.Profile
	// Conv is the ANF→CNF conversion configuration.
	Conv conv.Options
	// Preprocess runs simp preprocessing before solving (the Lingeling
	// pairing). Facts are still extracted in the original variable space,
	// so only the solve benefits.
	Preprocess bool
	// HarvestMonomials additionally interprets learnt units on monomial
	// auxiliary variables as monomial facts. The paper's implementation
	// excludes auxiliary variables from learnt facts (§III-C); this is the
	// ablation toggle.
	HarvestMonomials bool
	// Probe runs failed-literal probing before the search — the
	// lookahead-style component the paper's §V names as pluggable. Probe
	// units flow through the normal unit harvest; probe equivalences are
	// harvested directly.
	Probe bool
	// ProbeMax bounds the number of probed variables (0 = all).
	ProbeMax int
	// Seed makes the solver deterministic.
	Seed int64
	// Context, when non-nil, cancels the step: the solver's interrupt hook
	// polls it during probing and search, so the step returns (with the
	// facts harvested so far) soon after cancellation. A nil Context never
	// cancels.
	Context context.Context
	// Route classifies the converted CNF into tractable fragments (2SAT,
	// Horn, anti-Horn, pure XOR) and, on a match, decides it with the
	// polynomial solver from internal/route instead of CDCL. Routed UNSAT
	// verdicts still carry a checkable certificate when CaptureProof is
	// set; routed SAT models are verified before being trusted.
	Route bool
	// NoNativeXor disables the solver's native parity-clause kind and
	// restores the pre-native routing: XOR pieces are clausally cut at
	// conversion (MiniSat/Lingeling profiles) or handed whole to the Gauss
	// side-car (CMS profile): the differential baseline that tests and
	// benchmarks compare native parity against.
	NoNativeXor bool
	// CaptureProof attaches a DRAT writer to the solver and, when the step
	// refutes the formula, returns the proof as a Certificate. Capture
	// forces Preprocess off: simp rewrites the clause set, so a proof
	// logged against the preprocessed formula would not check against the
	// emitted CNF.
	CaptureProof bool
	// ProofBinary selects the compact binary proof encoding.
	ProofBinary bool
}

// SATStepResult carries the outcome of one conflict-bounded solve.
type SATStepResult struct {
	Status sat.Status
	// Facts are the learnt polynomials: x, x⊕1 from units; x⊕y, x⊕y⊕1
	// from complementary binary-clause pairs; 1 (contradiction) on UNSAT.
	Facts []anf.Poly
	// Model is the satisfying assignment over the CNF variables when
	// Status is Sat.
	Model []bool
	// VarMap relates CNF variables to ANF monomials.
	VarMap *conv.VarMap
	// Conflicts actually spent.
	Conflicts uint64
	// Notes describes, parallel to Facts, where each fact came from
	// ("learnt unit", "complementary binary pair", ...) — the per-fact
	// detail the provenance ledger records.
	Notes []string
	// Certificate holds the DRAT proof when CaptureProof was set and the
	// step refuted the formula.
	Certificate *proof.Certificate
	// RoutedVia names the tractable fragment that decided this step
	// ("2sat", "horn", "antihorn", "xor") — empty when CDCL ran.
	RoutedVia string
	// RouteNs is the time the router spent (classify + fragment solve),
	// whether or not it produced a verdict; 0 when routing was off.
	RouteNs int64
}

// RunSATStep converts the system to CNF, solves under the conflict budget,
// and harvests learnt facts (§II-D).
func RunSATStep(sys *anf.System, cfg SATStepConfig) *SATStepResult {
	if cfg.ConflictBudget <= 0 {
		cfg.ConflictBudget = 10000
	}
	if cfg.CaptureProof {
		// A proof logged against the simp-rewritten clause set would not
		// check against the emitted CNF; capture implies no preprocessing.
		cfg.Preprocess = false
	}
	convOpts := cfg.Conv
	// With native parity clauses (the default), every profile keeps XOR
	// pieces whole through conversion — the solver watches them directly.
	// The CNF-cut baseline restores the old rule: only the GJE-enabled CMS
	// profile gets native XOR clauses.
	if !cfg.NoNativeXor || cfg.Profile == sat.ProfileCMS {
		convOpts.NativeXor = true
	}
	f, vm := conv.ANFToCNF(sys, convOpts)
	res := &SATStepResult{VarMap: vm}
	addFact := func(p anf.Poly, note string) {
		res.Facts = append(res.Facts, p)
		res.Notes = append(res.Notes, note)
	}

	if cfg.Route {
		//lint:ignore determinism timing only: routeStart feeds the route_ns metric, never fact ordering
		routeStart := time.Now()
		v, _, routed := route.Decide(f)
		res.RouteNs = time.Since(routeStart).Nanoseconds()
		if routed {
			res.RoutedVia = v.Fragment.String()
			res.Status = v.Status
			switch v.Status {
			case sat.Sat:
				res.Model = v.Model
			case sat.Unsat:
				addFact(anf.OnePoly(), "routed "+res.RoutedVia+" refutation")
				if cfg.CaptureProof {
					// Fragment proofs are always text (RUP chain or xor
					// justification) against the unpreprocessed CNF.
					res.Certificate = &proof.Certificate{
						Formula: f,
						Proof:   append([]byte(nil), v.Proof...),
					}
				}
			}
			return res
		}
	}

	target := f
	var rec *simp.Reconstructor
	if cfg.Preprocess {
		pres := simp.Preprocess(f, simp.DefaultOptions())
		if pres.Unsat {
			res.Status = sat.Unsat
			addFact(anf.OnePoly(), "preprocessor refutation")
			return res
		}
		target = pres.Formula
		rec = pres.Reconstructor
	}

	opts := sat.DefaultOptions(cfg.Profile)
	if cfg.NoNativeXor {
		opts.NativeXor = false
	}
	if cfg.Seed != 0 {
		opts.RandomSeed = cfg.Seed
	}
	s := sat.New(opts)
	var proofBuf *bytes.Buffer
	var proofW sat.ProofWriter
	if cfg.CaptureProof {
		proofBuf = &bytes.Buffer{}
		if cfg.ProofBinary {
			proofW = proof.NewBinaryWriter(proofBuf)
		} else {
			proofW = proof.NewTextWriter(proofBuf)
		}
		s.SetProof(proofW)
	}
	// certify snapshots the proof stream into the result; called on every
	// refutation exit so the caller gets a checkable certificate.
	certify := func() {
		if proofW == nil {
			return
		}
		_ = proofW.Flush()
		res.Certificate = &proof.Certificate{
			Formula: target,
			Proof:   append([]byte(nil), proofBuf.Bytes()...),
			Binary:  cfg.ProofBinary,
		}
	}
	if cfg.Context != nil && cfg.Context.Done() != nil {
		ctx := cfg.Context
		s.SetInterrupt(func() bool { return ctx.Err() != nil })
	}
	if !s.AddFormula(target) {
		res.Status = sat.Unsat
		addFact(anf.OnePoly(), "refuted at clause insertion")
		certify()
		return res
	}
	if cfg.Probe {
		probe := s.ProbeLiterals(cfg.ProbeMax)
		if probe.Unsat {
			res.Status = sat.Unsat
			addFact(anf.OnePoly(), "refuted by probing")
			certify()
			return res
		}
		for _, eq := range probe.Equivalences {
			a, b := eq[0], eq[1]
			if !vm.IsOriginal(a.Var()) || !vm.IsOriginal(b.Var()) || cfg.Preprocess {
				continue
			}
			p := anf.VarPoly(anf.Var(a.Var())).Add(anf.VarPoly(anf.Var(b.Var())))
			if a.Neg() != b.Neg() {
				p = p.Add(anf.OnePoly())
			}
			addFact(p, "probe equivalence")
		}
	}
	res.Status = s.SolveLimited(cfg.ConflictBudget)
	res.Conflicts = s.Conflicts

	switch res.Status {
	case sat.Unsat:
		// Case (1): the learnt fact is the contradiction 1 = 0 (alone — the
		// probe harvest is subsumed, matching the paper's behaviour).
		res.Facts, res.Notes = nil, nil
		addFact(anf.OnePoly(), "solver refutation")
		certify()
		return res
	case sat.Sat:
		m := s.Model()
		for len(m) < target.NumVars {
			m = append(m, false)
		}
		if rec != nil {
			m = rec.Extend(m)
		}
		for len(m) < f.NumVars {
			m = append(m, false)
		}
		res.Model = m
	}
	// Cases (2) and (3): extract linear equations from learnt unit and
	// binary clauses. Facts derived from a preprocessed formula are only
	// harvested when they mention original variables (preprocessing
	// preserves equivalence on them because units are re-asserted and
	// frozen xor variables are untouched; eliminated variables simply
	// yield no facts).
	harvest := func(l cnf.Lit) (anf.Poly, bool) {
		v := l.Var()
		if vm.IsOriginal(v) {
			return anf.VarPoly(anf.Var(v)).AddConstant(!l.Neg()), true
		}
		if cfg.HarvestMonomials {
			if m, ok := vm.Monomial(v); ok {
				p := anf.FromMonomials(m)
				return p.AddConstant(!l.Neg()), true
			}
		}
		return anf.Zero(), false
	}
	for _, u := range s.LearntUnits() {
		if p, ok := harvest(u); ok {
			addFact(p, "learnt unit")
		}
	}
	// Complementary binary pairs (a ∨ b) ∧ (¬a ∨ ¬b) give a = ¬b, and
	// (¬a ∨ b) ∧ (a ∨ ¬b) give a = b.
	type pairKey struct{ a, b cnf.Var }
	seen := map[pairKey][4]bool{} // index: a-sign<<1 | b-sign
	record := func(c cnf.Clause) {
		a, b := c[0], c[1]
		if a.Var() > b.Var() {
			a, b = b, a
		}
		k := pairKey{a.Var(), b.Var()}
		entry := seen[k]
		idx := 0
		if a.Neg() {
			idx |= 2
		}
		if b.Neg() {
			idx |= 1
		}
		entry[idx] = true
		seen[k] = entry
	}
	for _, b := range s.LearntBinaries() {
		if len(b) == 2 && b[0].Var() != b[1].Var() {
			record(b)
		}
	}
	// Iterate the pairs in sorted order: map order is randomized per
	// process, and the order facts are added is part of the reproducible-
	// run contract (the determinism analyzer rejects map-range fact
	// emission).
	keys := make([]pairKey, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})
	for _, k := range keys {
		entry := seen[k]
		if !vm.IsOriginal(k.a) || !vm.IsOriginal(k.b) {
			continue
		}
		av, bv := anf.Var(k.a), anf.Var(k.b)
		if entry[0] && entry[3] {
			// (a∨b) and (¬a∨¬b): exactly one true → a = ¬b.
			addFact(anf.VarPoly(av).Add(anf.VarPoly(bv)).Add(anf.OnePoly()), "complementary binary pair")
		}
		if entry[1] && entry[2] {
			// (a∨¬b) and (¬a∨b): a = b.
			addFact(anf.VarPoly(av).Add(anf.VarPoly(bv)), "complementary binary pair")
		}
	}
	// Generalized binary harvest: strongly connected components of the
	// implication graph over problem + learnt binaries find equivalences
	// that need a chain of implications, not just complementary pairs.
	// (Skip under preprocessing: simp rewrites the clause set.)
	if !cfg.Preprocess {
		bin := cnf.NewFormula(f.NumVars)
		for _, c := range f.Clauses {
			if len(c) == 2 {
				bin.AddClause(c...)
			}
		}
		for _, c := range s.LearntBinaries() {
			bin.AddClause(c...)
		}
		if eqs, ok := sat.BinaryEquivalences(bin); !ok {
			addFact(anf.OnePoly(), "binary implication contradiction")
		} else {
			for _, eq := range eqs {
				a, b := eq[0], eq[1]
				if !vm.IsOriginal(a.Var()) || !vm.IsOriginal(b.Var()) {
					continue
				}
				p := anf.VarPoly(anf.Var(a.Var())).Add(anf.VarPoly(anf.Var(b.Var())))
				if a.Neg() != b.Neg() {
					p = p.Add(anf.OnePoly())
				}
				addFact(p, "implication-graph equivalence")
			}
		}
	}
	return res
}
