// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver in the MiniSat tradition: two-watched-literal propagation, VSIDS
// branching, first-UIP conflict analysis with clause minimization, phase
// saving, Luby restarts and activity-based learnt-clause deletion.
//
// It reproduces the three solver roles of the Bosphorus paper:
//
//   - ProfileMiniSat: the minimalistic baseline configuration,
//   - ProfileLingeling: CDCL plus heavier preprocessing (bounded variable
//     elimination and subsumption, package simp) standing in for a
//     high-performance inprocessing solver,
//   - ProfileCMS: CDCL with native XOR constraints propagated by
//     Gauss–Jordan elimination, CryptoMiniSat's signature feature.
//
// Beyond solving, the package exposes what Bosphorus needs for fact
// learning: conflict budgets (§II-D) and harvesting of learnt unit and
// binary clauses.
package sat

// Profile selects a solver personality corresponding to the three solvers
// evaluated in the paper.
type Profile int

const (
	// ProfileMiniSat is the plain CDCL configuration.
	ProfileMiniSat Profile = iota
	// ProfileLingeling is CDCL tuned with more aggressive clause-database
	// management; callers pair it with simp preprocessing.
	ProfileLingeling
	// ProfileCMS is CDCL with the XOR/Gauss–Jordan propagator enabled.
	ProfileCMS
)

func (p Profile) String() string {
	switch p {
	case ProfileMiniSat:
		return "minisat"
	case ProfileLingeling:
		return "lingeling"
	case ProfileCMS:
		return "cryptominisat"
	default:
		return "unknown"
	}
}

// Options configures a Solver.
type Options struct {
	Profile Profile

	// VarDecay and ClauseDecay are the VSIDS/activity decay factors.
	VarDecay    float64
	ClauseDecay float64

	// RestartBase is the Luby restart unit, in conflicts.
	RestartBase int

	// LearntsFraction triggers clause-database reduction when the learnt
	// clause count exceeds this fraction of problem clauses plus trail.
	LearntsFraction float64

	// PhaseSaving enables progress saving of variable polarities.
	PhaseSaving bool

	// RandomSeed drives randomized polarity/decision tie-breaking; runs are
	// deterministic for a fixed seed.
	RandomSeed int64

	// RandomFreq is the probability of a random decision variable.
	RandomFreq float64

	// EnableGauss turns on the XOR Gauss–Jordan propagator (CMS profile).
	EnableGauss bool

	// NativeXor routes AddXor constraints into the solver's packed parity
	// clause kind — one arena record per constraint, watched with the same
	// {ref, blocker} two-watch scheme as ordinary clauses — instead of the
	// 2^(k-1) clausal cut (no Gauss) or the Gauss side-car (CMS profile).
	// Rows longer than DefaultNativeXorMaxLen still go to Gauss when it is
	// enabled: long rows benefit from inter-reduction, short rows are
	// cheaper in-watch. DefaultOptions turns this on for every profile;
	// clear it (bosphorus -native-xor=false) for the differential CNF-cut
	// baseline.
	NativeXor bool
}

// DefaultNativeXorMaxLen is the native-parity length threshold: with
// Gauss enabled, rows with more variables than this go to the elimination
// side-car. It matches RecoverXors' default recovery width: every XOR the
// solver recovers from clausal form stays in-watch, and only genuinely
// long rows (hand-added or conversion-emitted) reach the Gauss side-car.
const DefaultNativeXorMaxLen = 6

// DefaultOptions returns the options for a profile, mirroring the paper's
// solver matrix (§IV).
func DefaultOptions(p Profile) Options {
	o := Options{
		Profile:         p,
		VarDecay:        0.95,
		ClauseDecay:     0.999,
		RestartBase:     100,
		LearntsFraction: 1.0 / 3.0,
		PhaseSaving:     true,
		RandomSeed:      91648253,
		RandomFreq:      0,
		NativeXor:       true,
	}
	switch p {
	case ProfileLingeling:
		o.VarDecay = 0.85 // more reactive VSIDS, à la agile restarts
		o.RestartBase = 50
	case ProfileCMS:
		o.EnableGauss = true
	}
	return o
}

// Status is the outcome of a (possibly budget-limited) solve call.
type Status int

const (
	// Unknown means the conflict budget ran out before a verdict (§II-D
	// case 3).
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula is unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}
