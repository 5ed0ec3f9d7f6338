package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// DeterminismAnalyzer guards the bit-identical-run contract of the
// provenance-tracked packages (internal/core, internal/proof), of the
// cube-and-conquer layer (internal/cube, internal/share), of the routing
// tier (internal/route, internal/walksat), whose single-worker runs must
// reproduce from the seed alone, of the ANF→CNF converter
// (internal/conv, internal/minimize), whose clause order steers every SAT
// step's search and with it the learnt facts, and of the SAT solver
// (internal/sat), whose search and equivalence harvest decide those facts
// in the order they are returned: a run is reproducible from
// Config.Seed alone, so nothing in those packages may consult a global
// entropy source or let map iteration order decide the order facts are
// learnt or recorded. Rules:
//
//   - No package-level math/rand calls (rand.Intn, rand.Perm, ...): the
//     global source is seeded from runtime entropy. Constructing an
//     explicitly seeded generator (rand.New(rand.NewSource(seed))) is
//     fine; in internal/core, internal/route, and internal/walksat it
//     must additionally go through the one core.NewRNG helper so every
//     generator derives from the configured seed (WalkSAT restarts and
//     noise flips replay bit-identically from Options.Seed).
//   - No time.Now: wall-clock reads make runs diverge. Timing-only uses
//     (Result.Elapsed, deadlines) carry a //lint:ignore with the reason.
//   - No map-range loop that feeds an ordered output (append or an
//     add/record/emit-style call in the body) unless the function sorts
//     the result afterwards: map order is randomized per process, so the
//     fact/equation order — and with it the whole downstream run — would
//     differ between identical invocations.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "provenance-tracked paths must be reproducible: no global rand, no time.Now, no map-order-dependent fact ordering",
	Run:  runDeterminism,
}

var determinismTargets = []string{"internal/core", "internal/proof", "internal/cube", "internal/share", "internal/route", "internal/walksat", "internal/conv", "internal/minimize", "internal/sat"}

// newRNGScoped are the targets where RNG construction must go through
// core.NewRNG rather than bare rand.New(rand.NewSource(...)).
var newRNGScoped = []string{"internal/core", "internal/route", "internal/walksat"}

// rngConstructors are the math/rand functions that build explicitly
// seeded generators rather than drawing from the global source.
var rngConstructors = map[string]bool{"New": true, "NewSource": true}

func runDeterminism(pass *Pass) {
	targeted := false
	for _, t := range determinismTargets {
		if pkgPathHas(pass.Pkg, t) {
			targeted = true
			break
		}
	}
	if !targeted {
		return
	}
	viaNewRNG := false
	for _, t := range newRNGScoped {
		if pkgPathHas(pass.Pkg, t) {
			viaNewRNG = true
			break
		}
	}
	// The helper itself lives in internal/core; only there may a function
	// named NewRNG construct a generator directly.
	inCore := pkgPathHas(pass.Pkg, "internal/core")
	for _, file := range pass.Pkg.Files {
		eachFuncBody(file, func(fd *ast.FuncDecl, body *ast.BlockStmt) {
			checkEntropySources(pass, fd, body, viaNewRNG, inCore)
			checkMapRangeOrdering(pass, body)
		})
	}
}

// checkEntropySources flags global math/rand use and time.Now. In
// viaNewRNG packages bare RNG construction is also flagged — except in
// internal/core's own NewRNG helper, which is where it must live.
func checkEntropySources(pass *Pass, fd *ast.FuncDecl, body *ast.BlockStmt, viaNewRNG, inCore bool) {
	funcName := ""
	if fd != nil {
		funcName = fd.Name.Name
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch {
		case isPkgIdent(pass.Pkg, sel.X, "math/rand"):
			if !rngConstructors[sel.Sel.Name] {
				pass.Reportf(call.Pos(),
					"rand.%s draws from the global math/rand source; use the run's seeded *rand.Rand", sel.Sel.Name)
			} else if viaNewRNG && !(inCore && funcName == "NewRNG") {
				pass.Reportf(call.Pos(),
					"construct RNGs through core.NewRNG so every generator derives from Config.Seed")
			}
		case isPkgIdent(pass.Pkg, sel.X, "time") && sel.Sel.Name == "Now":
			pass.Reportf(call.Pos(),
				"time.Now makes provenance-tracked runs irreproducible; derive ordering from the seed, not the clock")
		}
		return true
	})
}

// orderedSinkFragments mark a call inside a map-range body as producing
// ordered output.
var orderedSinkFragments = []string{"add", "record", "emit", "learn", "push", "write", "fact"}

// checkMapRangeOrdering flags range-over-map loops whose body feeds an
// ordered sink, unless a sort call follows the loop in the same function.
func checkMapRangeOrdering(pass *Pass, body *ast.BlockStmt) {
	var sortCalls []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if isPkgIdent(pass.Pkg, sel.X, "sort") || isPkgIdent(pass.Pkg, sel.X, "slices") {
				sortCalls = append(sortCalls, call.Pos())
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := typeOf(pass.Pkg, rng.X)
		if t == nil {
			return true
		}
		if !isMapType(t) {
			return true
		}
		if !bodyFeedsOrderedSink(rng.Body) {
			return true
		}
		for _, p := range sortCalls {
			if p > rng.End() {
				return true // sorted afterwards: order restored
			}
		}
		pass.Reportf(rng.Pos(),
			"map iteration order feeds an ordered output; collect and sort the keys first (or sort the result)")
		return true
	})
}

// bodyFeedsOrderedSink reports whether the loop body appends to a slice or
// calls an add/record/emit-style function.
func bodyFeedsOrderedSink(body *ast.BlockStmt) bool {
	return containsCall(body, func(call *ast.CallExpr) bool {
		name := calleeName(call)
		if name == "append" {
			return true
		}
		lower := strings.ToLower(name)
		for _, frag := range orderedSinkFragments {
			if strings.Contains(lower, frag) {
				return true
			}
		}
		return false
	})
}
