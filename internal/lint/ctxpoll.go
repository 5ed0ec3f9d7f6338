package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// CtxPollAnalyzer enforces the cancellation contract: long-running work in
// internal/core, internal/sat, internal/portfolio, internal/cube and
// internal/walksat must stay interruptible. Concretely:
//
//   - An exported function that can see a cancellation signal — a
//     context.Context parameter, or a parameter/receiver struct carrying a
//     Context field — and that contains loops must either poll a
//     cancellation probe (ctx.Err(), ctxCanceled, expired, <-ctx.Done(),
//     an interrupted check) inside at least one loop, or hand the context
//     to a solver (SetInterrupt) that does the polling.
//   - Any infinite `for` loop (no condition) with no break must contain a
//     cancellation probe: without one, nothing bounds the loop once a job
//     deadline fires, and the solver-service worker stays occupied
//     forever.
var CtxPollAnalyzer = &Analyzer{
	Name: "ctxpoll",
	Doc:  "long-running technique/search loops must poll ctx.Err()/Interrupt",
	Run:  runCtxPoll,
}

var ctxpollTargets = []string{"internal/core", "internal/sat", "internal/portfolio", "internal/cube", "internal/walksat"}

func runCtxPoll(pass *Pass) {
	targeted := false
	for _, t := range ctxpollTargets {
		if pkgPathHas(pass.Pkg, t) {
			targeted = true
			break
		}
	}
	if !targeted {
		return
	}
	for _, file := range pass.Pkg.Files {
		eachFuncBody(file, func(fd *ast.FuncDecl, body *ast.BlockStmt) {
			checkInfiniteLoops(pass, fd, body)
			if !fd.Name.IsExported() {
				return
			}
			if !hasCancelAccess(pass, fd) {
				return
			}
			loops := collectLoops(body)
			if len(loops) == 0 {
				return
			}
			for _, loop := range loops {
				if containsProbe(pass, loop) {
					return
				}
			}
			// Installing the signal in a solver (SetInterrupt and friends)
			// delegates the polling to it.
			if containsCall(body, func(c *ast.CallExpr) bool {
				return strings.Contains(strings.ToLower(calleeName(c)), "interrupt")
			}) {
				return
			}
			pass.Reportf(loops[0].Pos(),
				"exported %s receives a cancellation signal but none of its loops polls ctx.Err()/Interrupt", fd.Name.Name)
		})
	}
}

// hasCancelAccess reports whether the function can observe cancellation: a
// context.Context parameter (directly or as a struct field of a parameter
// type) or a receiver carrying one.
func hasCancelAccess(pass *Pass, fd *ast.FuncDecl) bool {
	check := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, f := range fl.List {
			t := typeOf(pass.Pkg, f.Type)
			if t == nil {
				continue
			}
			if isContextType(t) || typeHasContextField(t) {
				return true
			}
		}
		return false
	}
	return check(fd.Type.Params) || check(fd.Recv)
}

// collectLoops returns every for/range statement within body, including
// nested ones.
func collectLoops(body *ast.BlockStmt) []ast.Stmt {
	var loops []ast.Stmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n.(ast.Stmt))
		}
		return true
	})
	return loops
}

// probeNameFragments mark a call as a cancellation probe by name:
// ctxCanceled, deadlineExpired, interrupted, canceled...
var probeNameFragments = []string{"cancel", "expire", "interrupt"}

// containsProbe reports whether node lexically contains a cancellation
// probe: a name-matched probe call, ctx.Err() on a context value, or a
// receive from ctx.Done().
func containsProbe(pass *Pass, node ast.Node) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			name := strings.ToLower(calleeName(n))
			for _, frag := range probeNameFragments {
				if strings.Contains(name, frag) {
					found = true
					return false
				}
			}
			if recv := callReceiver(n); recv != nil && (calleeName(n) == "Err" || calleeName(n) == "Done") {
				if t := typeOf(pass.Pkg, recv); t != nil && isContextType(t) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// checkInfiniteLoops flags `for { ... }` loops with no break and no probe,
// in every function of the target packages (the CDCL search loop is
// unexported; the rule must see it).
func checkInfiniteLoops(pass *Pass, fd *ast.FuncDecl, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true
		}
		if loopHasBreak(loop) || containsProbe(pass, loop.Body) {
			return true
		}
		name := "function literal"
		if fd != nil {
			name = fd.Name.Name
		}
		pass.Reportf(loop.Pos(),
			"infinite for loop in %s has no break and never polls ctx.Err()/Interrupt", name)
		return true
	})
}

// loopHasBreak reports whether the loop body contains a break that
// terminates this loop (unlabeled and not swallowed by a nested loop,
// switch, or select — or labeled with this loop's label).
func loopHasBreak(loop *ast.ForStmt) bool {
	return blockHasBreak(loop.Body, false)
}

// blockHasBreak walks stmts; inSwallower tracks whether an unlabeled
// break would bind to a nested construct instead of the loop under test.
// Labeled breaks are treated as terminating (the label can only refer to
// an enclosing statement, and the common idiom is breaking the outer
// loop).
func blockHasBreak(n ast.Node, inSwallower bool) bool {
	found := false
	ast.Inspect(n, func(node ast.Node) bool {
		if found || node == nil {
			return false
		}
		switch s := node.(type) {
		case *ast.BranchStmt:
			if s.Tok != token.BREAK {
				return true
			}
			if s.Label != nil || !inSwallower {
				found = true
			}
			return false
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			if node == n {
				return true
			}
			if blockHasBreak(node, true) {
				// Only labeled breaks escape a nested swallower.
				found = hasLabeledBreak(node)
			}
			return false
		case *ast.FuncLit:
			return false
		}
		return true
	})
	return found
}

// hasLabeledBreak reports whether node contains a labeled break.
func hasLabeledBreak(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(node ast.Node) bool {
		if found {
			return false
		}
		if b, ok := node.(*ast.BranchStmt); ok && b.Tok == token.BREAK && b.Label != nil {
			found = true
			return false
		}
		if _, ok := node.(*ast.FuncLit); ok {
			return false
		}
		return true
	})
	return found
}
