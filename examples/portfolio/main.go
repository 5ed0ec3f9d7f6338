// Parallel portfolio solving: Bosphorus preprocessing feeding a portfolio
// of differently-configured CDCL solvers racing on the same formula (the
// construction behind Plingeling, the parallel sibling of the paper's
// Lingeling column). The demo instance is a planted parity system — easy
// for the GJE-enabled worker, hard for the plain ones — so the winner
// illustrates why solver diversity pays.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"time"

	bosphorus "repro"
	"repro/internal/cnf"
	"repro/internal/portfolio"
	"repro/internal/sat"
	"repro/internal/satgen"
)

func main() {
	nVars := flag.Int("vars", 48, "parity system variables")
	seed := flag.Int64("seed", 7, "instance seed")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	inst := satgen.ParityChain(*nVars, *nVars+6, 3, true, rng)
	fmt.Printf("instance %s: %s (planted SAT)\n", inst.Name, inst.Formula.Stats())

	// Recover the hidden XOR structure first (what CryptoMiniSat does
	// internally), then race the portfolio on it.
	recovered := sat.RecoverXors(inst.Formula, 6)
	fmt.Printf("xor recovery: %d clause groups became %d native xors\n",
		len(inst.Formula.Clauses)-len(recovered.Clauses), len(recovered.Xors))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res := portfolio.Solve(ctx, recovered, nil)
	fmt.Printf("portfolio: %v in %v — winner: %s\n", res.Status, res.Elapsed.Round(time.Microsecond), res.Winner)
	if res.Status == sat.Sat {
		if !inst.Formula.Eval(func(v cnf.Var) bool { return res.Model[v] }) {
			panic("winning model does not satisfy the original formula")
		}
		fmt.Println("model verified against the original CNF ✓")
	}

	// The same instance through the Bosphorus ANF bridge, for comparison.
	opts := bosphorus.DefaultOptions()
	opts.Seed = *seed
	t0 := time.Now()
	bres := bosphorus.SolveCNF(inst.Formula, opts)
	fmt.Printf("bosphorus bridge: %v in %v\n", bres.Status, time.Since(t0).Round(time.Microsecond))
}
