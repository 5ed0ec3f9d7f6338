package sat

import (
	"slices"

	"repro/internal/cnf"
)

// This file is the shared strongly-connected-component machinery over
// binary implication graphs. Two consumers build on it:
//
//   - BinaryEquivalences below, the §II-D SAT-step harvest that reads
//     linear equations off implication cycles, and
//   - the 2SAT fragment solver in internal/route, which decides a
//     binary-clause formula in O(n+m) from the component order alone.
//
// The graph is literal-indexed (cnf.Lit doubles as the node index), and
// the SCC pass is iterative Tarjan, so megavariable implication chains
// do not overflow the goroutine stack.

// Implications is a binary implication graph: one node per literal,
// every 2-clause (a ∨ b) contributing the edges ¬a → b and ¬b → a, and
// every unit clause (l) contributing ¬l → l (assuming ¬l forces the
// contradiction l, which makes units first-class in the SCC analysis).
type Implications struct {
	numVars int
	adj     [][]int32
}

// NewImplications returns an empty graph over n variables.
func NewImplications(n int) *Implications {
	return &Implications{numVars: n, adj: make([][]int32, 2*n)}
}

// NumVars returns the variable count the graph was built over.
func (g *Implications) NumVars() int { return g.numVars }

// AddBinary records the clause (a ∨ b) as the implication pair
// ¬a → b, ¬b → a. Clauses over a single variable (a ∨ a, a ∨ ¬a) are
// ignored: the first is a unit (use AddUnit), the second a tautology.
func (g *Implications) AddBinary(a, b cnf.Lit) {
	if a.Var() == b.Var() {
		return
	}
	g.adj[a.Not()] = append(g.adj[a.Not()], int32(b))
	g.adj[b.Not()] = append(g.adj[b.Not()], int32(a))
}

// AddUnit records the clause (l) as the self-forcing edge ¬l → l.
func (g *Implications) AddUnit(l cnf.Lit) {
	g.adj[l.Not()] = append(g.adj[l.Not()], int32(l))
}

// AddFormulaBinaries loads every unit and 2-clause of f (longer clauses
// and XOR constraints are skipped; callers wanting a faithful 2SAT view
// must ensure the formula has none).
func (g *Implications) AddFormulaBinaries(f *cnf.Formula) {
	for _, c := range f.Clauses {
		switch len(c) {
		case 1:
			g.AddUnit(c[0])
		case 2:
			if c[0].Var() == c[1].Var() && c[0] == c[1] {
				g.AddUnit(c[0])
				continue
			}
			g.AddBinary(c[0], c[1])
		}
	}
}

// Components is the result of an SCC pass: a component id per literal,
// numbered in reverse topological order of the condensation — for every
// implication u → v, Comp[v] ≤ Comp[u], with equality exactly when u and
// v are in the same component. That ordering is what the 2SAT model
// construction reads off directly.
type Components struct {
	// Comp maps each literal (as an index) to its component id.
	Comp []int32
	// N is the number of components.
	N int32
}

// Of returns the component id of a literal.
func (c *Components) Of(l cnf.Lit) int32 { return c.Comp[l] }

// Contradiction returns a variable that is equivalent to its own
// negation (comp[v] == comp[¬v]), which makes the binary layer
// unsatisfiable, and ok=true when one exists. Variables are scanned in
// index order, so the witness is deterministic.
func (c *Components) Contradiction() (cnf.Var, bool) {
	n := len(c.Comp) / 2
	for v := 0; v < n; v++ {
		if c.Comp[2*v] == c.Comp[2*v+1] {
			return cnf.Var(v), true
		}
	}
	return 0, false
}

// SCC computes the strongly connected components of the graph.
func (g *Implications) SCC() *Components {
	comp, n := tarjanSCC(g.adj)
	return &Components{Comp: comp, N: n}
}

// BinaryEquivalences analyzes the binary implication graph of a formula:
// every 2-clause (a ∨ b) contributes the implications ¬a → b and ¬b → a.
// Literals in the same strongly connected component are equivalent —
// exactly the "linear equations from binary clauses" the paper's SAT-step
// harvest is after (§II-D), generalized from complementary pairs to
// arbitrary implication cycles.
//
// It returns one (root, member) pair per non-trivial equivalence, in
// component id order, plus ok=false when a variable is equivalent to its
// own negation (the formula is unsatisfiable). A formula without a
// 2-clause has no equivalence, and the graph's per-literal tables are
// not built for it.
func BinaryEquivalences(f *cnf.Formula) ([][2]cnf.Lit, bool) {
	if !slices.ContainsFunc(f.Clauses, func(c cnf.Clause) bool { return len(c) == 2 }) {
		return nil, true
	}
	g := NewImplications(f.NumVars)
	for _, c := range f.Clauses {
		if len(c) == 2 {
			g.AddBinary(c[0], c[1])
		}
	}
	sccs := g.SCC()
	if _, bad := sccs.Contradiction(); bad {
		return nil, false
	}
	// Group the literals by component with a counting pass, each group in
	// ascending literal order, then emit (root, member) pairs component by
	// component in id order, with the smallest literal of each component
	// as root.
	comp := sccs.Comp
	end := make([]int32, sccs.N) // per component: its size, then its start, then its end
	for _, c := range comp {
		end[c]++
	}
	var sum int32
	for c, n := range end {
		end[c] = sum
		sum += n
	}
	lits := make([]cnf.Lit, len(comp))
	for l, c := range comp {
		lits[end[c]] = cnf.Lit(l)
		end[c]++
	}
	var out [][2]cnf.Lit
	seen := make([]bool, f.NumVars)
	begin := int32(0)
	for _, e := range end {
		group := lits[begin:e]
		begin = e
		if len(group) < 2 {
			continue
		}
		root := group[0]
		for _, l := range group[1:] {
			if l.Var() == root.Var() {
				continue
			}
			// Emit each variable pair once (the complementary component
			// mirrors every pair).
			if seen[l.Var()] && seen[root.Var()] {
				continue
			}
			seen[l.Var()] = true
			seen[root.Var()] = true
			out = append(out, [2]cnf.Lit{root, l})
		}
	}
	return out, true
}

// tarjanSCC computes strongly connected components of a literal graph,
// iteratively (explicit stack) to handle long implication chains. It
// returns the component id per node and the component count; ids are
// assigned in reverse topological order of the condensation.
func tarjanSCC(adj [][]int32) ([]int32, int32) {
	n := len(adj)
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	comp := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int32
	var nextIndex, nextComp int32

	type frame struct {
		v     int32
		child int
	}
	var callStack []frame
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		callStack = append(callStack[:0], frame{int32(root), 0})
		index[root] = nextIndex
		low[root] = nextIndex
		nextIndex++
		stack = append(stack, int32(root))
		onStack[root] = true
		for len(callStack) > 0 {
			fr := &callStack[len(callStack)-1]
			if fr.child < len(adj[fr.v]) {
				w := adj[fr.v][fr.child]
				fr.child++
				if index[w] == unvisited {
					index[w] = nextIndex
					low[w] = nextIndex
					nextIndex++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{w, 0})
				} else if onStack[w] && low[fr.v] > index[w] {
					low[fr.v] = index[w]
				}
				continue
			}
			// Post-visit: pop and propagate lowlink.
			v := fr.v
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				parent := &callStack[len(callStack)-1]
				if low[parent.v] > low[v] {
					low[parent.v] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = nextComp
					if w == v {
						break
					}
				}
				nextComp++
			}
		}
	}
	return comp, nextComp
}
