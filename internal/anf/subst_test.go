package anf

import (
	"math/rand"
	"testing"
)

// refSubstituteVar is substitution by polynomial addition alone: the terms
// free of v, plus r·(t/v) for every term t containing v, added one product
// at a time.
func refSubstituteVar(p Poly, v Var, r Poly) Poly {
	var keep []Monomial
	var replaced Poly
	for _, t := range p.terms {
		if !t.Contains(v) {
			keep = append(keep, t)
			continue
		}
		replaced = replaced.Add(r.MulMonomial(t.Without(v)))
	}
	return Poly{terms: keep}.Add(replaced)
}

// TestSubstituteMatchesReference pins the kernel, in both of its forms,
// to substitution by addition: r may be zero, one, or contain v itself.
// One Substituter serves every in-place call, and every result must
// still hold at the end, so reused buffers must never leak into them.
func TestSubstituteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s Substituter
	var kept, want []Poly
	for trial := 0; trial < 3000; trial++ {
		p := randPoly(rng, 10, 12, 3)
		v := Var(rng.Intn(10))
		var r Poly
		switch trial % 5 {
		case 0:
			r = Constant(rng.Intn(2) == 1)
		case 1:
			r = randPoly(rng, 10, 4, 1).Add(VarPoly(v))
		default:
			r = randPoly(rng, 10, 4, 2)
		}
		ref := refSubstituteVar(p, v, r)
		if got := p.SubstituteVar(v, r); !got.Equal(ref) {
			t.Fatalf("trial %d: (%s)[%s := %s] = %s, reference %s", trial, p, v, r, got, ref)
		}
		q := FromSortedMonomials(p.Terms())
		if changed := s.SubstituteInPlace(&q, v, r); changed != p.ContainsVar(v) || !q.Equal(ref) {
			t.Fatalf("trial %d: in place (%s)[%s := %s] = %s (changed %v), reference %s", trial, p, v, r, q, changed, ref)
		}
		kept, want = append(kept, q), append(want, ref)
	}
	for i := range kept {
		if !kept[i].Equal(want[i]) {
			t.Fatalf("result %d changed by later calls: %s, want %s", i, kept[i], want[i])
		}
	}
}
