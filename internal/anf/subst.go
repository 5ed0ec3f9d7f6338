package anf

import "slices"

// Substituter holds the buffers of the package's one substitution kernel,
// p[v := r]: every term v·m of p becomes r·m, the products are sorted and
// cancelled, and the result is merged with the terms of p free of v.
// Poly.SubstituteVar runs the kernel on a fresh Substituter; SubstituteInPlace
// reuses one across calls and writes the result back into the polynomial's
// own backing array, so a caller that rewrites many polynomials it owns
// allocates only the variables of the terms a substitution adds.
//
// The zero Substituter is ready to use. It is not safe for concurrent use.
type Substituter struct {
	prods []Monomial // products (t/v)·r_j; their variables live in vars
	vars  []Var      // backing of the products' variables, reused per call
	out   []Monomial // the merged result terms
	added []int32    // positions in out of the products that survived
}

// SubstituteInPlace sets *p to p[v := r] and reports whether p contained v
// (when it did not, *p is left untouched). The rewrite reuses p's backing
// array, growing it only when the result does not fit, so p must be owned
// by the caller: no other Poly value may share its terms. Copying a Poly
// value shares them, and several operations of this package return an
// operand unchanged; FromSortedMonomials always returns a fresh array.
func (s *Substituter) SubstituteInPlace(p *Poly, v Var, r Poly) bool {
	if !s.substitute(*p, v, r) {
		return false
	}
	if cap(p.terms) < len(s.out) {
		p.terms = make([]Monomial, len(s.out), len(s.out)+len(s.out)/4)
	}
	p.terms = p.terms[:len(s.out)]
	copy(p.terms, s.out)
	return true
}

// substitute computes the terms of p[v := r] into s.out. It returns false,
// leaving s.out unspecified, when p does not contain v. The terms p keeps
// are shared with p; the products that survive get one fresh variable
// array between them, so s.vars can be reused by the next call.
func (s *Substituter) substitute(p Poly, v Var, r Poly) bool {
	s.prods, s.vars = s.prods[:0], s.vars[:0]
	found := false
	for _, t := range p.terms {
		if !t.Contains(v) {
			continue
		}
		found = true
		for _, q := range r.terms {
			start := len(s.vars)
			s.vars = appendProduct(s.vars, t.vars, v, q.vars)
			s.prods = append(s.prods, Monomial{vars: s.vars[start:len(s.vars):len(s.vars)]})
		}
	}
	if !found {
		return false
	}
	// Sort descending and cancel equal products in pairs.
	slices.SortFunc(s.prods, func(a, b Monomial) int { return b.Compare(a) })
	q := s.prods[:0]
	for i := 0; i < len(s.prods); {
		j := i + 1
		for j < len(s.prods) && s.prods[j].Equal(s.prods[i]) {
			j++
		}
		if (j-i)%2 == 1 {
			q = append(q, s.prods[i])
		}
		i = j
	}
	// Merge the terms free of v with the products: the symmetric
	// difference of two descending sequences.
	s.out, s.added = s.out[:0], s.added[:0]
	terms := p.terms
	i, j := 0, 0
	for {
		for i < len(terms) && terms[i].Contains(v) {
			i++
		}
		if i == len(terms) || j == len(q) {
			break
		}
		switch c := terms[i].Compare(q[j]); {
		case c > 0:
			s.out = append(s.out, terms[i])
			i++
		case c < 0:
			s.added = append(s.added, int32(len(s.out)))
			s.out = append(s.out, q[j])
			j++
		default:
			i++
			j++
		}
	}
	for ; i < len(terms); i++ {
		if !terms[i].Contains(v) {
			s.out = append(s.out, terms[i])
		}
	}
	for ; j < len(q); j++ {
		s.added = append(s.added, int32(len(s.out)))
		s.out = append(s.out, q[j])
	}
	// Give the surviving products variables of their own.
	n := 0
	for _, k := range s.added {
		n += len(s.out[k].vars)
	}
	backing := make([]Var, 0, n)
	for _, k := range s.added {
		m := s.out[k]
		if m.IsOne() {
			s.out[k] = One
			continue
		}
		start := len(backing)
		backing = append(backing, m.vars...)
		s.out[k] = Monomial{vars: backing[start:len(backing):len(backing)]}
	}
	return true
}

// appendProduct appends the sorted variables of (t/v)·q to dst: the union
// of t without v and q, both sorted ascending.
func appendProduct(dst, t []Var, v Var, q []Var) []Var {
	i, j := 0, 0
	for {
		if i < len(t) && t[i] == v {
			i++
		}
		switch {
		case i == len(t):
			return append(dst, q[j:]...)
		case j == len(q):
			for ; i < len(t); i++ {
				if t[i] != v {
					dst = append(dst, t[i])
				}
			}
			return dst
		case t[i] < q[j]:
			dst = append(dst, t[i])
			i++
		case t[i] > q[j]:
			dst = append(dst, q[j])
			j++
		default:
			dst = append(dst, t[i])
			i++
			j++
		}
	}
}
