package proof

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"repro/internal/cnf"
	"repro/internal/gf2"
)

// refCheck is the differential reference for Check: the same forward RUP
// checker over one heap clause per database entry, a sorted string key per
// clause for deletions, sorted normalization and watch lists of clause
// pointers. Check must give the same results and error texts
// (FuzzCheckMatchesReference).
func refCheck(f *cnf.Formula, r io.Reader) (*CheckResult, error) {
	br := bufio.NewReaderSize(r, sniffLen)
	head, _ := br.Peek(sniffLen)
	if looksBinary(head) {
		return refCheckBinary(f, br)
	}
	return refCheckText(f, br)
}

// refCheckText is the reference CheckText.
func refCheckText(f *cnf.Formula, r io.Reader) (*CheckResult, error) {
	c, err := refNewChecker(f)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<24)
	sc.Split(bufio.ScanWords)
	var lits []cnf.Lit
	kind := byte('a')
	inClause := false
	for sc.Scan() {
		tok := sc.Text()
		switch {
		case tok == "d" && !inClause:
			kind = 'd'
			inClause = true
			continue
		case tok == "x" && !inClause:
			kind = 'x'
			inClause = true
			continue
		}
		d, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("proof: step %d: bad token %q", c.res.Steps+1, tok)
		}
		if d == 0 {
			if err := c.step(kind, lits); err != nil {
				return nil, err
			}
			if c.res.Verified {
				return c.res, nil
			}
			lits = lits[:0]
			kind = 'a'
			inClause = false
			continue
		}
		inClause = true
		l, err := cnf.LitFromDimacs(d)
		if err != nil {
			return nil, fmt.Errorf("proof: step %d: %v", c.res.Steps+1, err)
		}
		lits = append(lits, l)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if inClause || len(lits) > 0 {
		return nil, fmt.Errorf("proof: truncated final clause")
	}
	return c.res, nil
}

// refCheckBinary is the reference CheckBinary.
func refCheckBinary(f *cnf.Formula, r io.Reader) (*CheckResult, error) {
	c, err := refNewChecker(f)
	if err != nil {
		return nil, err
	}
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	var lits []cnf.Lit
	for {
		tag, err := br.ReadByte()
		if err == io.EOF {
			return c.res, nil
		}
		if err != nil {
			return nil, err
		}
		if tag != 'a' && tag != 'd' && tag != 'x' {
			return nil, fmt.Errorf("proof: step %d: bad record tag 0x%02x", c.res.Steps+1, tag)
		}
		lits = lits[:0]
		for {
			u, err := refReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("proof: step %d: truncated record: %v", c.res.Steps+1, err)
			}
			if u == 0 {
				break
			}
			if u < 2 {
				return nil, fmt.Errorf("proof: step %d: bad literal code %d", c.res.Steps+1, u)
			}
			if u-2 > math.MaxUint32 {
				return nil, fmt.Errorf("proof: step %d: variable %d beyond formula header", c.res.Steps+1, (u-2)>>1+1)
			}
			lits = append(lits, cnf.Lit(u-2))
		}
		if err := c.step(tag, lits); err != nil {
			return nil, err
		}
		if c.res.Verified {
			return c.res, nil
		}
	}
}

func refReadUvarint(br *bufio.Reader) (uint64, error) {
	var v uint64
	var shift uint
	for {
		b, err := br.ReadByte()
		if err != nil {
			return 0, err
		}
		if shift >= 35 {
			return 0, fmt.Errorf("varint overflow")
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
	}
}

// refClause is one active database clause.
type refClause struct {
	lits []cnf.Lit // lits[0], lits[1] are the watched pair (len >= 2)
	key  string
}

// refChecker holds the streaming RUP state: a persistent top-level
// assignment, a watched-literal clause database keyed for deletions, and
// the GF(2) basis of the formula's XOR rows.
type refChecker struct {
	nVars   int
	assigns []int8 // 0 undef, 1 true, -1 false
	trail   []cnf.Lit
	qhead   int
	watches [][]*refClause
	byKey   map[string][]*refClause

	xbasis   map[int]*xrow // leading var -> reduced row
	xwords   int
	xorUnsat bool

	contradictory bool
	res           *CheckResult
}

func refNewChecker(f *cnf.Formula) (*refChecker, error) {
	c := &refChecker{
		nVars:   f.NumVars,
		assigns: make([]int8, f.NumVars),
		watches: make([][]*refClause, 2*f.NumVars),
		byKey:   map[string][]*refClause{},
		xbasis:  map[int]*xrow{},
		xwords:  gf2.Words(f.NumVars),
		res:     &CheckResult{},
	}
	for _, cl := range f.Clauses {
		lits, taut := refNormalizeLits(cl)
		if taut {
			continue
		}
		if err := c.install(lits); err != nil {
			return nil, fmt.Errorf("proof: input formula: %v", err)
		}
		if c.contradictory {
			// The inputs alone are propagation-inconsistent; any proof over
			// them verifies trivially once it presents the empty clause.
			break
		}
	}
	for _, x := range f.Xors {
		row := &xrow{bits: make([]uint64, c.xwords), rhs: x.RHS}
		for _, v := range x.Vars {
			if int(v) >= f.NumVars {
				return nil, fmt.Errorf("proof: xor references variable %d beyond header", int(v)+1)
			}
			gf2.XorBit(row.bits, int(v))
		}
		c.insertXorRow(row)
	}
	return c, nil
}

// refNormalizeLits sorts and deduplicates a clause; taut reports a
// complementary pair.
func refNormalizeLits(in []cnf.Lit) ([]cnf.Lit, bool) {
	lits := append([]cnf.Lit(nil), in...)
	sort.Slice(lits, func(i, j int) bool { return lits[i] < lits[j] })
	out := lits[:0]
	for i, l := range lits {
		if i > 0 && l == lits[i-1] {
			continue
		}
		if i > 0 && l == lits[i-1]^1 {
			return nil, true
		}
		out = append(out, l)
	}
	return out, false
}

func refClauseKey(sorted []cnf.Lit) string {
	b := make([]byte, 0, 4*len(sorted))
	for _, l := range sorted {
		b = append(b, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	return string(b)
}

func (c *refChecker) value(l cnf.Lit) int8 {
	a := c.assigns[l.Var()]
	if l.Neg() {
		return -a
	}
	return a
}

// assertTop assigns l true persistently. Returns false on conflict.
func (c *refChecker) assertTop(l cnf.Lit) bool {
	switch c.value(l) {
	case 1:
		return true
	case -1:
		return false
	}
	if l.Neg() {
		c.assigns[l.Var()] = -1
	} else {
		c.assigns[l.Var()] = 1
	}
	c.trail = append(c.trail, l)
	return true
}

// propagate runs watched-literal unit propagation from qhead. It returns
// false on conflict. Assignments made here are undone by undo (for RUP
// probes) or kept (persistent, when called at top level).
func (c *refChecker) propagate() bool {
	for c.qhead < len(c.trail) {
		p := c.trail[c.qhead]
		c.qhead++
		// Clauses watching a literal l live in watches[l.Not()], so the
		// clauses whose watch p.Not() just became false are in watches[p].
		falsified := p.Not()
		ws := c.watches[p]
		kept := ws[:0]
		for i := 0; i < len(ws); i++ {
			cl := ws[i]
			// Ensure the falsified literal is lits[1].
			if cl.lits[0] == falsified {
				cl.lits[0], cl.lits[1] = cl.lits[1], cl.lits[0]
			}
			if c.value(cl.lits[0]) == 1 {
				kept = append(kept, cl)
				continue
			}
			// Look for a replacement watch.
			moved := false
			for k := 2; k < len(cl.lits); k++ {
				if c.value(cl.lits[k]) != -1 {
					cl.lits[1], cl.lits[k] = cl.lits[k], cl.lits[1]
					c.watches[cl.lits[1].Not()] = append(c.watches[cl.lits[1].Not()], cl)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Unit or conflict on lits[0].
			kept = append(kept, cl)
			if !c.assertTop(cl.lits[0]) {
				kept = append(kept, ws[i+1:]...)
				c.watches[p] = kept
				return false
			}
		}
		c.watches[p] = kept
	}
	return true
}

// undo unassigns everything past mark (a RUP probe's assumptions and
// their propagations).
func (c *refChecker) undo(mark int) {
	for i := len(c.trail) - 1; i >= mark; i-- {
		c.assigns[c.trail[i].Var()] = 0
	}
	c.trail = c.trail[:mark]
	if c.qhead > mark {
		c.qhead = mark
	}
}

// install adds an accepted clause to the database, asserting units
// persistently and detecting top-level conflicts.
func (c *refChecker) install(lits []cnf.Lit) error {
	for _, l := range lits {
		if int(l.Var()) >= c.nVars {
			return fmt.Errorf("clause references variable %d beyond formula", int(l.Var())+1)
		}
	}
	if len(lits) == 0 {
		c.contradictory = true
		return nil
	}
	if len(lits) == 1 {
		if !c.assertTop(lits[0]) || !c.propagate() {
			c.contradictory = true
		}
		return nil
	}
	// Pick two non-false watches; fewer than two means the clause is
	// already unit/conflicting under the persistent assignment.
	w := 0
	for i := 0; i < len(lits) && w < 2; i++ {
		if c.value(lits[i]) != -1 {
			lits[w], lits[i] = lits[i], lits[w]
			w++
		}
	}
	switch w {
	case 0:
		c.contradictory = true
		return nil
	case 1:
		if c.value(lits[0]) != 1 {
			if !c.assertTop(lits[0]) || !c.propagate() {
				c.contradictory = true
				return nil
			}
		}
	}
	sorted := append([]cnf.Lit(nil), lits...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	cl := &refClause{lits: lits, key: refClauseKey(sorted)}
	c.watches[cl.lits[0].Not()] = append(c.watches[cl.lits[0].Not()], cl)
	c.watches[cl.lits[1].Not()] = append(c.watches[cl.lits[1].Not()], cl)
	c.byKey[cl.key] = append(c.byKey[cl.key], cl)
	return nil
}

// rup reports whether clause lits has the reverse-unit-propagation
// property: assuming every literal false propagates to a conflict.
func (c *refChecker) rup(lits []cnf.Lit) bool {
	if c.contradictory {
		return true
	}
	mark := len(c.trail)
	for _, l := range lits {
		switch c.value(l) {
		case 1:
			// Satisfied at top level: trivially implied.
			c.undo(mark)
			return true
		case 0:
			if !c.assertTop(l.Not()) {
				// Another assumption complements it (defensive; normalized
				// clauses cannot reach this).
				c.undo(mark)
				return true
			}
		}
	}
	conflict := !c.propagate()
	c.undo(mark)
	return conflict
}

// step processes one proof record.
func (c *refChecker) step(kind byte, rawLits []cnf.Lit) error {
	c.res.Steps++
	for _, l := range rawLits {
		if int(l.Var()) >= c.nVars {
			return fmt.Errorf("proof: step %d: variable %d beyond formula header", c.res.Steps, int(l.Var())+1)
		}
	}
	lits, taut := refNormalizeLits(rawLits)
	switch kind {
	case 'a':
		c.res.Adds++
		if taut {
			return nil
		}
		if !c.rup(lits) {
			return fmt.Errorf("proof: step %d: clause %s is not RUP", c.res.Steps, cnf.Clause(rawLits))
		}
		if err := c.install(lits); err != nil {
			return fmt.Errorf("proof: step %d: %v", c.res.Steps, err)
		}
	case 'x':
		c.res.Justified++
		if taut {
			return nil
		}
		if !c.justified(lits) {
			return fmt.Errorf("proof: step %d: xor justification %s is not in the input row space", c.res.Steps, cnf.Clause(rawLits))
		}
		if err := c.install(lits); err != nil {
			return fmt.Errorf("proof: step %d: %v", c.res.Steps, err)
		}
	case 'd':
		c.res.Deletes++
		if taut || len(lits) < 2 {
			// Unit/empty deletions are ignored (they would weaken the
			// persistent assignment, which forward checkers never undo).
			c.res.SkippedDeletes++
			return nil
		}
		key := refClauseKey(lits)
		list := c.byKey[key]
		if len(list) == 0 {
			c.res.SkippedDeletes++
			return nil
		}
		cl := list[len(list)-1]
		c.byKey[key] = list[:len(list)-1]
		c.detach(cl)
	default:
		return fmt.Errorf("proof: step %d: unknown record kind %q", c.res.Steps, kind)
	}
	if c.contradictory {
		c.res.Verified = true
	}
	return nil
}

func (c *refChecker) detach(cl *refClause) {
	for _, w := range []cnf.Lit{cl.lits[0].Not(), cl.lits[1].Not()} {
		ws := c.watches[w]
		for i := range ws {
			if ws[i] == cl {
				ws[i] = ws[len(ws)-1]
				c.watches[w] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// justified checks an XOR-derived clause: the clause forbids exactly one
// assignment α of its variables (each literal made false), so it is
// entailed by the XOR row (vars, ¬parity(α)); the clause checks iff that
// row lies in the GF(2) row space of the formula's XOR constraints.
func (c *refChecker) justified(lits []cnf.Lit) bool {
	if len(lits) == 0 {
		return c.xorUnsat
	}
	row := &xrow{bits: make([]uint64, c.xwords)}
	parity := false
	for _, l := range lits {
		v := int(l.Var())
		if v >= c.nVars {
			return false
		}
		gf2.XorBit(row.bits, v)
		if l.Neg() {
			parity = !parity
		}
	}
	row.rhs = !parity
	c.reduceXorRow(row)
	if !gf2.IsZero(row.bits) {
		return false
	}
	return !row.rhs || c.xorUnsat
}

func (c *refChecker) insertXorRow(row *xrow) {
	c.reduceXorRow(row)
	lead := gf2.FirstSetBit(row.bits)
	if lead < 0 {
		if row.rhs {
			c.xorUnsat = true
		}
		return
	}
	c.xbasis[lead] = row
}

func (c *refChecker) reduceXorRow(row *xrow) {
	for {
		lead := gf2.FirstSetBit(row.bits)
		if lead < 0 {
			return
		}
		piv, ok := c.xbasis[lead]
		if !ok {
			return
		}
		for w := range row.bits {
			row.bits[w] ^= piv.bits[w]
		}
		row.rhs = row.rhs != piv.rhs
	}
}
