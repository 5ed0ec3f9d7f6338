package proof

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/cnf"
	"repro/internal/gf2"
)

// CheckResult summarizes a checked proof stream.
type CheckResult struct {
	// Verified is true when the proof derives the empty clause (directly,
	// or by forcing a top-level conflict) and every step checked out.
	Verified bool
	// Steps is the number of proof records processed.
	Steps int
	// Adds, Deletes, Justified count the record kinds; SkippedDeletes are
	// deletions of clauses not (or no longer) in the database, which are
	// ignored, as in standard forward DRAT checking.
	Adds, Deletes, Justified, SkippedDeletes int
}

// Check verifies a DRAT proof stream against a formula, auto-detecting
// the text or binary form. It returns an error on a malformed stream or a
// step that does not check; a nil error with Verified=false means the
// proof is well-formed but never derives the empty clause.
//
// The checker is a from-scratch streaming forward RUP checker with
// deletion support: additions must have the reverse-unit-propagation
// property against the current clause database, deletions shrink the
// database, and "x" justification records (Gauss/XOR-derived clauses,
// which are generally not RUP) are verified by GF(2) row-space membership
// against the formula's XOR constraints.
func Check(f *cnf.Formula, r io.Reader) (*CheckResult, error) {
	br := bufio.NewReader(r)
	head, _ := br.Peek(256)
	if looksBinary(head) {
		return CheckBinary(f, br)
	}
	return CheckText(f, br)
}

// looksBinary reports whether a proof prefix is in the binary form: text
// DRAT is pure printable ASCII plus whitespace, while every nonempty
// binary record ends with a 0x00 byte.
func looksBinary(head []byte) bool {
	for _, b := range head {
		if b == 0x00 || b >= 0x80 {
			return true
		}
		if b < 0x20 && b != '\n' && b != '\r' && b != '\t' {
			return true
		}
	}
	return false
}

// CheckText verifies a text-form DRAT proof.
func CheckText(f *cnf.Formula, r io.Reader) (*CheckResult, error) {
	c, err := newChecker(f)
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
		tok := sc.Bytes()
		if !inClause && len(tok) == 1 && (tok[0] == 'd' || tok[0] == 'x') {
			kind = tok[0]
			inClause = true
			continue
		}
		// string(tok) does not escape (strconv's errors copy their input),
		// so a short token is converted on the stack.
		d, err := strconv.Atoi(string(tok))
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
	if inClause {
		return nil, fmt.Errorf("proof: truncated final clause")
	}
	return c.res, nil
}

// CheckBinary verifies a binary-form DRAT proof.
func CheckBinary(f *cnf.Formula, r io.Reader) (*CheckResult, error) {
	c, err := newChecker(f)
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
			u, err := readUvarint(br)
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
				// No cnf.Lit holds it, so no header covers it; narrowing
				// would alias a small variable.
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

// readUvarint reads one ULEB128 value of at most five bytes.
func readUvarint(br *bufio.Reader) (uint64, error) {
	var v uint64
	for shift := uint(0); ; shift += 7 {
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
	}
}

// checker holds the streaming RUP state: a persistent top-level
// assignment, the clause database, and the GF(2) basis of the formula's
// XOR rows.
//
// The database is one flat arena of uint32 words, and a clause is known by
// the offset of its first word, its ref:
//
//	arena[ref]      header: literal count << 1, low bit set once deleted
//	arena[ref+1]    ref of the previous live clause with the same
//	                literal-set hash, 0 for none
//	arena[ref+2:]   the literals; the first two are watched
//
// arena[0] is padding, so no clause has ref 0. A deletion sets the header
// bit: a watch list drops the clause when it next reaches it, and compact
// frees its words once deleted clauses fill half the arena.
type checker struct {
	nVars int
	vals  []int8 // per literal: 1 true, -1 false, 0 unassigned
	trail []cnf.Lit
	qhead int

	arena  []uint32
	wasted int // words of deleted clauses still in the arena
	// watches[l] lists the clauses watching l.Not(), the ones to visit
	// when l becomes true.
	watches [][]watch
	// byHash maps a literal-set hash to its newest live clause; older
	// ones with the same hash follow through the arena's link words.
	byHash map[uint64]uint32
	// stamp[l] == epoch marks l as a literal of the last normalized
	// clause, which is how normalize finds duplicates and tautologies
	// and how deletion compares a candidate's literals.
	stamp []uint32
	epoch uint32
	norm  []cnf.Lit // normalize's output buffer

	xbasis   map[int]*xrow // leading var -> reduced row
	xwords   int
	xorUnsat bool

	contradictory bool
	res           *CheckResult
}

// watch is one watch-list entry. blocker is a literal of the clause: while
// it is true the clause is satisfied, and the arena is not read.
type watch struct {
	ref     uint32
	blocker cnf.Lit
}

const (
	deletedBit = 1 // in a clause header
	headerLen  = 2 // header and hash-link words before the literals
)

type xrow struct {
	bits []uint64
	rhs  bool
}

func newChecker(f *cnf.Formula) (*checker, error) {
	c := &checker{
		nVars:   f.NumVars,
		vals:    make([]int8, 2*f.NumVars),
		arena:   make([]uint32, 1, 1<<10),
		watches: make([][]watch, 2*f.NumVars),
		byHash:  map[uint64]uint32{},
		stamp:   make([]uint32, 2*f.NumVars),
		xbasis:  map[int]*xrow{},
		xwords:  gf2.Words(f.NumVars),
		res:     &CheckResult{},
	}
	for _, cl := range f.Clauses {
		if !c.inHeader(cl) {
			// A tautology is dropped before its literals meet the header.
			sorted, taut := cl.Clone().Normalize()
			if taut {
				continue
			}
			for _, l := range sorted {
				if int(l.Var()) >= c.nVars {
					return nil, fmt.Errorf("proof: input formula: clause references variable %d beyond formula", int(l.Var())+1)
				}
			}
		}
		lits, taut := c.normalize(cl)
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

// inHeader reports whether every literal's variable is below the header's
// variable count.
func (c *checker) inHeader(lits []cnf.Lit) bool {
	for _, l := range lits {
		if int(l.Var()) >= c.nVars {
			return false
		}
	}
	return true
}

// normalize drops repeated literals from lits, keeping their order, and
// reports a complementary pair as a tautology. It stamps each literal
// instead of sorting; every literal must be within the header. The result
// aliases a buffer the next call reuses.
func (c *checker) normalize(lits []cnf.Lit) ([]cnf.Lit, bool) {
	c.epoch++
	if c.epoch == 0 {
		// Wrapped around: stale stamps would read as current.
		clear(c.stamp)
		c.epoch = 1
	}
	out := c.norm[:0]
	for _, l := range lits {
		switch c.epoch {
		case c.stamp[l]:
			continue
		case c.stamp[l.Not()]:
			return nil, true
		}
		c.stamp[l] = c.epoch
		out = append(out, l)
	}
	c.norm = out
	return out, false
}

// hashLits hashes a set of distinct literals independently of their order.
func hashLits(lits []cnf.Lit) uint64 {
	var h uint64
	for _, l := range lits {
		// splitmix64's finalizer spreads the small literal codes.
		z := uint64(l) + 0x9e3779b97f4a7c15
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		h += z ^ z>>31
	}
	return h
}

// assign makes l true.
func (c *checker) assign(l cnf.Lit) {
	c.vals[l] = 1
	c.vals[l.Not()] = -1
	c.trail = append(c.trail, l)
}

// assertTop assigns l true persistently. Returns false on conflict.
func (c *checker) assertTop(l cnf.Lit) bool {
	switch c.vals[l] {
	case 1:
		return true
	case -1:
		return false
	}
	c.assign(l)
	return true
}

// propagate runs watched-literal unit propagation from qhead. It returns
// false on conflict. Assignments made here are undone by undo (for RUP
// probes) or kept (persistent, when called at top level).
//
//bosphorus:hotpath RUP-probe unit propagation over the clause arena
func (c *checker) propagate() bool {
	for c.qhead < len(c.trail) {
		p := c.trail[c.qhead]
		c.qhead++
		falsified := p.Not()
		ws := c.watches[p]
		kept := 0
	visit:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if c.vals[w.blocker] == 1 {
				ws[kept] = w
				kept++
				continue
			}
			hdr := c.arena[w.ref]
			if hdr&deletedBit != 0 {
				continue
			}
			lits := c.arena[w.ref+headerLen : w.ref+headerLen+hdr>>1]
			// Ensure the falsified literal is lits[1].
			if cnf.Lit(lits[0]) == falsified {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := cnf.Lit(lits[0])
			if first != w.blocker && c.vals[first] == 1 {
				ws[kept] = watch{w.ref, first}
				kept++
				continue
			}
			// Look for a replacement watch. Its list is never ws: the
			// replacement is not false, and p.Not() is.
			for k := 2; k < len(lits); k++ {
				if c.vals[lits[k]] != -1 {
					lits[1], lits[k] = lits[k], lits[1]
					to := cnf.Lit(lits[1]).Not()
					c.watches[to] = append(c.watches[to], watch{w.ref, first})
					continue visit
				}
			}
			// Unit or conflict on lits[0].
			ws[kept] = watch{w.ref, first}
			kept++
			if c.vals[first] == -1 {
				kept += copy(ws[kept:], ws[i+1:])
				c.watches[p] = ws[:kept]
				return false
			}
			c.assign(first)
		}
		c.watches[p] = ws[:kept]
	}
	return true
}

// undo unassigns everything past mark (a RUP probe's assumptions and
// their propagations).
func (c *checker) undo(mark int) {
	for _, l := range c.trail[mark:] {
		c.vals[l] = 0
		c.vals[l.Not()] = 0
	}
	c.trail = c.trail[:mark]
	c.qhead = min(c.qhead, mark)
}

// install adds an accepted clause to the database, asserting units
// persistently and detecting top-level conflicts. lits is normalized and
// within the header; install reorders it.
func (c *checker) install(lits []cnf.Lit) error {
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
		if c.vals[lits[i]] != -1 {
			lits[w], lits[i] = lits[i], lits[w]
			w++
		}
	}
	switch w {
	case 0:
		c.contradictory = true
		return nil
	case 1:
		if c.vals[lits[0]] != 1 {
			if !c.assertTop(lits[0]) || !c.propagate() {
				c.contradictory = true
				return nil
			}
		}
	}
	if len(c.arena)+headerLen+len(lits) > math.MaxUint32 {
		return fmt.Errorf("clause database exceeds %d words", uint32(math.MaxUint32))
	}
	ref := uint32(len(c.arena))
	h := hashLits(lits)
	c.arena = append(c.arena, uint32(len(lits))<<1, c.byHash[h])
	for _, l := range lits {
		c.arena = append(c.arena, uint32(l))
	}
	c.byHash[h] = ref
	c.watches[lits[0].Not()] = append(c.watches[lits[0].Not()], watch{ref, lits[1]})
	c.watches[lits[1].Not()] = append(c.watches[lits[1].Not()], watch{ref, lits[0]})
	return nil
}

// remove deletes the newest live clause whose literal set is lits, the
// last normalized clause, and reports whether there was one.
func (c *checker) remove(lits []cnf.Lit) bool {
	h := hashLits(lits)
	prev := uint32(0)
	for ref := c.byHash[h]; ref != 0; prev, ref = ref, c.arena[ref+1] {
		if !c.isLastNormalized(ref, len(lits)) {
			continue // a hash collision
		}
		next := c.arena[ref+1]
		switch {
		case prev != 0:
			c.arena[prev+1] = next
		case next != 0:
			c.byHash[h] = next
		default:
			delete(c.byHash, h)
		}
		c.arena[ref] |= deletedBit
		c.wasted += headerLen + len(lits)
		// Compact once the deleted words pass half the arena and the number
		// of watch lists, so the deletions since the last compaction pay
		// for its walk over both.
		if c.wasted > len(c.arena)/2 && c.wasted > len(c.watches) {
			c.compact()
		}
		return true
	}
	return false
}

// compact copies the live clauses, in order, to a new arena and moves
// every ref to its clause's new offset: the hash links, byHash and the
// watch lists, which drop the watches of deleted clauses.
func (c *checker) compact() {
	old := c.arena
	c.arena = make([]uint32, 1, len(old)-c.wasted)
	for ref := uint32(1); ref < uint32(len(old)); {
		end := ref + headerLen + old[ref]>>1
		if old[ref]&deletedBit == 0 {
			nr := uint32(len(c.arena))
			c.arena = append(c.arena, old[ref:end]...)
			old[ref+1] = nr // the copy keeps the link; the old word forwards
		}
		ref = end
	}
	// Links and byHash name live clauses only, whose old link words now
	// hold their new refs.
	for ref := uint32(1); ref < uint32(len(c.arena)); ref += headerLen + c.arena[ref]>>1 {
		if link := c.arena[ref+1]; link != 0 {
			c.arena[ref+1] = old[link+1]
		}
	}
	for h, ref := range c.byHash {
		c.byHash[h] = old[ref+1]
	}
	for l, ws := range c.watches {
		kept := 0
		for _, w := range ws {
			if old[w.ref]&deletedBit == 0 {
				ws[kept] = watch{old[w.ref+1], w.blocker}
				kept++
			}
		}
		c.watches[l] = ws[:kept]
	}
	c.wasted = 0
}

// isLastNormalized reports whether clause ref has exactly the n literals
// of the last normalized clause.
func (c *checker) isLastNormalized(ref uint32, n int) bool {
	if int(c.arena[ref]>>1) != n {
		return false
	}
	for _, l := range c.arena[ref+headerLen : ref+headerLen+uint32(n)] {
		if c.stamp[l] != c.epoch {
			return false
		}
	}
	return true
}

// rup reports whether clause lits has the reverse-unit-propagation
// property: assuming every literal false propagates to a conflict.
func (c *checker) rup(lits []cnf.Lit) bool {
	if c.contradictory {
		return true
	}
	mark := len(c.trail)
	for _, l := range lits {
		switch c.vals[l] {
		case 1:
			// Satisfied at top level: trivially implied.
			c.undo(mark)
			return true
		case 0:
			// Normalized, so no other assumption is l itself.
			c.assign(l.Not())
		}
	}
	conflict := !c.propagate()
	c.undo(mark)
	return conflict
}

// step processes one proof record.
func (c *checker) step(kind byte, rawLits []cnf.Lit) error {
	c.res.Steps++
	for _, l := range rawLits {
		if int(l.Var()) >= c.nVars {
			return fmt.Errorf("proof: step %d: variable %d beyond formula header", c.res.Steps, int(l.Var())+1)
		}
	}
	lits, taut := c.normalize(rawLits)
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
		// Unit/empty deletions are ignored (they would weaken the
		// persistent assignment, which forward checkers never undo), and
		// so are deletions of clauses not in the database.
		if taut || len(lits) < 2 || !c.remove(lits) {
			c.res.SkippedDeletes++
			return nil
		}
	default:
		return fmt.Errorf("proof: step %d: unknown record kind %q", c.res.Steps, kind)
	}
	if c.contradictory {
		c.res.Verified = true
	}
	return nil
}

// justified checks an XOR-derived clause: the clause forbids exactly one
// assignment α of its variables (each literal made false), so it is
// entailed by the XOR row (vars, ¬parity(α)); the clause checks iff that
// row lies in the GF(2) row space of the formula's XOR constraints.
func (c *checker) justified(lits []cnf.Lit) bool {
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

func (c *checker) insertXorRow(row *xrow) {
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

func (c *checker) reduceXorRow(row *xrow) {
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
