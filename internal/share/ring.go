// Package share provides the bounded, lock-free clause-exchange ring that
// backs cube-and-conquer clause sharing. Producers publish
// low-LBD learnt clauses into a fixed-size ring of single-writer slots;
// each consumer follows the ring with a private cursor. The ring is lossy
// by construction: a slow consumer skips entries that have been lapped,
// and a producer that loses a slot race drops its clause. Clause sharing
// is a heuristic accelerant, so bounded loss is sound — every clause in
// the ring is implied by the shared input formula, and missing one only
// costs a potential shortcut.
//
// Concurrency design (no mutexes, no channels):
//
//   - A fetch-add ticket counter orders publications. Ticket t maps to
//     slot t % size and doubles as the entry's epoch stamp.
//   - Each slot carries a sequence word with the seqlock-style protocol
//     0 = never written, 2t+1 = ticket t writing, 2t+2 = ticket t
//     published. Writers claim a slot by CAS from an older even value to
//     2t+1, fill the payload, then store 2t+2.
//   - Readers validate the sequence before and after copying the payload;
//     any change means the entry was overwritten mid-read and is skipped.
//   - Payload literals live in atomic words (two 32-bit literals per
//     word), so concurrent lapped writes and seqlock reads are race-free
//     in the memory-model sense, not just "benign" — the race detector
//     accepts them.
package share

import (
	"sync/atomic"

	"repro/internal/cnf"
)

// MaxLits is the widest clause the ring accepts. Wide clauses are weak
// propagators and expensive to import, so clause-sharing portfolios cap
// width aggressively; 8 matches the LBD cap's intent of shipping only
// high-quality glue clauses.
const MaxLits = 8

const payloadWords = MaxLits / 2

// slot is a single ring entry. All fields are atomics so a reader racing
// a lapping writer is well-defined; the seq protocol decides whether the
// copied payload is coherent.
type slot struct {
	seq  atomic.Uint64 // 0 empty; 2t+1 ticket-t writing; 2t+2 ticket-t published
	meta atomic.Uint64 // source id <<32 | literal count
	lits [payloadWords]atomic.Uint64
}

// Ring is the shared buffer. One Ring serves a whole worker pool; each
// worker attaches through its own Endpoint.
type Ring struct {
	slots  []slot
	mask   uint64
	maxLBD int

	ticket atomic.Uint64 // next epoch/ticket to hand out

	// Traffic counters (atomic; read with Counters).
	published  atomic.Uint64 // clauses accepted into the ring
	dropLBD    atomic.Uint64 // rejected: LBD above cap
	dropWide   atomic.Uint64 // rejected: more than MaxLits literals
	dropRace   atomic.Uint64 // rejected: lost the slot-claim race
	endpointID atomic.Uint32
}

// NewRing creates a ring with at least the requested number of slots
// (rounded up to a power of two, minimum 8) accepting clauses with LBD at
// most maxLBD. maxLBD < 1 disables export entirely, which turns every
// attached endpoint into a pure consumer.
func NewRing(slots, maxLBD int) *Ring {
	n := 8
	for n < slots {
		n <<= 1
	}
	return &Ring{
		slots:  make([]slot, n),
		mask:   uint64(n - 1),
		maxLBD: maxLBD,
	}
}

// Slots returns the ring capacity.
func (r *Ring) Slots() int { return len(r.slots) }

// Counters reports the ring-wide traffic totals: clauses published, and
// drops broken down by cause (LBD cap, width cap, lost slot race).
func (r *Ring) Counters() (published, dropLBD, dropWide, dropRace uint64) {
	return r.published.Load(), r.dropLBD.Load(), r.dropWide.Load(), r.dropRace.Load()
}

// publish installs a clause stamped with the producing endpoint's id.
// Returns false when the clause is filtered or the slot race is lost.
func (r *Ring) publish(source uint32, lits []cnf.Lit, lbd int) bool {
	if lbd > r.maxLBD || r.maxLBD < 1 {
		r.dropLBD.Add(1)
		return false
	}
	if len(lits) == 0 || len(lits) > MaxLits {
		r.dropWide.Add(1)
		return false
	}
	t := r.ticket.Add(1) - 1
	s := &r.slots[t&r.mask]
	cur := s.seq.Load()
	// Claim only from an older, settled state: an odd cur is a writer from
	// a previous lap still mid-write, and cur >= 2t+2 means a later ticket
	// already lapped us. Either way the clause is dropped, never blocked.
	if cur%2 != 0 || cur >= 2*t+2 || !s.seq.CompareAndSwap(cur, 2*t+1) {
		r.dropRace.Add(1)
		return false
	}
	var words [payloadWords]uint64
	for i, l := range lits {
		words[i/2] |= uint64(uint32(l)) << (32 * uint(i%2))
	}
	for i := range words {
		s.lits[i].Store(words[i])
	}
	s.meta.Store(uint64(source)<<32 | uint64(len(lits)))
	s.seq.Store(2*t + 2)
	r.published.Add(1)
	return true
}

// read copies the entry for ticket t into buf. It returns the literal
// count and source id, and ok=false when the entry is incoherent (not
// yet published, overwritten, or republished mid-copy).
func (r *Ring) read(t uint64, buf *[MaxLits]cnf.Lit) (n int, source uint32, ok bool) {
	s := &r.slots[t&r.mask]
	want := 2*t + 2
	if s.seq.Load() != want {
		return 0, 0, false
	}
	meta := s.meta.Load()
	var words [payloadWords]uint64
	for i := range words {
		words[i] = s.lits[i].Load()
	}
	if s.seq.Load() != want {
		return 0, 0, false
	}
	n = int(meta & 0xffffffff)
	if n > MaxLits {
		return 0, 0, false
	}
	for i := 0; i < n; i++ {
		buf[i] = cnf.Lit(uint32(words[i/2] >> (32 * uint(i%2))))
	}
	return n, uint32(meta >> 32), true
}
