// Package sr implements the small-scale AES variants SR(n, r, c, e) of
// Cid, Murphy and Robshaw (FSE 2005) — the cipher family behind the
// paper's SR-[1,4,4,8] benchmark — together with a bit-level ANF encoder.
//
// The paper obtains its polynomial systems from SageMath's sr module; we
// generate equivalent systems from scratch: per-S-box implicit quadratic
// equations (computed automatically as the GF(2) nullspace of the
// quadratic-monomial evaluation matrix over all S-box input/output pairs),
// bit-level linear equations for ShiftRows/MixColumns/AddRoundKey and the
// key schedule, and unit equations fixing the plaintext and ciphertext
// bits. SR(1,4,4,8) comes out at 800 variables, the figure the paper
// reports for its Sage-generated systems.
package sr

import (
	"fmt"
	"math/rand"

	"repro/internal/ciphers/gfe"
)

// Params selects the SR(n, r, c, e) variant: n rounds, an r×c state of
// GF(2^e) elements.
type Params struct {
	N, R, C, E int
}

// Paper144_8 is SR(1,4,4,8), the paper's SR-[1,4,4,8] benchmark family.
var Paper144_8 = Params{N: 1, R: 4, C: 4, E: 8}

func (p Params) String() string {
	return fmt.Sprintf("SR(%d,%d,%d,%d)", p.N, p.R, p.C, p.E)
}

// Elements returns the number of state elements r·c.
func (p Params) Elements() int { return p.R * p.C }

// Cipher is an instantiated SR variant.
type Cipher struct {
	P     Params
	Field *gfe.Field
	SBox  *gfe.SBox
	mix   [][]uint16 // r×r MixColumns matrix
}

// New builds the cipher for the given parameters.
func New(p Params) *Cipher {
	if p.N < 1 || p.C < 1 {
		panic("sr: invalid parameters")
	}
	f := gfe.NewField(p.E)
	c := &Cipher{P: p, Field: f, SBox: gfe.NewAESSBox(f)}
	switch p.R {
	case 1:
		c.mix = [][]uint16{{1}}
	case 2:
		c.mix = [][]uint16{{3, 2}, {2, 3}}
	case 4:
		// The AES circulant circ(2,3,1,1).
		base := []uint16{2, 3, 1, 1}
		c.mix = make([][]uint16, 4)
		for i := 0; i < 4; i++ {
			row := make([]uint16, 4)
			for j := 0; j < 4; j++ {
				row[j] = base[(j-i+4)%4]
			}
			c.mix[i] = row
		}
	default:
		panic("sr: rows must be 1, 2 or 4")
	}
	return c
}

// idx maps (row, col) to the element index (column-major, as in AES).
func (c *Cipher) idx(row, col int) int { return col*c.P.R + row }

// subBytes applies the S-box to every element.
func (c *Cipher) subBytes(state []uint16) {
	for i := range state {
		state[i] = c.SBox.Apply(state[i])
	}
}

// shiftRows rotates row i left by i (mod c).
func (c *Cipher) shiftRows(state []uint16) {
	out := make([]uint16, len(state))
	for row := 0; row < c.P.R; row++ {
		for col := 0; col < c.P.C; col++ {
			out[c.idx(row, col)] = state[c.idx(row, (col+row)%c.P.C)]
		}
	}
	copy(state, out)
}

// mixColumns multiplies each column by the mix matrix.
func (c *Cipher) mixColumns(state []uint16) {
	for col := 0; col < c.P.C; col++ {
		in := make([]uint16, c.P.R)
		for row := 0; row < c.P.R; row++ {
			in[row] = state[c.idx(row, col)]
		}
		for row := 0; row < c.P.R; row++ {
			var acc uint16
			for k := 0; k < c.P.R; k++ {
				acc ^= c.Field.Mul(c.mix[row][k], in[k])
			}
			state[c.idx(row, col)] = acc
		}
	}
}

func xorInto(dst, src []uint16) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// ExpandKey derives the n+1 subkeys from the master key (r·c elements
// each), with an AES-style schedule: the first column of subkey i is the
// previous subkey's first column XOR S(rot(last column)) XOR rcon, and
// each later column chains from the one before it.
func (c *Cipher) ExpandKey(key []uint16) [][]uint16 {
	p := c.P
	subkeys := make([][]uint16, p.N+1)
	subkeys[0] = append([]uint16(nil), key...)
	for i := 1; i <= p.N; i++ {
		prev := subkeys[i-1]
		next := make([]uint16, p.Elements())
		rcon := c.Field.Pow(2, i-1)
		// First column.
		for row := 0; row < p.R; row++ {
			rot := prev[c.idx((row+1)%p.R, p.C-1)]
			next[c.idx(row, 0)] = prev[c.idx(row, 0)] ^ c.SBox.Apply(rot)
			if row == 0 {
				next[c.idx(row, 0)] ^= rcon
			}
		}
		// Remaining columns.
		for col := 1; col < p.C; col++ {
			for row := 0; row < p.R; row++ {
				next[c.idx(row, col)] = next[c.idx(row, col-1)] ^ prev[c.idx(row, col)]
			}
		}
		subkeys[i] = next
	}
	return subkeys
}

// Trace captures the intermediate values of an encryption: the S-box
// inputs and outputs per round, and the key-schedule S-box outputs —
// the witness for the ANF encoding's auxiliary variables.
type Trace struct {
	SubKeys  [][]uint16 // n+1 subkeys
	SBoxIn   [][]uint16 // per round, r·c elements
	SBoxOut  [][]uint16
	KSBoxOut [][]uint16 // per round, r elements (rotated last column through S)
	Cipher   []uint16
}

// EncryptTrace encrypts plain under key and records the full trace.
func (c *Cipher) EncryptTrace(plain, key []uint16) *Trace {
	p := c.P
	if len(plain) != p.Elements() || len(key) != p.Elements() {
		panic("sr: wrong block/key length")
	}
	tr := &Trace{SubKeys: c.ExpandKey(key)}
	// Record key-schedule S-box outputs.
	for i := 1; i <= p.N; i++ {
		prev := tr.SubKeys[i-1]
		outs := make([]uint16, p.R)
		for row := 0; row < p.R; row++ {
			outs[row] = c.SBox.Apply(prev[c.idx((row+1)%p.R, p.C-1)])
		}
		tr.KSBoxOut = append(tr.KSBoxOut, outs)
	}
	state := append([]uint16(nil), plain...)
	xorInto(state, tr.SubKeys[0])
	for round := 1; round <= p.N; round++ {
		tr.SBoxIn = append(tr.SBoxIn, append([]uint16(nil), state...))
		c.subBytes(state)
		tr.SBoxOut = append(tr.SBoxOut, append([]uint16(nil), state...))
		c.shiftRows(state)
		c.mixColumns(state)
		xorInto(state, tr.SubKeys[round])
	}
	tr.Cipher = state
	return tr
}

// Encrypt returns the ciphertext only.
func (c *Cipher) Encrypt(plain, key []uint16) []uint16 {
	return c.EncryptTrace(plain, key).Cipher
}

// RandomBlock draws a uniform block.
func (c *Cipher) RandomBlock(rng *rand.Rand) []uint16 {
	out := make([]uint16, c.P.Elements())
	for i := range out {
		out[i] = uint16(rng.Intn(c.Field.Order()))
	}
	return out
}
