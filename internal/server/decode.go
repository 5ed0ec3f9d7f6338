package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// bodyPool holds the buffers handleSolve reads bodies into.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody is the largest buffer a request returns to bodyPool, so
// one huge body does not keep its buffer alive in the pool.
const maxPooledBody = 1 << 20

// readRequest reads r's body, capped at maxBodyBytes, into a pooled buffer
// and decodes it. The decoded strings are copies, so the buffer goes back
// to the pool on return.
func readRequest(w http.ResponseWriter, r *http.Request) (Request, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyPool.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		// The body broke off (over the cap, or the connection failed).
		// Decode what arrived and then the failure, as a streaming decode
		// of the body sees them: an object that ended before the break is
		// still served, and any other body gets the error it always got.
		var req Request
		err = json.NewDecoder(io.MultiReader(bytes.NewReader(buf.Bytes()), errReader{err})).Decode(&req)
		return req, err
	}
	return decodeRequest(buf.Bytes())
}

// decodeRequest decodes a /solve body. A flat JSON object whose keys are
// Request's json tags, spelled exactly, and whose values are strings,
// integers or booleans is read in one pass by decodeFlat. Any other body
// — null, a nested value, a fraction or exponent, an unknown or
// differently cased key, invalid UTF-8 or a control byte in a string — is
// decoded from the same bytes by encoding/json, which stays the definition
// of a valid body and of every error. As with json.Decoder.Decode, bytes
// after the object are ignored.
func decodeRequest(b []byte) (Request, error) {
	if req, ok := decodeFlat(b); ok {
		return req, nil
	}
	var req Request
	err := json.NewDecoder(bytes.NewReader(b)).Decode(&req)
	return req, err
}

// decodeFlat is the one-pass reader behind decodeRequest. It reports
// false, with the request half filled, as soon as the body leaves the
// flat form it reads.
func decodeFlat(b []byte) (req Request, ok bool) {
	d := flatDecoder{b: b}
	if !d.eat('{') {
		return req, false
	}
	if d.eat('}') {
		return req, true
	}
	for {
		key, ok := d.key()
		if !ok || !d.eat(':') {
			return req, false
		}
		d.space()
		switch string(key) {
		case "format":
			req.Format, ok = d.str()
		case "input":
			req.Input, ok = d.str()
		case "mode":
			req.Mode, ok = d.str()
		case "timeout_ms":
			req.TimeoutMS, ok = d.intValue()
		case "max_iterations":
			req.MaxIterations, ok = d.intValue()
		case "conflict_budget":
			req.ConflictBudget, ok = d.number(math.MinInt64, math.MaxInt64)
		case "seed":
			req.Seed, ok = d.number(math.MinInt64, math.MaxInt64)
		case "workers":
			req.Workers, ok = d.intValue()
		case "verify":
			req.Verify, ok = d.bool()
		case "max_cubes":
			req.MaxCubes, ok = d.intValue()
		case "proof":
			req.Proof, ok = d.bool()
		case "route":
			req.Route, ok = d.bool()
		default:
			return req, false
		}
		switch {
		case !ok:
			return req, false
		case d.eat(','):
		case d.eat('}'):
			return req, true
		default:
			return req, false
		}
	}
}

// flatDecoder reads b from i on.
type flatDecoder struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (d *flatDecoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// eat skips whitespace and then c, reporting whether c was there.
func (d *flatDecoder) eat(c byte) bool {
	d.space()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// key reads an object key as its raw bytes. A key with an escape keeps
// its backslash, so it matches no json tag and sends the body to
// encoding/json.
func (d *flatDecoder) key() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	n := bytes.IndexByte(d.b[d.i:], '"')
	if n < 0 {
		return nil, false
	}
	key := d.b[d.i : d.i+n]
	d.i += n + 1
	return key, true
}

// str reads a string value. The runs between escapes are found with
// IndexByte and copied whole; a string without escapes is one copy.
func (d *flatDecoder) str() (string, bool) {
	if d.i == len(d.b) || d.b[d.i] != '"' {
		return "", false
	}
	d.i++
	var sb strings.Builder
	q := -1 // index of the first quote at or after d.i
	for {
		if q < d.i {
			n := bytes.IndexByte(d.b[d.i:], '"')
			if n < 0 {
				return "", false
			}
			q = d.i + n
		}
		run := d.b[d.i:q]
		e := bytes.IndexByte(run, '\\')
		if e < 0 {
			if !plain(run) {
				return "", false
			}
			d.i = q + 1
			if sb.Cap() == 0 {
				return string(run), true
			}
			sb.Write(run)
			return sb.String(), true
		}
		if !plain(run[:e]) {
			return "", false
		}
		if sb.Cap() == 0 {
			sb.Grow(len(run)) // the string runs at least to this quote
		}
		sb.Write(run[:e])
		n, ok := unescape(&sb, d.b[d.i+e:])
		if !ok {
			return "", false
		}
		d.i += e + n
	}
}

// plain reports whether b may stand in a JSON string as it is: valid
// UTF-8 without control bytes. It tests eight bytes at a time.
func plain(b []byte) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	var seen uint64 // every byte read, or-ed together: a high bit means non-ASCII
	i := 0
	for ; i+8 <= len(b); i += 8 {
		x := binary.LittleEndian.Uint64(b[i:])
		if (x-' '*ones)&^x&highs != 0 { // some byte is below ' '
			return false
		}
		seen |= x
	}
	for ; i < len(b); i++ {
		if b[i] < ' ' {
			return false
		}
		seen |= uint64(b[i])
	}
	return seen&highs == 0 || utf8.Valid(b)
}

// unescape writes the character of the escape at the start of b to sb and
// returns the escape's length. A lone or reversed UTF-16 surrogate, which
// encoding/json turns into U+FFFD, is left to encoding/json.
func unescape(sb *strings.Builder, b []byte) (int, bool) {
	if len(b) < 2 {
		return 0, false
	}
	switch c := b[1]; c {
	case '"', '\\', '/':
		sb.WriteByte(c)
	case 'b':
		sb.WriteByte('\b')
	case 'f':
		sb.WriteByte('\f')
	case 'n':
		sb.WriteByte('\n')
	case 'r':
		sb.WriteByte('\r')
	case 't':
		sb.WriteByte('\t')
	case 'u':
		r := hex4(b[2:])
		if r < 0 {
			return 0, false
		}
		if !utf16.IsSurrogate(r) {
			sb.WriteRune(r)
			return 6, true
		}
		if len(b) < 12 || b[6] != '\\' || b[7] != 'u' {
			return 0, false
		}
		r = utf16.DecodeRune(r, hex4(b[8:]))
		if r == utf8.RuneError {
			return 0, false
		}
		sb.WriteRune(r)
		return 12, true
	default:
		return 0, false
	}
	return 2, true
}

// hex4 reads the four hex digits of a \u escape, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	v, err := strconv.ParseUint(string(b[:4]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(v)
}

// number reads an integer in JSON's grammar, -?(0|[1-9][0-9]*), that lies
// in [lo, hi]. A fraction, an exponent or a value out of range, which
// encoding/json rejects, is left to encoding/json.
func (d *flatDecoder) number(lo, hi int64) (int64, bool) {
	neg := d.i < len(d.b) && d.b[d.i] == '-'
	if neg {
		d.i++
	}
	start := d.i
	var u uint64
	for ; d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9'; d.i++ {
		if d.i-start == 19 {
			return 0, false // past every int64
		}
		u = 10*u + uint64(d.b[d.i]-'0')
	}
	n := d.i - start
	switch {
	case n == 0, n > 1 && d.b[start] == '0':
		return 0, false
	case d.i < len(d.b) && (d.b[d.i] == '.' || d.b[d.i] == 'e' || d.b[d.i] == 'E'):
		return 0, false
	case u > 1<<63, u == 1<<63 && !neg:
		return 0, false
	}
	v := int64(u) // 1<<63 wraps to math.MinInt64, which is -(1<<63)
	if neg {
		v = -v
	}
	return v, lo <= v && v <= hi
}

// intValue reads an integer that fits an int.
func (d *flatDecoder) intValue() (int, bool) {
	v, ok := d.number(math.MinInt, math.MaxInt)
	return int(v), ok
}

// bool reads true or false.
func (d *flatDecoder) bool() (bool, bool) {
	rest := d.b[d.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		d.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		d.i += 5
		return false, true
	}
	return false, false
}

// errReader yields err on every read; readRequest puts it after a body that
// was cut short so encoding/json sees the same failure a streaming decode
// would have.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }
