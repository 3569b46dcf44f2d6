package wire

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
)

// MaxBodyBytes caps a request body on every hop of the serving tier:
// varserve answers 413 past it, and varroute answers the same 413
// rather than buffer and forward such a body. A raw probe profile of
// 100 runs with dozens of metrics fits comfortably.
const MaxBodyBytes = 4 << 20

// TooLarge is the error text of the 413 both hops answer for a body
// past limit bytes.
func TooLarge(limit int64) string {
	return fmt.Sprintf("request body exceeds the %d-byte limit", limit)
}

// maxDepth bounds the object and array nesting a Reader walks. Deeper
// bodies are declined and left to encoding/json, whose own limit is
// 10,000; request bodies nest four levels at most.
const maxDepth = 64

// maxScratch bounds the number scratch a pooled Reader keeps between
// bodies (in float64s); a larger one is dropped after use.
const maxScratch = 1 << 16

// Reader walks one JSON document. Each read method consumes one value
// at the cursor. The first thing the reader does not handle itself
// declines the document: the cursor jumps to the end, every later
// read returns a zero value, and Read reports false.
type Reader struct {
	buf      []byte
	pos      int
	depth    int
	declined bool
	nums     []float64 // Floats' scratch, reused across documents
}

var readers = sync.Pool{New: func() any { return new(Reader) }}

// Read decodes body into v with read, which reads the top-level value,
// and reports whether the reader accepted the whole body. After a
// false return v may hold part of the body.
func Read[T any](body []byte, v *T, read func(*Reader, *T)) bool {
	r := readers.Get().(*Reader)
	r.buf, r.pos, r.depth, r.declined = body, 0, 0, false
	read(r, v)
	ok := !r.declined && r.peek() == 0 && r.pos == len(r.buf)
	r.buf = nil
	if cap(r.nums) > maxScratch {
		r.nums = nil
	}
	readers.Put(r)
	return ok
}

// Decode decodes body into v in one pass with read. When the reader
// declines the body, v is reset to its zero value and json.Unmarshal
// decodes the body instead, so its value and its error are the
// standard library's.
func Decode[T any](body []byte, v *T, read func(*Reader, *T)) error {
	if Read(body, v, read) {
		return nil
	}
	var zero T
	*v = zero
	return json.Unmarshal(body, v)
}

func (r *Reader) decline() {
	r.declined = true
	r.pos = len(r.buf)
}

// peek skips whitespace and returns the byte at the cursor, or 0 at
// the end of the document.
func (r *Reader) peek() byte {
	for r.pos < len(r.buf) {
		switch c := r.buf[r.pos]; c {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return c
		}
	}
	return 0
}

// expect consumes c, after whitespace, or declines.
func (r *Reader) expect(c byte) bool {
	if r.peek() != c {
		r.decline()
		return false
	}
	r.pos++
	return true
}

// str reads a plain string and returns its bytes, which alias the
// document. An escape, a control byte or a non-ASCII byte declines.
func (r *Reader) str() []byte {
	if !r.expect('"') {
		return nil
	}
	start := r.pos
	for ; r.pos < len(r.buf); r.pos++ {
		c := r.buf[r.pos]
		if c == '"' {
			s := r.buf[start:r.pos]
			r.pos++
			return s
		}
		if c < 0x20 || c == '\\' || c >= 0x80 {
			break
		}
	}
	r.decline()
	return nil
}

// Text reads a plain string into a new Go string that does not alias
// the document.
func (r *Reader) Text() string { return string(r.str()) }

// number reads a number literal checked against the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its
// bytes.
func (r *Reader) number() []byte {
	r.peek()
	b, i := r.buf, r.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i)
	default:
		r.decline()
		return nil
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			r.decline()
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			r.decline()
			return nil
		}
		i = j
	}
	lit := b[r.pos:i]
	r.pos = i
	return lit
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for ; i < len(b); i++ {
		if b[i]-'0' > 9 {
			break
		}
	}
	return i
}

// Float64 reads a number as encoding/json does into a float64:
// strconv.ParseFloat on the literal. A literal out of float64's range
// declines.
func (r *Reader) Float64() float64 {
	lit := r.number()
	if r.declined {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		r.decline()
		return 0
	}
	return f
}

// Int reads a number into an int: strconv.ParseInt on the literal, so
// a fraction, an exponent or an overflow declines.
func (r *Reader) Int() int {
	lit := r.number()
	if r.declined {
		return 0
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		r.decline()
		return 0
	}
	return int(n)
}

// Uint64 reads a number into a uint64: strconv.ParseUint on the
// literal, so a sign, a fraction, an exponent or an overflow declines.
func (r *Reader) Uint64() uint64 {
	lit := r.number()
	if r.declined {
		return 0
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	if err != nil {
		r.decline()
		return 0
	}
	return n
}

// Floats reads an array of numbers into a new slice of exactly its
// length; an empty array gives an empty, non-nil slice, as it does in
// encoding/json. The numbers collect in the Reader's scratch first, so
// the result is the only allocation.
func (r *Reader) Floats() []float64 {
	r.nums = r.nums[:0]
	r.Array(func() { r.nums = append(r.nums, r.Float64()) })
	if r.declined {
		return nil
	}
	out := make([]float64, len(r.nums))
	copy(out, r.nums)
	return out
}

// Object walks the object at the cursor and calls field with each key,
// whose bytes alias the document. field either reads the key's value
// and returns true, or returns false without reading it to have the
// value skipped.
func (r *Reader) Object(field func(key []byte) bool) {
	if !r.expect('{') || !r.enter() {
		return
	}
	defer r.leave()
	if r.peek() == '}' {
		r.pos++
		return
	}
	for !r.declined {
		key := r.str()
		if !r.expect(':') {
			return
		}
		if !field(key) {
			r.skip()
		}
		switch r.peek() {
		case ',':
			r.pos++
		case '}':
			r.pos++
			return
		default:
			r.decline()
		}
	}
}

// Array walks the array at the cursor and calls elem once per element;
// elem must read exactly one value.
func (r *Reader) Array(elem func()) {
	if !r.expect('[') || !r.enter() {
		return
	}
	defer r.leave()
	if r.peek() == ']' {
		r.pos++
		return
	}
	for !r.declined {
		elem()
		switch r.peek() {
		case ',':
			r.pos++
		case ']':
			r.pos++
			return
		default:
			r.decline()
		}
	}
}

func (r *Reader) enter() bool {
	if r.depth++; r.depth > maxDepth {
		r.decline()
		return false
	}
	return true
}

func (r *Reader) leave() { r.depth-- }

// Field resolves key against names, the JSON field names of the struct
// being read, and returns the index of the exact match, or -1 for a key
// the struct does not have. seen holds one bit per name (up to 64
// names). A key that matches a name only up to case, or a name already
// seen, declines: encoding/json resolves both in its own way.
func (r *Reader) Field(key []byte, names []string, seen *uint64) int {
	for i, name := range names {
		if string(key) == name {
			if *seen&(1<<i) != 0 {
				r.decline()
				return -1
			}
			*seen |= 1 << i
			return i
		}
		if equalFoldASCII(key, name) {
			r.decline()
			return -1
		}
	}
	return -1
}

// equalFoldASCII reports whether key and name are equal under ASCII
// case folding. The reader declines non-ASCII keys, so this is the
// whole of encoding/json's case-insensitive match for the keys it sees.
func equalFoldASCII(key []byte, name string) bool {
	if len(key) != len(name) {
		return false
	}
	for i := range key {
		a, b := key[i], name[i]
		if a == b {
			continue
		}
		if l := a | 0x20; l != b|0x20 || l < 'a' || l > 'z' {
			return false
		}
	}
	return true
}

// skip reads past one value of any type, checking its grammar. null
// declines here as everywhere else.
func (r *Reader) skip() {
	switch r.peek() {
	case '{':
		r.Object(func([]byte) bool { return false })
	case '[':
		r.Array(r.skip)
	case '"':
		r.str()
	case 't':
		r.literal("true")
	case 'f':
		r.literal("false")
	default:
		r.number()
	}
}

func (r *Reader) literal(lit string) {
	if len(r.buf)-r.pos >= len(lit) && string(r.buf[r.pos:r.pos+len(lit)]) == lit {
		r.pos += len(lit)
		return
	}
	r.decline()
}
