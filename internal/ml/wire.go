package ml

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrWire reports structurally invalid wire data: a truncated buffer, a
// negative or impossible length prefix, or leftover bytes. It is the
// root cause surfaced by WireDec.Err and wrapped by the model codecs.
var ErrWire = errors.New("ml: invalid wire data")

// WireEnc appends fixed-width little-endian primitives to a growing
// buffer — the shared encoding substrate for the model codecs in
// internal/ml/{tree,forest,xgb,knn} and the envelope in
// internal/modelstore. Floats are encoded via math.Float64bits so a
// round trip is bit-exact, which is what makes store-loaded models
// predict bit-identically to freshly fitted ones.
type WireEnc struct {
	buf []byte
}

// Bytes returns the encoded buffer (not a copy).
func (e *WireEnc) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *WireEnc) U8(v uint8) { e.buf = append(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *WireEnc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// Int appends an int as a two's-complement uint64 (negatives such as
// the forest's MaxFeatures sentinel survive the round trip).
func (e *WireEnc) Int(v int) { e.U64(uint64(int64(v))) }

// Bool appends a bool as one byte.
func (e *WireEnc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// F64 appends the IEEE-754 bits of v.
func (e *WireEnc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Floats appends a length-prefixed float slice.
func (e *WireEnc) Floats(xs []float64) {
	e.Int(len(xs))
	for _, v := range xs {
		e.F64(v)
	}
}

// FloatRows appends a length-prefixed slice of float rows.
func (e *WireEnc) FloatRows(rows [][]float64) {
	e.Int(len(rows))
	for _, r := range rows {
		e.Floats(r)
	}
}

// WireDec reads back what WireEnc wrote. It latches the first error:
// after a failed read every subsequent read returns the zero value, so
// decoders can read a whole structure and check Err once at the end.
type WireDec struct {
	buf []byte
	off int
	err error
}

// NewWireDec wraps a buffer for decoding.
func NewWireDec(b []byte) *WireDec { return &WireDec{buf: b} }

// Err returns the first decoding error (nil if all reads succeeded).
func (d *WireDec) Err() error { return d.err }

// Remaining reports how many bytes are left unread.
func (d *WireDec) Remaining() int { return len(d.buf) - d.off }

func (d *WireDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrWire, fmt.Sprintf(format, args...))
	}
}

// Failf latches a structural error discovered by a codec (bad tag byte,
// impossible shape), with the same first-error-wins semantics as the
// primitive reads.
func (d *WireDec) Failf(format string, args ...any) { d.fail(format, args...) }

func (d *WireDec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.Remaining() < n {
		d.fail("need %d bytes at offset %d, have %d", n, d.off, d.Remaining())
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *WireDec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U64 reads a little-endian uint64.
func (d *WireDec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int reads back what WireEnc.Int wrote.
func (d *WireDec) Int() int { return int(int64(d.U64())) }

// Bool reads a bool, rejecting bytes other than 0 and 1.
func (d *WireDec) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad bool byte at offset %d", d.off-1)
		return false
	}
}

// F64 reads back IEEE-754 bits.
func (d *WireDec) F64() float64 { return math.Float64frombits(d.U64()) }

// Len reads a length prefix for elements of at least elemSize bytes,
// rejecting negative counts and counts that cannot fit in the remaining
// buffer (so corrupt data cannot trigger huge allocations). The bound
// divides rather than multiplies, so a huge count cannot overflow past
// it.
func (d *WireDec) Len(elemSize int) int {
	n := d.Int()
	if d.err != nil {
		return 0
	}
	if n < 0 || n > d.Remaining()/elemSize {
		d.fail("implausible length %d at offset %d (%d bytes remain)", n, d.off-8, d.Remaining())
		return 0
	}
	return n
}

// Floats reads back a length-prefixed float slice (nil for length 0,
// matching an encoded nil slice).
func (d *WireDec) Floats() []float64 {
	n := d.Len(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}

// FloatRows reads back a length-prefixed slice of float rows.
func (d *WireDec) FloatRows() [][]float64 {
	n := d.Len(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = d.Floats()
	}
	return out
}

// AppendWire serializes the fitted scaler.
func (s *StandardScaler) AppendWire(e *WireEnc) {
	e.Floats(s.Means)
	e.Floats(s.Scales)
}

// DecodeScaler reconstructs a scaler written by AppendWire.
func DecodeScaler(d *WireDec) (*StandardScaler, error) {
	s := &StandardScaler{Means: d.Floats(), Scales: d.Floats()}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("ml: decode scaler: %w", err)
	}
	if len(s.Means) != len(s.Scales) {
		return nil, fmt.Errorf("%w: scaler has %d means but %d scales", ErrWire, len(s.Means), len(s.Scales))
	}
	return s, nil
}
