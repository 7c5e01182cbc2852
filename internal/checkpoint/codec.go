package checkpoint

// Low-level binary codec: little-endian varint/float primitives over a
// byte buffer, the zero-run coding of float slices, plus the section
// framing (tag + length + payload + CRC32) that Write and Read build
// the checkpoint format from. Every decoding failure — short buffer,
// overflow, bad checksum — surfaces as an error wrapping
// ErrBadCheckpoint, never as a panic: checkpoint files cross process
// boundaries and must be treated as untrusted input.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"
)

// maxSliceLen bounds decoded collection lengths, so a corrupt length
// prefix fails fast instead of attempting a multi-gigabyte allocation.
const maxSliceLen = 1 << 28

// payload accumulates one section's bytes before framing.
type payload struct {
	buf []byte
}

func (p *payload) putUvarint(v uint64) { p.buf = binary.AppendUvarint(p.buf, v) }
func (p *payload) putVarint(v int64)   { p.buf = binary.AppendVarint(p.buf, v) }
func (p *payload) putInt(v int)        { p.putVarint(int64(v)) }

// putLen writes a collection length; the reader side is getLen.
func (p *payload) putLen(n int) { p.putUvarint(uint64(n)) }

func (p *payload) putBool(v bool) {
	if v {
		p.buf = append(p.buf, 1)
	} else {
		p.buf = append(p.buf, 0)
	}
}

func (p *payload) putF64(v float64) {
	p.buf = binary.LittleEndian.AppendUint64(p.buf, math.Float64bits(v))
}

func (p *payload) putString(s string) {
	p.putUvarint(uint64(len(s)))
	p.buf = append(p.buf, s...)
}

// putFloats writes a float slice in the run coding of format version
// 2: the length, then runs of (uvarint zeros, uvarint k, k literal
// floats) that together cover it. A zero is a value whose bits are all
// zero, so -0.0 and every NaN are literals and decoding is bit-exact.
// Each run's zeros and literals are maximal, which makes the coding
// canonical: only the first run starts without zeros, and only the
// last run may hold no literal.
func (p *payload) putFloats(vs []float64) {
	p.putUvarint(uint64(len(vs)))
	for i := 0; i < len(vs); {
		lit := i
		for lit < len(vs) && math.Float64bits(vs[lit]) == 0 {
			lit++
		}
		end := lit
		for end < len(vs) && math.Float64bits(vs[end]) != 0 {
			end++
		}
		p.putUvarint(uint64(lit - i))
		p.putUvarint(uint64(end - lit))
		for _, v := range vs[lit:end] {
			p.putF64(v)
		}
		i = end
	}
}

func (p *payload) putInts(vs []int) {
	p.putUvarint(uint64(len(vs)))
	for _, v := range vs {
		p.putInt(v)
	}
}

func (p *payload) putInt32s(vs []int32) {
	p.putUvarint(uint64(len(vs)))
	for _, v := range vs {
		p.putVarint(int64(v))
	}
}

func (p *payload) putBools(vs []bool) {
	p.putUvarint(uint64(len(vs)))
	for _, v := range vs {
		p.putBool(v)
	}
}

// putTime encodes a time as (isZero, unixNanos): the zero time has no
// representable UnixNano, and detectors created but never fed carry
// zero clocks.
func (p *payload) putTime(t time.Time) {
	p.putBool(t.IsZero())
	if t.IsZero() {
		return
	}
	p.putVarint(t.UnixNano())
}

// reader decodes one section's payload. It is fail-fast: the first
// malformed field poisons the reader and every later get returns zero
// values, so section decoders can read a full layout and check err
// once at the end.
type reader struct {
	buf []byte
	off int
	err error
	// runs selects how float slices are coded: zero runs (version 2)
	// or dense, eight bytes per element (version 1).
	runs bool
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrBadCheckpoint}, args...)...)
	}
}

func (r *reader) getUvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) getVarint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) getInt() int { return int(r.getVarint()) }

func (r *reader) getBool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.buf) {
		r.fail("truncated bool at offset %d", r.off)
		return false
	}
	b := r.buf[r.off]
	r.off++
	if b > 1 {
		r.fail("bad bool byte %d at offset %d", b, r.off-1)
		return false
	}
	return b == 1
}

func (r *reader) getF64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail("truncated float at offset %d", r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

// getLen reads a collection length, bounding it both by the sanity cap
// and by what the remaining payload could possibly hold (at least one
// byte per element), so corrupt lengths cannot drive huge allocations.
func (r *reader) getLen() int {
	v := r.getUvarint()
	if r.err != nil {
		return 0
	}
	if v > maxSliceLen || v > uint64(len(r.buf)-r.off) {
		r.fail("implausible collection length %d at offset %d", v, r.off)
		return 0
	}
	return int(v)
}

func (r *reader) getString() string {
	n := r.getLen()
	if r.err != nil {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// getFloats reads a float slice of at most limit elements. The caller
// derives limit from the structure the slice mirrors (node count,
// window, seasonal periods); it is what bounds the allocation of the
// run coding, where a few bytes can claim any number of zeros. A
// version-1 slice is further bounded by its eight bytes per element.
func (r *reader) getFloats(limit int) []float64 {
	v := r.getUvarint()
	if r.err != nil {
		return nil
	}
	if v > uint64(limit) {
		r.fail("float slice of %d elements at offset %d, this section holds at most %d", v, r.off, limit)
		return nil
	}
	n := int(v)
	if n == 0 {
		return nil
	}
	if !r.runs && n > (len(r.buf)-r.off)/8 {
		r.fail("truncated float slice at offset %d", r.off)
		return nil
	}
	out := make([]float64, n)
	if !r.runs {
		for i := range out {
			out[i] = r.getF64()
		}
		return out
	}
	for i := 0; i < n; {
		first := i == 0
		zeros, k := r.getUvarint(), r.getUvarint()
		if r.err != nil {
			return nil
		}
		rest := uint64(n - i)
		if zeros > rest || k > rest-zeros || k > uint64(len(r.buf)-r.off)/8 {
			r.fail("float run (%d zeros, %d literals) overruns its slice at offset %d", zeros, k, r.off)
			return nil
		}
		i += int(zeros)
		if (zeros == 0 && !first) || (k == 0 && i < n) {
			r.fail("non-canonical float run (%d zeros, %d literals) at offset %d", zeros, k, r.off)
			return nil
		}
		for end := i + int(k); i < end; i++ {
			bits := binary.LittleEndian.Uint64(r.buf[r.off:])
			if bits == 0 {
				r.fail("zero literal in a float run at offset %d", r.off)
				return nil
			}
			out[i] = math.Float64frombits(bits)
			r.off += 8
		}
	}
	return out
}

func (r *reader) getInts() []int {
	n := r.getLen()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.getInt()
	}
	return out
}

func (r *reader) getInt32s() []int32 {
	n := r.getLen()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(r.getVarint())
	}
	return out
}

func (r *reader) getBools() []bool {
	n := r.getLen()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = r.getBool()
	}
	return out
}

func (r *reader) getTime() time.Time {
	if r.getBool() {
		return time.Time{}
	}
	ns := r.getVarint()
	if r.err != nil {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// done verifies the payload was consumed exactly; leftover bytes mean
// the encoder and decoder disagree on the section layout.
func (r *reader) done(section string) error {
	if r.err != nil {
		return fmt.Errorf("section %q: %w", section, r.err)
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: section %q has %d trailing bytes", ErrBadCheckpoint, section, len(r.buf)-r.off)
	}
	return nil
}

// writeSection frames one section onto w: 4-byte tag, uvarint payload
// length, payload bytes, CRC32 (IEEE, little-endian) of the payload.
func writeSection(w io.Writer, tag string, p *payload) error {
	if len(tag) != 4 {
		return fmt.Errorf("checkpoint: section tag %q is not 4 bytes", tag)
	}
	var hdr []byte
	hdr = append(hdr, tag...)
	hdr = binary.AppendUvarint(hdr, uint64(len(p.buf)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(p.buf); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(p.buf))
	_, err := w.Write(crc[:])
	return err
}

// byteScanner adapts an io.Reader for section scanning with exact
// error mapping: every short read inside a section is a truncation.
type byteScanner struct {
	r io.Reader
}

func (s *byteScanner) ReadByte() (byte, error) {
	var b [1]byte
	_, err := io.ReadFull(s.r, b[:])
	return b[0], err
}

// readSection reads the next framed section, verifying the checksum.
// It returns the tag and payload, or io.EOF only at a clean boundary
// before any tag byte (which Read treats as truncation when the END
// marker has not been seen).
func readSection(s *byteScanner) (string, []byte, error) {
	var tag [4]byte
	n, err := io.ReadFull(s.r, tag[:])
	if err != nil {
		if n == 0 && err == io.EOF {
			return "", nil, io.EOF
		}
		return "", nil, fmt.Errorf("%w: truncated section tag", ErrBadCheckpoint)
	}
	size, err := binary.ReadUvarint(s)
	if err != nil {
		return "", nil, fmt.Errorf("%w: truncated section length", ErrBadCheckpoint)
	}
	if size > maxSliceLen {
		return "", nil, fmt.Errorf("%w: implausible section length %d", ErrBadCheckpoint, size)
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(s.r, buf); err != nil {
		return "", nil, fmt.Errorf("%w: truncated section %q", ErrBadCheckpoint, tag)
	}
	var crc [4]byte
	if _, err := io.ReadFull(s.r, crc[:]); err != nil {
		return "", nil, fmt.Errorf("%w: truncated checksum of section %q", ErrBadCheckpoint, tag)
	}
	if got, want := crc32.ChecksumIEEE(buf), binary.LittleEndian.Uint32(crc[:]); got != want {
		return "", nil, fmt.Errorf("%w: checksum mismatch in section %q", ErrBadCheckpoint, tag)
	}
	return string(tag[:]), buf, nil
}
