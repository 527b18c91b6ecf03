package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// Wire frame for the TCP transport. One Message travels as
//
//	uint32 LE  n = length of everything after this field
//	byte       frameVersion
//	uvarint    len(Kind), Kind bytes
//	uvarint    len(From), From bytes
//	uvarint    len(To),   To bytes
//	varint     Round
//	uvarint    vector count, then per vector:
//	           uvarint dimension, dimension × uint64 LE math.Float64bits
//	uvarint    scalar count, then per scalar in strictly increasing key order:
//	           uvarint len(key), key bytes, uint64 LE math.Float64bits
//	uint32 LE  CRC-32C (Castagnoli) of the bytes from the version byte on
//
// Every count, length and dimension is checked against the bytes actually
// present before it sizes an allocation, so a corrupt or hostile peer can
// make the decoder allocate no more than it sent. Varints must be minimal
// and scalar keys strictly increasing, so each message has exactly one
// frame. Any change to this layout must bump frameVersion.
const (
	frameVersion = 1
	// maxFrameBytes bounds n. It admits four vectors of two million
	// parameters each, far above the repo's largest model.
	maxFrameBytes = 64 << 20
	// maxFrameVectors and maxFrameScalars bound the counts, so an empty
	// vector or scalar (a byte or nine on the wire) cannot make the
	// decoder build headers or map entries out of proportion to the frame.
	maxFrameVectors = 256
	maxFrameScalars = 256
	// frameReadChunk is the first read buffer size; it then doubles with
	// the bytes received, never with the length a header claims.
	frameReadChunk = 64 << 10
	// minFrameBody is the smallest valid n: version, three empty strings,
	// a one-byte round, two zero counts and the CRC.
	minFrameBody = 1 + 3 + 1 + 2 + 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameWriter encodes messages into a buffer reused across frames.
type frameWriter struct {
	buf  []byte
	keys []string
}

// encode renders m as one complete frame, length prefix included. The
// result aliases the writer's buffer and is valid until the next encode;
// every float is copied, so the caller may reuse m's vectors at once.
func (w *frameWriter) encode(m *Message) ([]byte, error) {
	if len(m.Vectors) > maxFrameVectors {
		return nil, fmt.Errorf("%w: %d vectors exceed the %d-vector bound", ErrBadFrame, len(m.Vectors), maxFrameVectors)
	}
	if len(m.Scalars) > maxFrameScalars {
		return nil, fmt.Errorf("%w: %d scalars exceed the %d-scalar bound", ErrBadFrame, len(m.Scalars), maxFrameScalars)
	}
	n := 1 + strSize(m.Kind) + strSize(m.From) + strSize(m.To) + varintSize(int64(m.Round)) +
		uvarintSize(uint64(len(m.Vectors))) + uvarintSize(uint64(len(m.Scalars))) + 4
	for _, v := range m.Vectors {
		n += uvarintSize(uint64(len(v))) + 8*len(v)
	}
	keys := w.keys[:0]
	for k := range m.Scalars {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	w.keys = keys
	for _, k := range keys {
		n += strSize(k) + 8
	}
	if n > maxFrameBytes {
		return nil, fmt.Errorf("%w: %d-byte message exceeds the %d-byte frame bound", ErrBadFrame, n, maxFrameBytes)
	}
	if cap(w.buf) < 4+n {
		w.buf = make([]byte, 0, 4+n)
	}
	b := append(w.buf[:0], 0, 0, 0, 0, frameVersion)
	b = appendStr(b, m.Kind)
	b = appendStr(b, m.From)
	b = appendStr(b, m.To)
	b = binary.AppendVarint(b, int64(m.Round))
	b = binary.AppendUvarint(b, uint64(len(m.Vectors)))
	for _, v := range m.Vectors {
		b = binary.AppendUvarint(b, uint64(len(v)))
		off := len(b)
		b = b[:off+8*len(v)]
		for i, x := range v {
			binary.LittleEndian.PutUint64(b[off+8*i:], math.Float64bits(x))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendStr(b, k)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Scalars[k]))
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[4:], castagnoli))
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	w.buf = b
	return b, nil
}

func uvarintSize(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

func varintSize(x int64) int { return uvarintSize(uint64(x<<1) ^ uint64(x>>63)) }

func strSize(s string) int { return uvarintSize(uint64(len(s))) + len(s) }

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// frameReader reads frames off one connection into a buffer reused across
// frames, and decodes each into a slab from pool (fresh slabs when nil).
type frameReader struct {
	r    *bufio.Reader
	buf  []byte
	pool *slabPool
}

// next reads and decodes one frame. It returns io.EOF on a clean close at
// a frame boundary, an error wrapping ErrBadFrame on a malformed frame, and
// the read error otherwise.
func (fr *frameReader) next() (Message, error) {
	if cap(fr.buf) < 4 {
		fr.buf = make([]byte, 0, frameReadChunk)
	}
	fr.buf = fr.buf[:4]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Message{}, fmt.Errorf("%w: truncated length prefix", ErrBadFrame)
		}
		return Message{}, err
	}
	n := binary.LittleEndian.Uint32(fr.buf)
	if n > maxFrameBytes {
		return Message{}, fmt.Errorf("%w: frame length %d over the %d-byte bound", ErrBadFrame, n, maxFrameBytes)
	}
	size := 4 + int(n)
	for len(fr.buf) < size {
		if len(fr.buf) == cap(fr.buf) {
			// Grow with the bytes received, not the length claimed: a
			// header that lies costs the decoder what the peer really sent.
			next := make([]byte, len(fr.buf), min(2*cap(fr.buf), size))
			copy(next, fr.buf)
			fr.buf = next
		}
		have := len(fr.buf)
		k, err := io.ReadFull(fr.r, fr.buf[have:min(size, cap(fr.buf))])
		fr.buf = fr.buf[:have+k]
		if err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
				return Message{}, fmt.Errorf("%w: truncated after %d of %d bytes", ErrBadFrame, have+k, size)
			}
			return Message{}, err
		}
	}
	return fr.pool.decode(fr.buf)
}

// decodeFrame decodes one complete frame, length prefix included, into
// fresh memory that no pool owns.
func decodeFrame(frame []byte) (Message, error) { return decodeFrameInto(frame, new(slab)) }

// decodeFrameInto decodes one complete frame, length prefix included, into
// s: all the message's vectors slice s's floats, capacity-clipped, and
// nothing aliases frame. s may hold an earlier message's memory; every
// value the result exposes is overwritten.
func decodeFrameInto(frame []byte, s *slab) (Message, error) {
	if len(frame) < 4 {
		return Message{}, fmt.Errorf("%w: truncated length prefix", ErrBadFrame)
	}
	if n := binary.LittleEndian.Uint32(frame); uint64(n) != uint64(len(frame)-4) {
		return Message{}, fmt.Errorf("%w: length prefix %d for a %d-byte body", ErrBadFrame, n, len(frame)-4)
	}
	if len(frame) < 4+minFrameBody {
		return Message{}, fmt.Errorf("%w: %d-byte frame is shorter than the smallest", ErrBadFrame, len(frame))
	}
	body, sum := frame[4:len(frame)-4], binary.LittleEndian.Uint32(frame[len(frame)-4:])
	if got := crc32.Checksum(body, castagnoli); got != sum {
		return Message{}, fmt.Errorf("%w: CRC-32C %08x, frame says %08x", ErrBadFrame, got, sum)
	}
	if body[0] != frameVersion {
		return Message{}, fmt.Errorf("%w: unknown version %d", ErrBadFrame, body[0])
	}
	d := frameDecoder{b: body[1:]}
	var m Message
	m.Kind = d.str()
	m.From = d.str()
	m.To = d.str()
	round := d.varint()
	if m.Round = int(round); int64(m.Round) != round {
		d.fail("round %d overflows int", round)
	}

	// Every vector costs at least its dimension byte, so the count is
	// bounded by the bytes left; the slab by the bytes left over eight.
	nvec := d.count(maxFrameVectors, 1)
	if nvec > 0 {
		m.Vectors = s.headers(nvec)
		data := s.floats(len(d.b) / 8)
		for i := range m.Vectors {
			raw := d.take(8 * d.count(maxFrameBytes/8, 8))
			// raw came out of the bytes the floats were sized by, so it fits.
			off := len(data)
			data = data[:off+len(raw)/8]
			v := data[off:len(data):len(data)]
			for j := range v {
				v[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
			}
			m.Vectors[i] = v
		}
	}

	nsc := d.count(maxFrameScalars, 9)
	if nsc > 0 {
		m.Scalars = s.scalarMap()
		prev := ""
		for i := 0; i < nsc && d.err == nil; i++ {
			k := d.str()
			if i > 0 && k <= prev {
				d.fail("scalar key %q after %q breaks the sorted order", k, prev)
			}
			m.Scalars[k] = d.float()
			prev = k
		}
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return Message{}, d.err
	}
	return m, nil
}

// frameDecoder consumes a frame body front to back. The first failure
// sticks: later reads return zero values, and the caller checks err once.
type frameDecoder struct {
	b   []byte
	err error
}

func (d *frameDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrBadFrame}, args...)...)
	}
	d.b = nil
}

// take consumes n bytes, or fails and returns nil when fewer are left.
func (d *frameDecoder) take(n int) []byte {
	if n > len(d.b) {
		d.fail("%d-byte field overruns the %d bytes left", n, len(d.b))
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *frameDecoder) float() float64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// uvarint and varint accept only the shortest encoding, so every message
// has exactly one frame.
func (d *frameDecoder) uvarint() uint64 {
	x, k := binary.Uvarint(d.b)
	if k <= 0 || k != uvarintSize(x) {
		d.fail("malformed uvarint")
		return 0
	}
	d.b = d.b[k:]
	return x
}

func (d *frameDecoder) varint() int64 {
	x, k := binary.Varint(d.b)
	if k <= 0 || k != varintSize(x) {
		d.fail("malformed varint")
		return 0
	}
	d.b = d.b[k:]
	return x
}

// count reads a uvarint count of items each at least unit bytes long and
// rejects it when it exceeds limit or the bytes left could not hold it.
func (d *frameDecoder) count(limit, unit int) int {
	x := d.uvarint()
	if x > uint64(limit) || x > uint64(len(d.b)/unit) {
		d.fail("count %d exceeds the bound %d or the %d bytes left", x, limit, len(d.b))
		return 0
	}
	return int(x)
}

func (d *frameDecoder) str() string {
	return string(d.take(d.count(maxFrameBytes, 1)))
}
