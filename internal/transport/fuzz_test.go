package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary bytes to the TCP frame decoder as one
// frame, as a stream, and as a body given a valid length and CRC (so the
// fuzzer reaches the field parser past the checksum). Every input must
// yield a message or an error wrapping ErrBadFrame (io.EOF for an empty
// stream), never a panic. A frame that decodes must re-encode to the same
// bytes, since the layout admits one frame per message. Each frame is also
// decoded twice through one slab pool whose slab first held another
// message: both results must match the fresh decode bit for bit, so nothing
// of a recycled slab leaks into a message.
func FuzzDecodeFrame(f *testing.F) {
	var w frameWriter
	poison, err := w.encode(&Message{Kind: "poison", Vectors: [][]float64{
		{math.NaN(), -1, 2, 3, 4}, {5, 6, 7}, {math.Inf(1)}},
		Scalars: map[string]float64{"a": 1, "loss": 2, "z": 3}})
	if err != nil {
		f.Fatal(err)
	}
	poison = append([]byte(nil), poison...)
	for _, m := range []Message{
		{},
		{Kind: "edge-report", From: "edge-0", To: "cloud", Round: 20,
			Vectors: [][]float64{{1, -0.5}, {0, 2}}, Scalars: map[string]float64{"loss": 0.25}},
		{Kind: "k", Round: -1, Vectors: [][]float64{nil, {math.NaN()}}},
	} {
		frame, err := w.encode(&m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), frame...))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{frameVersion, 1, 'k', 0, 0, 0x28, 1, 1, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, frame := range [][]byte{data, reframe(data)} {
			m, err := decodeFrame(frame)
			var pool slabPool
			held, perr := pool.decode(poison)
			if perr != nil {
				t.Fatal(perr)
			}
			held.Release()
			for i := 0; i < 2; i++ {
				pm, perr := pool.decode(frame)
				if fmt.Sprint(perr) != fmt.Sprint(err) || (err == nil && !sameMessage(pm, m)) {
					t.Fatalf("pooled decode %d: %+v, %v; fresh decode: %+v, %v", i, pm, perr, m, err)
				}
				pm.Release()
			}
			if err != nil {
				if !errors.Is(err, ErrBadFrame) {
					t.Fatalf("decode error %v does not wrap ErrBadFrame", err)
				}
				continue
			}
			var w frameWriter
			again, err := w.encode(&m)
			if err != nil {
				t.Fatalf("decoded message does not re-encode: %v", err)
			}
			if !bytes.Equal(again, frame) {
				t.Fatalf("re-encoding changed the frame:\n got %x\nwant %x", again, frame)
			}
		}

		fr := frameReader{r: bufio.NewReader(bytes.NewReader(data))}
		for {
			_, err := fr.next()
			if err == io.EOF {
				return
			}
			if err != nil {
				if !errors.Is(err, ErrBadFrame) {
					t.Fatalf("stream error %v does not wrap ErrBadFrame", err)
				}
				return
			}
		}
	})
}

// FuzzFrameRoundTrip encodes fuzzer-built messages and decodes them back:
// the result must match bit for bit, NaN payloads, signed zeros,
// infinities, and empty and nil vectors included.
func FuzzFrameRoundTrip(f *testing.F) {
	floats := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add("edge-report", int64(20), floats(1, -0.5, 0, 2), uint8(2), "loss", math.Float64bits(0.25))
	f.Add("k", int64(-1), floats(math.Copysign(0, -1), math.Inf(1), math.Inf(-1)), uint8(1), "", uint64(0x7ff8_0000_dead_beef))
	f.Add("", int64(math.MaxInt64), []byte{}, uint8(0), "z", math.Float64bits(math.NaN()))
	f.Fuzz(func(t *testing.T, kind string, round int64, raw []byte, split uint8, key string, scalar uint64) {
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		// Cut vals into vectors at fuzzer-chosen points, with a nil and an
		// empty vector at the ends.
		vecs := [][]float64{nil}
		for len(vals) > 0 {
			n := min(len(vals), int(split%8)+1)
			vecs = append(vecs, vals[:n])
			vals = vals[n:]
		}
		vecs = append(vecs, []float64{})
		m := Message{Kind: kind, From: key, To: kind + key, Round: int(round), Vectors: vecs,
			Scalars: map[string]float64{key: math.Float64frombits(scalar), key + "\x00": 1}}

		var w frameWriter
		frame, err := w.encode(&m)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := decodeFrame(frame)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !sameMessage(m, got) {
			t.Fatalf("round trip changed the message:\n got %+v\nwant %+v", got, m)
		}
	})
}
