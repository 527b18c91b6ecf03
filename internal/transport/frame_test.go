package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"net"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// sameMessage reports whether two messages agree field for field, floats
// compared by bit pattern (so NaN payloads and signed zeros count). A nil
// and an empty vector or scalar map are the same on the wire.
func sameMessage(a, b Message) bool {
	if a.Kind != b.Kind || a.From != b.From || a.To != b.To || a.Round != b.Round ||
		len(a.Vectors) != len(b.Vectors) || len(a.Scalars) != len(b.Scalars) {
		return false
	}
	for i := range a.Vectors {
		if len(a.Vectors[i]) != len(b.Vectors[i]) {
			return false
		}
		for j := range a.Vectors[i] {
			if math.Float64bits(a.Vectors[i][j]) != math.Float64bits(b.Vectors[i][j]) {
				return false
			}
		}
	}
	for k, v := range a.Scalars {
		w, ok := b.Scalars[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// roundTrip encodes m with a fresh writer and decodes the frame.
func roundTrip(t testing.TB, m Message) Message {
	t.Helper()
	var w frameWriter
	frame, err := w.encode(&m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := decodeFrame(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func TestFrameRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	cases := map[string]Message{
		"empty":          {},
		"header":         {Kind: "edge-report", From: "worker-0-1", To: "edge-0", Round: 4000},
		"negative round": {Kind: "k", Round: math.MinInt64},
		"special floats": {Kind: "k", Vectors: [][]float64{
			{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(), nan, math.SmallestNonzeroFloat64, math.MaxFloat64},
		}},
		"empty and nil vectors": {Kind: "k", Vectors: [][]float64{nil, {}, {1}, nil}},
		"scalars": {Kind: "k", Scalars: map[string]float64{
			"loss": 0.25, "": -1, "weight": nan, "z\x00": math.Copysign(0, -1),
		}},
		"report": {Kind: "tier-report", Round: 30, Vectors: [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}},
			Scalars: map[string]float64{"loss": 1.5}},
	}
	for name, m := range cases {
		t.Run(name, func(t *testing.T) {
			got := roundTrip(t, m)
			if !sameMessage(m, got) {
				t.Fatalf("round trip changed the message:\n got %+v\nwant %+v", got, m)
			}
		})
	}
}

func TestFrameDecodeOwnsMemory(t *testing.T) {
	// Edges keep a report's vectors until they aggregate, so a decoded
	// message must not alias the reused read buffer, and one vector's
	// append must not overwrite the next vector in the shared slab.
	var w frameWriter
	frame, err := w.encode(&Message{Kind: "k", Vectors: [][]float64{{1, 2}, {3, 4}}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0xff
	}
	_ = append(got.Vectors[0], 99)
	if got.Vectors[0][1] != 2 || got.Vectors[1][0] != 3 {
		t.Fatalf("decoded vectors alias the frame or each other: %v", got.Vectors)
	}
}

// TestFrameGolden pins the wire layout byte for byte on an
// edge-report-shaped message. If this fails, the layout changed: bump
// frameVersion and regenerate the golden bytes on purpose.
func TestFrameGolden(t *testing.T) {
	m := Message{
		Kind: "edge-report", From: "edge-0", To: "cloud", Round: 20,
		Vectors: [][]float64{{1, -0.5}, {0, 2}},
		Scalars: map[string]float64{"loss": 0.25},
	}
	golden := "50000000" + // length of what follows: 80 bytes
		"01" + // version
		"0b" + hex.EncodeToString([]byte("edge-report")) +
		"06" + hex.EncodeToString([]byte("edge-0")) +
		"05" + hex.EncodeToString([]byte("cloud")) +
		"28" + // zig-zag varint 20
		"02" + // two vectors
		"02" + "000000000000f03f" + "000000000000e0bf" + // dim 2: 1, -0.5
		"02" + "0000000000000000" + "0000000000000040" + // dim 2: 0, 2
		"01" + "04" + hex.EncodeToString([]byte("loss")) + "000000000000d03f" + // loss: 0.25
		"cf0513a4" // CRC-32C of the bytes from the version on
	var w frameWriter
	frame, err := w.encode(&m)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(frame); got != golden {
		t.Fatalf("frame bytes changed:\n got %s\nwant %s", got, golden)
	}
	if n := binary.LittleEndian.Uint32(frame); int(n) != len(frame)-4 {
		t.Fatalf("length prefix %d, frame has %d bytes after it", n, len(frame)-4)
	}
	if got := crc32.Checksum(frame[4:len(frame)-4], crc32.MakeTable(crc32.Castagnoli)); got != binary.LittleEndian.Uint32(frame[len(frame)-4:]) {
		t.Fatalf("trailer is not the CRC-32C of the body")
	}
}

// reframe wraps body (version byte onward) in a length prefix and a
// valid CRC, so a malformed body reaches the check under test.
func reframe(body []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(body)+4))
	out = append(out, body...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, castagnoli))
}

// headerBody is a version byte, empty Kind/From/To and round 0.
func headerBody() []byte { return []byte{frameVersion, 0, 0, 0, 0} }

func TestDecodeFrameRejects(t *testing.T) {
	var w frameWriter
	valid, err := w.encode(&Message{Kind: "k", Vectors: [][]float64{{1, 2}}, Scalars: map[string]float64{"loss": 1}})
	if err != nil {
		t.Fatal(err)
	}
	valid = append([]byte(nil), valid...)
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), valid...)) }
	body := func(parts ...[]byte) []byte { return reframe(bytes.Join(parts, nil)) }
	uv := func(x uint64) []byte { return binary.AppendUvarint(nil, x) }

	cases := []struct {
		name  string
		frame []byte
		want  string
	}{
		{"empty", nil, "truncated length prefix"},
		{"truncated length prefix", valid[:3], "truncated length prefix"},
		{"length prefix past the end", mutate(func(b []byte) []byte { b[0]++; return b }), "length prefix"},
		{"bytes past the length prefix", append(append([]byte(nil), valid...), 0), "length prefix"},
		{"shorter than the smallest frame", body([]byte{frameVersion}), "shorter than the smallest"},
		{"bad CRC", mutate(func(b []byte) []byte { b[len(b)-10] ^= 1; return b }), "CRC-32C"},
		{"unknown version", body([]byte{frameVersion + 1, 0, 0, 0, 0, 0, 0}), "unknown version"},
		{"string overruns the frame", body([]byte{frameVersion, 100, 'k', 0, 0, 0, 0, 0}), "count 100"},
		{"malformed uvarint", body([]byte{frameVersion}, bytes.Repeat([]byte{0xff}, 11)), "malformed uvarint"},
		{"vector count over the bound", body(headerBody(), uv(maxFrameVectors+1), make([]byte, maxFrameVectors+2)), "count 257"},
		{"vector count over the bytes left", body(headerBody(), uv(5), []byte{0, 0}), "count 5"},
		{"dimension over the bytes left", body(headerBody(), uv(1), uv(1000), make([]byte, 16), uv(0)), "count 1000"},
		{"scalar count over the bound", body(headerBody(), uv(0), uv(maxFrameScalars+1), make([]byte, 9*(maxFrameScalars+1))), "count 257"},
		{"scalar count over the bytes left", body(headerBody(), uv(0), uv(3), make([]byte, 9)), "count 3"},
		{"scalar value truncated", body(headerBody(), uv(0), uv(1), []byte{1, 'a'}, make([]byte, 7)), "overruns"},
		{"duplicate scalar key", body(headerBody(), uv(0), uv(2), []byte{1, 'a'}, make([]byte, 8), []byte{1, 'a'}, make([]byte, 8)), "sorted order"},
		{"unsorted scalar keys", body(headerBody(), uv(0), uv(2), []byte{1, 'b'}, make([]byte, 8), []byte{1, 'a'}, make([]byte, 8)), "sorted order"},
		{"trailing bytes", body(headerBody(), uv(0), uv(0), []byte{0}), "1 trailing bytes"},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := decodeFrame(c.frame)
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decode = %+v, %v; want ErrBadFrame", m, err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want it to mention %q", err, c.want)
			}
		})
	}
}

func TestFrameReaderStream(t *testing.T) {
	var w frameWriter
	var stream []byte
	msgs := []Message{{Kind: "a", Round: 1}, {Kind: "b", Vectors: [][]float64{make([]float64, 20000)}}, {Kind: "c", Round: 3}}
	for i := range msgs {
		frame, err := w.encode(&msgs[i])
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, frame...)
	}
	fr := frameReader{r: bufio.NewReader(bytes.NewReader(stream))}
	for i, want := range msgs {
		got, err := fr.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !sameMessage(want, got) {
			t.Fatalf("frame %d: got %+v", i, got)
		}
	}
	if _, err := fr.next(); err != io.EOF {
		t.Fatalf("after the last frame: err = %v, want io.EOF", err)
	}
}

func TestFrameReaderRejects(t *testing.T) {
	var w frameWriter
	valid, err := w.encode(&Message{Kind: "k", Vectors: [][]float64{{1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"truncated length prefix":  valid[:2],
		"truncated body":           valid[:len(valid)-1],
		"length over the bound":    binary.LittleEndian.AppendUint32(nil, maxFrameBytes+1),
		"length under the minimum": append(binary.LittleEndian.AppendUint32(nil, minFrameBody-1), make([]byte, minFrameBody-1)...),
	}
	for name, stream := range cases {
		t.Run(name, func(t *testing.T) {
			fr := frameReader{r: bufio.NewReader(bytes.NewReader(stream))}
			if _, err := fr.next(); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("err = %v, want ErrBadFrame", err)
			}
		})
	}
}

func TestFrameReaderLyingLengthAllocatesWhatArrived(t *testing.T) {
	// The header claims a frame just under the bound; the peer then sends
	// 100 bytes and hangs up. The reader must fail having allocated about
	// what arrived, not the 64 MiB the header promised.
	stream := binary.LittleEndian.AppendUint32(nil, maxFrameBytes-1)
	stream = append(stream, make([]byte, 100)...)
	fr := frameReader{r: bufio.NewReader(bytes.NewReader(stream))}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := fr.next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*frameReadChunk {
		t.Fatalf("a 104-byte stream allocated %d bytes", grew)
	}
}

func TestFrameEncodeAllocFree(t *testing.T) {
	m := benchReport()
	var w frameWriter
	if _, err := w.encode(&m); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := w.encode(&m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state encode allocates %v times per frame, want 0", allocs)
	}
}

func TestFrameEncodeRejectsOverBounds(t *testing.T) {
	big := make([]float64, 1<<20) // 8 MiB, shared by every vector below
	cases := map[string]Message{
		"too many vectors": {Vectors: make([][]float64, maxFrameVectors+1)},
		"too many scalars": {Scalars: func() map[string]float64 {
			s := make(map[string]float64)
			for i := 0; i <= maxFrameScalars; i++ {
				s[strconv.Itoa(i)] = 1
			}
			return s
		}()},
		"over the byte bound": {Vectors: [][]float64{big, big, big, big, big, big, big, big, big}},
	}
	for name, m := range cases {
		t.Run(name, func(t *testing.T) {
			var w frameWriter
			if _, err := w.encode(&m); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("err = %v, want ErrBadFrame", err)
			}
		})
	}
}

func TestTCPSendEncodeErrorIsPermanent(t *testing.T) {
	// A message no frame can carry fails at once: no redial, no backoff,
	// and the cached connection stays usable for the next message.
	tn := NewTCPNetwork()
	defer tn.Close()
	a, err := tn.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := tn.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	start := time.Now()
	err = a.Send("b", Message{Kind: "x", Vectors: make([][]float64, maxFrameVectors+1)})
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
	if elapsed := time.Since(start); elapsed >= sendBackoffBase {
		t.Errorf("encode failure took %v, as if it backed off", elapsed)
	}
	if stats := tn.FaultStats(); stats.Retries != 0 {
		t.Errorf("Retries = %d after a permanent encode error, want 0", stats.Retries)
	}
	if err := a.Send("b", Message{Kind: "x", Round: 2}); err != nil {
		t.Fatal(err)
	}
	if got, err := b.RecvTimeout(2 * time.Second); err != nil || got.Round != 2 {
		t.Fatalf("next message: %+v, %v", got, err)
	}
}

func TestTCPSendCopiesBeforeReturn(t *testing.T) {
	// Send no longer clones: the frame must hold its own copy of every
	// float by the time Send returns.
	tn := NewTCPNetwork()
	defer tn.Close()
	a, err := tn.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := tn.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	v := []float64{1, 2, 3}
	s := map[string]float64{"loss": 1}
	if err := a.Send("b", Message{Kind: "x", Vectors: [][]float64{v}, Scalars: s}); err != nil {
		t.Fatal(err)
	}
	v[0], s["loss"] = 99, 99
	got, err := b.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.Vectors[0][0] != 1 || got.Scalars["loss"] != 1 {
		t.Fatalf("receiver saw the sender's later writes: %+v", got)
	}
}

func TestTCPBadFrameClosesOnlyThatConn(t *testing.T) {
	tn := NewTCPNetwork()
	defer tn.Close()
	a, err := tn.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := tn.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	addr, err := tn.lookup("b")
	if err != nil {
		t.Fatal(err)
	}

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var w frameWriter
	frame, err := w.encode(&Message{Kind: "x", Round: 1})
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-1] ^= 0xff // break the CRC
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	// The receiver drops the offending connection...
	if err := raw.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read on the bad peer's conn: %v, want io.EOF", err)
	}
	// ...delivers nothing from it...
	if _, err := b.RecvTimeout(50 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("RecvTimeout = %v, want ErrTimeout", err)
	}
	// ...and keeps serving other peers.
	if err := a.Send("b", Message{Kind: "x", Round: 2}); err != nil {
		t.Fatal(err)
	}
	if got, err := b.RecvTimeout(2 * time.Second); err != nil || got.Round != 2 || got.From != "a" {
		t.Fatalf("good peer's message: %+v, %v", got, err)
	}
}

// benchReport is a worker report on the logistic workload's model:
// four vectors of dimension 1970 and the loss scalar.
func benchReport() Message {
	vecs := make([][]float64, 4)
	for i := range vecs {
		vecs[i] = make([]float64, 1970)
		for j := range vecs[i] {
			vecs[i][j] = float64(i*1970+j) / 7
		}
	}
	return Message{Kind: "edge-report", From: "worker-0-1", To: "edge-0", Round: 40,
		Vectors: vecs, Scalars: map[string]float64{"loss": 0.5}}
}

var benchSink Message

// BenchmarkFrameRoundTrip reports the codec alone on one worker report:
// encode into a reused buffer (0 allocs in steady state) and decode, whose
// allocations are the slab, the vector headers, the strings and the map.
func BenchmarkFrameRoundTrip(b *testing.B) {
	m := benchReport()
	var w frameWriter
	frame, err := w.encode(&m)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := w.encode(&m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if benchSink, err = decodeFrame(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTCPRoundTrip reports one worker report sent a→b and echoed
// b→a over loopback TCP endpoints.
func BenchmarkTCPRoundTrip(b *testing.B) {
	tn := NewTCPNetwork()
	defer tn.Close()
	a, err := tn.Listen("a")
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	peer, err := tn.Listen("b")
	if err != nil {
		b.Fatal(err)
	}
	defer peer.Close()
	m := benchReport()
	hop := func(from, to Endpoint) {
		if err := from.Send(to.ID(), m); err != nil {
			b.Fatal(err)
		}
		if benchSink, err = to.RecvTimeout(5 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
	hop(a, peer) // dial both connections before timing
	hop(peer, a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hop(a, peer)
		hop(peer, a)
	}
}
