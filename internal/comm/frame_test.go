package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
	"time"

	"embrace/internal/tensor"
)

// wirePayloads derives one payload of every frame kind from data: the raw
// kinds hold data's bits as they are (so NaN payloads, infinities and -0
// appear whenever data spells them), and the gob-fallback kinds hold values
// built from it.
func wirePayloads(data []byte) []any {
	floats := make([]float32, len(data)/4)
	for i := range floats {
		floats[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
	}
	ints := make([]int64, len(data)/8)
	for i := range ints {
		ints[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
	}
	var shape []int
	switch len(floats) {
	case 0:
		shape = []int{0, 3}
	case 1:
		shape = nil // a scalar
	default:
		cols := 1 + int(data[0])%4
		shape = []int{len(floats) / cols, 1, cols}
	}
	n := 1
	for _, d := range shape {
		n *= d
	}
	dense, err := tensor.FromSlice(floats[:n], shape...)
	if err != nil {
		panic(err)
	}
	return []any{
		nil,
		data,
		floats,
		ints,
		dense,
		string(data),
		[][]int64{ints, ints[:len(ints)/2]},
		SeqFrame{Seq: int64(len(data)) - 3, Payload: floats},
		SeqFrame{Seq: 1 << 40, Payload: string(data)},
		SeqFrame{Seq: 0, Payload: nil},
	}
}

// sameWire reports whether got is want bit for bit: same type, same
// length, the same float bits. An empty slice equals a nil one.
func sameWire(got, want any) bool {
	switch w := want.(type) {
	case nil:
		return got == nil
	case []byte:
		g, ok := got.([]byte)
		return ok && bytes.Equal(g, w)
	case []float32:
		g, ok := got.([]float32)
		return ok && sameBits(g, w)
	case []int64:
		g, ok := got.([]int64)
		return ok && fmt.Sprint(g) == fmt.Sprint(w)
	case *tensor.Dense:
		g, ok := got.(*tensor.Dense)
		return ok && fmt.Sprint(g.Shape()) == fmt.Sprint(w.Shape()) && sameBits(g.Data(), w.Data())
	case [][]int64:
		g, ok := got.([][]int64)
		return ok && fmt.Sprint(g) == fmt.Sprint(w)
	case SeqFrame:
		g, ok := got.(SeqFrame)
		return ok && g.Seq == w.Seq && sameWire(g.Payload, w.Payload)
	default:
		return got == want
	}
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// roundTrip writes every payload as a frame on one stream and reads them
// all back, failing on the first one that does not survive bit for bit.
func roundTrip(t *testing.T, tag int, payloads []any) {
	t.Helper()
	var buf bytes.Buffer
	fw := newFrameWriter(&buf)
	for i, p := range payloads {
		if err := fw.writeFrame(tag+i, p); err != nil {
			t.Fatalf("encode %T: %v", p, err)
		}
	}
	fr := newFrameReader(&buf)
	for i, want := range payloads {
		gotTag, got, err := fr.readFrame()
		if err != nil {
			t.Fatalf("decode %T: %v", want, err)
		}
		if gotTag != tag+i || !sameWire(got, want) {
			t.Fatalf("frame %d: got tag %d %T %v, want tag %d %T %v", i, gotTag, got, got, tag+i, want, want)
		}
	}
	if _, _, err := fr.readFrame(); err != io.EOF {
		t.Fatalf("after the last frame: err = %v, want io.EOF", err)
	}
}

func TestFrameRoundTripKinds(t *testing.T) {
	special := []float32{
		float32(math.NaN()), math.Float32frombits(0x7fa00001), math.Float32frombits(0xffc0dead),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1)), 1.5,
	}
	data := make([]byte, 4*len(special))
	for i, v := range special {
		binary.LittleEndian.PutUint32(data[4*i:], math.Float32bits(v))
	}
	roundTrip(t, -7, wirePayloads(data))
	roundTrip(t, math.MaxInt64-20, wirePayloads(nil))
	roundTrip(t, 0, wirePayloads([]byte{1, 2, 3, 4}))
}

// TestFrameLargeBodies crosses the writer's buffer, the reader's peek
// window and the eager-allocation limit, where bodies are read in chunks.
func TestFrameLargeBodies(t *testing.T) {
	floats := make([]float32, eagerFrameBytes/4*3+5)
	for i := range floats {
		floats[i] = math.Float32frombits(uint32(i) * 2654435761)
	}
	dense, err := tensor.FromSlice(floats[:len(floats)-5], 3, eagerFrameBytes/4)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, eagerFrameBytes+wireBufSize+1)
	for i := range big {
		big[i] = byte(i * 7)
	}
	roundTrip(t, 9, []any{floats, dense, big, string(big), make([]int64, wireBufSize/8+1)})

	// A decoded slice is exactly as long as its prefix says.
	var buf bytes.Buffer
	if err := newFrameWriter(&buf).writeFrame(1, floats); err != nil {
		t.Fatal(err)
	}
	_, got, err := newFrameReader(&buf).readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if g := got.([]float32); cap(g) != len(floats) {
		t.Fatalf("decoded cap %d, want %d", cap(g), len(floats))
	}
}

// frameHeader builds a raw frame header.
func frameHeader(kind byte, tag int64, count uint64) []byte {
	b := binary.LittleEndian.AppendUint64([]byte{kind}, uint64(tag))
	return binary.LittleEndian.AppendUint64(b, count)
}

// TestFrameLyingPrefix sends length prefixes far beyond the bytes that
// follow: each must fail with io.ErrUnexpectedEOF or a limit error after
// allocating a bounded amount, never the prefixed size.
func TestFrameLyingPrefix(t *testing.T) {
	denseBody := append([]byte{2}, binary.LittleEndian.AppendUint64(
		binary.LittleEndian.AppendUint64(nil, 1<<14), 1<<14)...)
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"float32", append(frameHeader(kindFloat32, 1, 1<<28-1), 1, 2, 3, 4)},
		{"int64", append(frameHeader(kindInt64, 1, 1<<27-1), 1, 2, 3, 4, 5, 6, 7, 8)},
		{"bytes", append(frameHeader(kindBytes, 1, 1<<30), 1)},
		{"gob", append(frameHeader(kindGob, 1, 1<<30), 1)},
		{"dense", append(frameHeader(kindDense, 1, 1<<28), denseBody...)},
		{"over-limit", frameHeader(kindFloat32, 1, math.MaxUint64)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fr := newFrameReader(bytes.NewReader(tc.frame))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := fr.readFrame()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("lying prefix decoded without error")
			}
			if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, errFrameTooLarge) {
				t.Fatalf("err = %v, want io.ErrUnexpectedEOF or errFrameTooLarge", err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2*eagerFrameBytes {
				t.Fatalf("allocated %d bytes for a %d-byte frame", alloc, len(tc.frame))
			}
		})
	}
}

func TestFrameRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"unknown kind", frameHeader(0x7f, 1, 0)},
		{"zero kind", frameHeader(0, 1, 0)},
		{"nil with body", append(frameHeader(kindNil, 1, 1), 0)},
		{"dense shape mismatch", append(frameHeader(kindDense, 1, 3),
			append([]byte{1}, binary.LittleEndian.AppendUint64(nil, 2)...)...)},
		{"dense huge dimension", append(frameHeader(kindDense, 1, 0),
			append([]byte{1}, binary.LittleEndian.AppendUint64(nil, math.MaxUint64)...)...)},
		{"gob garbage", append(frameHeader(kindGob, 1, 4), 1, 2, 3, 4)},
		{"truncated header", frameHeader(kindFloat32, 1, 0)[:12]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, p, err := newFrameReader(bytes.NewReader(tc.frame)).readFrame(); err == nil {
				t.Fatalf("decoded %T %v, want an error", p, p)
			}
		})
	}
}

// TestFrameGobRestart: a payload gob cannot encode fails its Send, and the
// connection's gob stream restarts on both ends, so later fallback frames
// still decode — whether or not the failed encode had already sent type
// descriptors, and though the restarted encoder sends [][]int64's again.
func TestFrameGobRestart(t *testing.T) {
	type unregistered struct{ X int }
	var buf bytes.Buffer
	fw := newFrameWriter(&buf)
	if err := fw.writeFrame(1, [][]int64{{7}}); err != nil {
		t.Fatal(err)
	}
	// The first fails before gob sends anything; the second after it sent
	// the descriptor of the enclosing SeqFrame.
	for _, p := range []any{unregistered{1}, SeqFrame{Payload: SeqFrame{Payload: unregistered{2}}}} {
		if err := fw.writeFrame(2, p); err == nil {
			t.Fatalf("%v encoded", p)
		}
	}
	after := []any{"after", SeqFrame{Seq: 4, Payload: SeqFrame{Seq: 5, Payload: "nested"}}, [][]int64{{1}}}
	for _, p := range after {
		if err := fw.writeFrame(3, p); err != nil {
			t.Fatal(err)
		}
	}
	fr := newFrameReader(&buf)
	for _, want := range append([]any{[][]int64{{7}}}, after...) {
		_, got, err := fr.readFrame()
		if err != nil || !sameWire(got, want) {
			t.Fatalf("got %v, %v; want %v", got, err, want)
		}
	}
}

// TestTCPHostilePeer writes raw garbage onto rank 0's socket to rank 1. Rank
// 1 must mark rank 0 down — its blocked receiver gets ErrPeerDown — rather
// than panic or hang, and its closing the connection tells rank 0 as well.
func TestTCPHostilePeer(t *testing.T) {
	for _, tc := range []struct {
		name    string
		garbage []byte
		hangUp  bool // the garbage is a cut-off frame; the sender then closes
	}{
		{"unknown kind", []byte("GET / HTTP/1.1\r\n\r\n"), false},
		{"gob garbage", append(frameHeader(kindGob, 5, 4), 0xff, 0xff, 0xff, 0xff), false},
		{"dense shape mismatch", append(frameHeader(kindDense, 5, 9), 0), false},
		{"second hello", frameHeader(kindHello, 0, 0), false},
		{"lying prefix", append(frameHeader(kindFloat32, 5, 1<<27), 1, 2, 3), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := NewTCPWorld(2)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			got := make(chan error, 2)
			for rank, peer := range []int{1, 0} {
				go func() {
					_, err := w.Rank(rank).Recv(peer, 5)
					got <- err
				}()
			}
			c := w.ranks[0].conns[1]
			c.encMu.Lock()
			_, err = c.conn.Write(tc.garbage)
			if tc.hangUp {
				c.conn.Close()
			}
			c.encMu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				select {
				case err := <-got:
					if !errors.Is(err, ErrPeerDown) {
						t.Fatalf("receiver err = %v, want ErrPeerDown", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("receiver still blocked after the peer sent garbage")
				}
			}
		})
	}
}

// FuzzWireFrame feeds arbitrary bytes to the frame decoder and, from the
// same bytes, round-trips a payload of every kind. Decoding never panics,
// an unknown kind is an error, a frame of a raw kind allocates within a
// bound of the bytes actually present whatever its prefix says, and
// encode∘decode is the identity bit for bit.
func FuzzWireFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newFrameReader(bytes.NewReader(data))
		if len(data) > 0 {
			kind := data[0] &^ seqFlag
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := fr.readFrame()
			runtime.ReadMemStats(&after)
			if (kind == 0 || kind > kindGobRestart) && err == nil {
				t.Fatalf("unknown kind %d decoded", kind)
			}
			raw := kind >= kindFloat32 && kind <= kindDense
			if alloc := after.TotalAlloc - before.TotalAlloc; raw && alloc > eagerFrameBytes+4*uint64(len(data))+64<<10 {
				t.Fatalf("kind %d frame of %d bytes allocated %d", kind, len(data), alloc)
			}
			for err == nil {
				_, _, err = fr.readFrame()
			}
		}
		tag := 0
		if len(data) >= 8 {
			tag = int(int64(binary.LittleEndian.Uint64(data)))
		}
		roundTrip(t, tag, wirePayloads(data))
	})
}
