package comm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"

	"embrace/internal/tensor"
)

// Frame codec of the TCP transport; the layout is documented at the top of
// tcp.go.

// Frame kinds. The top bit of the kind byte marks a SeqFrame envelope.
const (
	kindHello byte = iota + 1
	kindNil
	kindFloat32
	kindInt64
	kindBytes
	kindDense
	kindGob
	kindGobRestart

	seqFlag byte = 0x80
)

const (
	// maxFrameBytes caps one frame's body, gob's own message limit.
	maxFrameBytes = 1 << 30
	// maxDenseDims is the most dimensions a binary dense frame carries;
	// higher-rank tensors take the gob fallback.
	maxDenseDims = math.MaxUint8
	// eagerFrameBytes is the largest body decoded straight into a slice of
	// the prefixed length. Longer bodies grow their slice as bytes arrive,
	// so a length prefix alone never allocates more than this.
	eagerFrameBytes = 1 << 20
	// wireBufSize is each connection's bufio reader and writer size.
	wireBufSize = 64 << 10
)

var errFrameTooLarge = errors.New("comm: frame body exceeds limit")

// hello is the decoded form of a kindHello frame; the frame's tag carries
// the dialer's rank.
type hello struct{}

// frameWriter encodes frames onto one connection. Not safe for concurrent
// use; tcpConn serializes writers.
type frameWriter struct {
	w *bufio.Writer
	// genc encodes gob-fallback payloads into gbuf. It persists for the
	// connection's life, so each type descriptor crosses the wire once.
	genc *gob.Encoder
	gbuf bytes.Buffer
	// restart is set after a failed gob encode: the encoder was replaced,
	// and the next gob frame tells the reader to replace its decoder too.
	restart bool
}

func newFrameWriter(w io.Writer) *frameWriter {
	fw := &frameWriter{w: bufio.NewWriterSize(w, wireBufSize)}
	fw.genc = gob.NewEncoder(&fw.gbuf)
	return fw
}

// writeFrame encodes payload under tag and flushes it to the connection.
func (fw *frameWriter) writeFrame(tag int, payload any) error {
	var seq int64
	var flag byte
	if f, ok := payload.(SeqFrame); ok {
		seq, flag, payload = f.Seq, seqFlag, f.Payload
	}
	var err error
	switch v := payload.(type) {
	case nil:
		err = fw.header(kindNil|flag, tag, seq, 0, 0)
	case hello:
		err = fw.header(kindHello|flag, tag, seq, 0, 0)
	case []float32:
		if err = fw.header(kindFloat32|flag, tag, seq, len(v), 4); err == nil {
			err = writeElems(fw.w, v, 4, putFloat32s)
		}
	case []int64:
		if err = fw.header(kindInt64|flag, tag, seq, len(v), 8); err == nil {
			err = writeElems(fw.w, v, 8, putInt64s)
		}
	case []byte:
		if err = fw.header(kindBytes|flag, tag, seq, len(v), 1); err == nil {
			_, err = fw.w.Write(v)
		}
	case *tensor.Dense:
		if v == nil || len(v.Shape()) > maxDenseDims {
			err = fw.writeGob(flag, tag, seq, payload)
			break
		}
		if err = fw.header(kindDense|flag, tag, seq, len(v.Data()), 4); err == nil {
			err = fw.writeDense(v)
		}
	default:
		err = fw.writeGob(flag, tag, seq, payload)
	}
	if err != nil {
		return err
	}
	return fw.w.Flush()
}

// header writes a frame header for count elements of size bytes each.
func (fw *frameWriter) header(kind byte, tag int, seq int64, count, size int) error {
	if count > maxFrameBytes/max(size, 1) {
		return fmt.Errorf("%w: %d elements of %d bytes", errFrameTooLarge, count, size)
	}
	b := binary.LittleEndian.AppendUint64(append(fw.w.AvailableBuffer(), kind), uint64(tag))
	if kind&seqFlag != 0 {
		b = binary.LittleEndian.AppendUint64(b, uint64(seq))
	}
	_, err := fw.w.Write(binary.LittleEndian.AppendUint64(b, uint64(count)))
	return err
}

// writeDense writes a dense body: one dimension-count byte, the dimensions,
// then the elements.
func (fw *frameWriter) writeDense(t *tensor.Dense) error {
	shape := t.Shape()
	b := append(fw.w.AvailableBuffer(), byte(len(shape)))
	for _, d := range shape {
		b = binary.LittleEndian.AppendUint64(b, uint64(d))
	}
	if _, err := fw.w.Write(b); err != nil {
		return err
	}
	return writeElems(fw.w, t.Data(), 4, putFloat32s)
}

// writeGob sends payload in a gob-fallback frame.
func (fw *frameWriter) writeGob(flag byte, tag int, seq int64, payload any) error {
	fw.gbuf.Reset()
	err := fw.genc.Encode(&payload)
	if err == nil && fw.gbuf.Len() > maxFrameBytes {
		err = errFrameTooLarge
	}
	if err != nil {
		// The encoder may have recorded type descriptors the reader never
		// got; restart the gob stream on both ends.
		fw.genc = gob.NewEncoder(&fw.gbuf)
		fw.restart = true
		return fmt.Errorf("comm: encoding %T: %w", payload, err)
	}
	kind := kindGob
	if fw.restart {
		kind, fw.restart = kindGobRestart, false
	}
	if err := fw.header(kind|flag, tag, seq, fw.gbuf.Len(), 1); err != nil {
		return err
	}
	_, err = fw.w.Write(fw.gbuf.Bytes())
	return err
}

// writeElems writes s through w's free buffer space, size bytes per
// element.
func writeElems[T any](w *bufio.Writer, s []T, size int, put func(dst []byte, src []T)) error {
	for len(s) > 0 {
		if w.Available() < size {
			if err := w.Flush(); err != nil {
				return err
			}
		}
		k := min(len(s), w.Available()/size)
		b := w.AvailableBuffer()[:k*size]
		put(b, s[:k])
		if _, err := w.Write(b); err != nil {
			return err
		}
		s = s[k:]
	}
	return nil
}

func putFloat32s(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

func putInt64s(dst []byte, src []int64) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], uint64(v))
	}
}

// frameReader decodes frames from one connection. Only the connection's
// reader goroutine (or, before it starts, the handshake) uses it.
type frameReader struct {
	r   *bufio.Reader
	hdr [8]byte
	// gdec decodes gob-fallback bodies staged in gsrc; like the writer's
	// encoder it lives as long as the connection.
	gdec  *gob.Decoder
	gsrc  bytes.Reader
	stage []byte
}

func newFrameReader(r io.Reader) *frameReader {
	fr := &frameReader{r: bufio.NewReaderSize(r, wireBufSize)}
	fr.gdec = gob.NewDecoder(&fr.gsrc)
	return fr
}

// readFrame decodes the next frame. Every slice it returns is freshly
// allocated at its prefixed length; the caller owns it.
func (fr *frameReader) readFrame() (tag int, payload any, err error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:1]); err != nil {
		return 0, nil, err
	}
	kind := fr.hdr[0]
	u, err := fr.uint64()
	if err != nil {
		return 0, nil, err
	}
	tag = int(int64(u))
	var seq uint64
	if kind&seqFlag != 0 {
		if seq, err = fr.uint64(); err != nil {
			return 0, nil, err
		}
	}
	count, err := fr.uint64()
	if err != nil {
		return 0, nil, err
	}
	if payload, err = fr.readBody(kind&^seqFlag, count); err != nil {
		return 0, nil, err
	}
	if kind&seqFlag != 0 {
		payload = SeqFrame{Seq: int64(seq), Payload: payload}
	}
	return tag, payload, nil
}

func (fr *frameReader) uint64() (uint64, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, unexpectedEOF(err)
	}
	return binary.LittleEndian.Uint64(fr.hdr[:]), nil
}

func (fr *frameReader) readBody(kind byte, count uint64) (any, error) {
	switch kind {
	case kindHello, kindNil:
		if count != 0 {
			return nil, fmt.Errorf("comm: frame kind %d with %d-element body", kind, count)
		}
		if kind == kindHello {
			return hello{}, nil
		}
		return nil, nil
	case kindFloat32:
		return readElems(fr.r, count, 4, getFloat32s)
	case kindInt64:
		return readElems(fr.r, count, 8, getInt64s)
	case kindBytes:
		return readElems(fr.r, count, 1, getBytes)
	case kindDense:
		return fr.readDense(count)
	case kindGob, kindGobRestart:
		return fr.readGob(kind == kindGobRestart, count)
	default:
		return nil, fmt.Errorf("comm: unknown frame kind %d", kind)
	}
}

// readDense decodes a dense body of count elements.
func (fr *frameReader) readDense(count uint64) (*tensor.Dense, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:1]); err != nil {
		return nil, unexpectedEOF(err)
	}
	shape := make([]int, fr.hdr[0])
	elems, zero := uint64(1), false
	for i := range shape {
		d, err := fr.uint64()
		if err != nil {
			return nil, err
		}
		if d > maxFrameBytes {
			return nil, fmt.Errorf("%w: dense dimension %d", errFrameTooLarge, d)
		}
		shape[i] = int(d)
		// Saturate past the cap so the product cannot overflow; a zero
		// dimension still empties the tensor.
		zero = zero || d == 0
		if !zero && elems <= maxFrameBytes {
			elems *= d
		}
	}
	if zero {
		elems = 0
	}
	if elems != count {
		return nil, fmt.Errorf("comm: dense shape %v holds %d elements, frame prefixes %d", shape, elems, count)
	}
	data, err := readElems(fr.r, count, 4, getFloat32s)
	if err != nil {
		return nil, err
	}
	return tensor.FromSlice(data, shape...)
}

// readGob decodes a gob-fallback body through the connection's persistent
// decoder, which a restart frame first replaces.
func (fr *frameReader) readGob(restart bool, count uint64) (any, error) {
	var body []byte
	if count <= eagerFrameBytes {
		if uint64(cap(fr.stage)) < count {
			fr.stage = make([]byte, count)
		}
		body = fr.stage[:count]
		if _, err := io.ReadFull(fr.r, body); err != nil {
			return nil, unexpectedEOF(err)
		}
	} else {
		var err error
		if body, err = readElems(fr.r, count, 1, getBytes); err != nil {
			return nil, err
		}
	}
	fr.gsrc.Reset(body)
	if restart {
		fr.gdec = gob.NewDecoder(&fr.gsrc)
	}
	var v any
	if err := fr.gdec.Decode(&v); err != nil {
		return nil, fmt.Errorf("comm: gob frame: %w", err)
	}
	if fr.gsrc.Len() != 0 {
		return nil, fmt.Errorf("comm: gob frame: %d trailing bytes", fr.gsrc.Len())
	}
	return v, nil
}

// readElems reads count elements of size bytes each. The result has length
// and capacity count; bodies past eagerFrameBytes grow toward it as their
// bytes arrive, so a lying length prefix fails at end of input having
// allocated at most about twice the bytes actually sent.
func readElems[T any](r *bufio.Reader, count uint64, size int, get func(dst []T, src []byte)) ([]T, error) {
	if count > maxFrameBytes/uint64(size) {
		return nil, fmt.Errorf("%w: %d elements of %d bytes", errFrameTooLarge, count, size)
	}
	n := int(count)
	out := make([]T, 0, min(n, eagerFrameBytes/size))
	for len(out) < n {
		b, err := r.Peek(min((n-len(out))*size, r.Size()/size*size))
		if err != nil {
			return nil, unexpectedEOF(err)
		}
		k := len(b) / size
		if len(out)+k > cap(out) {
			grown := make([]T, len(out), min(n, max(2*cap(out), len(out)+k)))
			copy(grown, out)
			out = grown
		}
		get(out[len(out):len(out)+k], b)
		out = out[:len(out)+k]
		if _, err := r.Discard(len(b)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func getFloat32s(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

func getInt64s(dst []int64, src []byte) {
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

func getBytes(dst, src []byte) { copy(dst, src) }

// unexpectedEOF reports a frame cut off mid-way as io.ErrUnexpectedEOF.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
