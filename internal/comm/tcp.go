// TCP transport: the same Transport contract as the in-process world, but
// carried over real sockets. It exists to demonstrate that the collective
// algorithms are wire-ready — nothing in internal/collective or
// internal/strategies knows which fabric it runs on — and to carry every
// payload the trainer and the serving plane move.
//
// Topology: a full mesh. Rank i accepts connections from every lower rank
// and dials every higher rank, so each unordered pair shares exactly one
// TCP connection used in both directions. One reader goroutine per
// connection demultiplexes frames into the shared (sender, tag) mailboxes.
//
// Wire format: every message is one length-prefixed binary frame; the
// sender is implied by the connection. All integers are little-endian.
//
//	kind   u8   payload kind; bit 7 set means a SeqFrame envelope
//	tag    i64  mailbox tag (the dialer's rank in a hello frame)
//	seq    i64  SeqFrame.Seq, present only when bit 7 of kind is set
//	count  u64  element count of the body
//	body        count elements, laid out by kind:
//
//	1 hello     empty; the dialer's first frame
//	2 nil       empty; a nil payload
//	3 float32   []float32 as raw IEEE-754 bits
//	4 int64     []int64
//	5 bytes     []byte
//	6 dense     *tensor.Dense: u8 dimension count, u64 per dimension, then
//	            the count float32 elements as raw bits
//	7 gob       every other registered type: count bytes of one value on
//	            the connection's persistent gob stream, so each type
//	            descriptor is sent once per connection
//	8 gob-restart as gob, after the sender restarted its gob stream because
//	            an encode failed; the reader restarts its decoder first
//
// Raw bits keep NaN payloads, infinities and -0 exact. A body is capped at
// 1 GiB (gob's own message limit), and a prefix alone never allocates more
// than 1 MiB: longer bodies grow as their bytes arrive. A frame that fails
// to decode marks its sender down, exactly like a broken connection.
package comm

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Dial retry schedule for meshes whose processes start at different times:
// up to ~10 seconds of patience.
const (
	dialAttempts = 100
	dialBackoff  = 100 * time.Millisecond
)

// RegisterWireType registers a concrete payload type for the TCP gob
// fallback. []float32, []int64, []byte, *tensor.Dense and nil travel as raw
// binary frames and need no registration; every other type sent through a
// TCP transport must be registered, under the same name, by all processes.
// Internal packages register their own message types.
func RegisterWireType(v any) {
	gob.Register(v)
}

func init() {
	// Fallback payload types the collectives and tests use, and the raw
	// kinds for when one sits inside a fallback value.
	RegisterWireType([]float32{})
	RegisterWireType([][]float32{})
	RegisterWireType([]int64{})
	RegisterWireType([][]int64{})
	RegisterWireType([]byte{})
	RegisterWireType([]int{})
	RegisterWireType(0)
	RegisterWireType(0.0)
	RegisterWireType("")
	RegisterWireType(struct{}{})
	RegisterWireType(SeqFrame{})
}

// TCPWorld is a set of ranks connected all-to-all over loopback TCP. It is
// the single-process harness for the wire transport; the per-rank pieces
// (listener, mesh dialing, framed reader) are exactly what a multi-process
// deployment would run.
type TCPWorld struct {
	size   int
	ranks  []*tcpRank
	closed atomic.Bool
}

type tcpRank struct {
	id   int
	size int
	mail *mailboxSet

	listener net.Listener

	// shutdown distinguishes a local Close (readers stay quiet, receivers
	// get ErrClosed) from a peer dying underneath us (readers mark the peer
	// down, receivers get ErrPeerDown).
	shutdown atomic.Bool
	// left latches the first Leave so a failure cascade's repeat calls
	// cannot clobber the recorded reason or re-close connections.
	left atomic.Bool

	mu    sync.Mutex
	conns []*tcpConn // indexed by peer rank; nil for self
	wg    sync.WaitGroup
}

// tcpConn is one duplex peer connection. Exactly one frame writer and one
// frame reader exist per connection for its whole lifetime — the handshake
// uses the same buffered streams as the frames, because a second reader on
// the same socket would lose bytes buffered by the first.
type tcpConn struct {
	conn  net.Conn
	encMu sync.Mutex
	fw    *frameWriter // guarded by encMu
	fr    *frameReader // the handshake's, then the reader goroutine's
}

// newTCPConn wraps a socket with its lifetime frame writer and reader.
func newTCPConn(conn net.Conn) *tcpConn {
	return &tcpConn{conn: conn, fw: newFrameWriter(conn), fr: newFrameReader(conn)}
}

// NewTCPWorld builds an n-rank world connected over 127.0.0.1 TCP sockets.
func NewTCPWorld(n int) (*TCPWorld, error) {
	if n <= 0 {
		return nil, fmt.Errorf("comm: tcp world size must be positive, got %d", n)
	}
	w := &TCPWorld{size: n, ranks: make([]*tcpRank, n)}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("comm: tcp listen: %w", err)
		}
		w.ranks[i] = &tcpRank{
			id:       i,
			size:     n,
			mail:     newMailboxSet(),
			listener: l,
			conns:    make([]*tcpConn, n),
		}
		addrs[i] = l.Addr().String()
	}

	// Accept from lower ranks (n-1-i connections each) concurrently with
	// dialing higher ranks.
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.ranks[i].connectMesh(addrs)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			w.Close()
			return nil, err
		}
	}
	for _, r := range w.ranks {
		r.startReaders()
	}
	return w, nil
}

// connectMesh dials every higher rank and accepts from every lower rank.
func (r *tcpRank) connectMesh(addrs []string) error {
	type dialRes struct {
		peer int
		conn *tcpConn
		err  error
	}
	dialCh := make(chan dialRes, r.size)
	dials := 0
	for peer := r.id + 1; peer < r.size; peer++ {
		dials++
		go func(peer int) {
			// In multi-process deployments peers start at slightly
			// different times; retry refused connections briefly.
			var conn net.Conn
			var err error
			for attempt := 0; attempt < dialAttempts; attempt++ {
				conn, err = net.Dial("tcp", addrs[peer])
				if err == nil {
					break
				}
				time.Sleep(dialBackoff)
			}
			var tc *tcpConn
			if err == nil {
				tc = newTCPConn(conn)
				err = tc.fw.writeFrame(r.id, hello{})
			}
			dialCh <- dialRes{peer: peer, conn: tc, err: err}
		}(peer)
	}

	accepts := r.id // lower ranks dial us
	for accepts > 0 || dials > 0 {
		if accepts > 0 {
			conn, err := r.listener.Accept()
			if err != nil {
				return fmt.Errorf("comm: rank %d accept: %w", r.id, err)
			}
			tc := newTCPConn(conn)
			from, p, err := tc.fr.readFrame()
			if err != nil {
				return fmt.Errorf("comm: rank %d handshake: %w", r.id, err)
			}
			if _, ok := p.(hello); !ok {
				return fmt.Errorf("comm: rank %d handshake: got %T, want hello", r.id, p)
			}
			if from < 0 || from >= r.id {
				return fmt.Errorf("comm: rank %d got handshake from invalid rank %d", r.id, from)
			}
			r.setConn(from, tc)
			accepts--
			continue
		}
		res := <-dialCh
		if res.err != nil {
			return fmt.Errorf("comm: rank %d dial %d: %w", r.id, res.peer, res.err)
		}
		r.setConn(res.peer, res.conn)
		dials--
	}
	return nil
}

func (r *tcpRank) setConn(peer int, tc *tcpConn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.conns[peer] = tc
}

// startReaders launches one frame-demultiplexing goroutine per peer.
func (r *tcpRank) startReaders() {
	for peer, c := range r.conns {
		if c == nil {
			continue
		}
		r.wg.Add(1)
		go func(peer int, c *tcpConn) {
			defer r.wg.Done()
			for {
				tag, payload, err := c.fr.readFrame()
				if err == nil {
					if _, ok := payload.(hello); ok {
						err = errors.New("comm: hello frame after the handshake")
					}
				}
				if err != nil {
					// Connection closed or broken, or the peer sent bytes
					// that are not a frame. During a local shutdown the
					// mailboxes are about to deliver ErrClosed; a peer
					// failing on its own is a single-link failure the
					// blocked receivers must hear about now, not when the
					// whole world eventually closes. Closing our end tells
					// the peer too.
					c.conn.Close()
					if !r.shutdown.Load() {
						r.mail.markDown(peer, fmt.Errorf("rank %d connection lost: %v", peer, err))
					}
					return
				}
				r.mail.deliver(peer, tag, payload)
			}
		}(peer, c)
	}
}

// Rank implements Transport.
func (r *tcpRank) Rank() int { return r.id }

// Size implements Transport.
func (r *tcpRank) Size() int { return r.size }

// Send implements Transport: frames the payload and writes it to the peer
// connection. Self-sends short-circuit through the local mailbox.
func (r *tcpRank) Send(to, tag int, payload any) error {
	if to < 0 || to >= r.size {
		return fmt.Errorf("%w: send to %d in world of %d", ErrRank, to, r.size)
	}
	if to == r.id {
		if !r.mail.deliver(r.id, tag, payload) {
			return ErrClosed
		}
		return nil
	}
	r.mu.Lock()
	c := r.conns[to]
	r.mu.Unlock()
	if c == nil {
		return ErrClosed
	}
	c.encMu.Lock()
	defer c.encMu.Unlock()
	if err := c.fw.writeFrame(tag, payload); err != nil {
		return fmt.Errorf("comm: rank %d send to %d: %w", r.id, to, err)
	}
	return nil
}

// Recv implements Transport.
func (r *tcpRank) Recv(from, tag int) (any, error) {
	if from < 0 || from >= r.size {
		return nil, fmt.Errorf("%w: recv from %d in world of %d", ErrRank, from, r.size)
	}
	return r.mail.receive(from, tag)
}

// SetRecvTimeout implements TimeoutSetter.
func (r *tcpRank) SetRecvTimeout(d time.Duration) { r.mail.setTimeout(d) }

// Leave implements Leaver: closing this rank's connections makes every
// peer's reader observe the breakage and mark this rank down. Idempotent:
// only the first call closes anything; repeats during a failure cascade are
// no-ops (the peers' recorded reason — their reader's first observation —
// is never rewritten).
func (r *tcpRank) Leave(reason error) {
	if r.left.Swap(true) {
		return
	}
	r.shutdown.Store(true)
	r.mu.Lock()
	for _, c := range r.conns {
		if c != nil {
			c.conn.Close()
		}
	}
	r.mu.Unlock()
}

// Readmit implements Readmitter for this rank's receive side: clears the
// local down marker for `peer`. The TCP connections a Leave or crash closed
// stay closed — readmission restores blocking semantics (ErrTimeout bounds
// them), not connectivity.
func (r *tcpRank) Readmit(peer int) { r.mail.readmit(peer) }

// Size returns the number of ranks.
func (w *TCPWorld) Size() int { return w.size }

// Rank returns the transport endpoint for rank i.
func (w *TCPWorld) Rank(i int) Transport { return w.ranks[i] }

// SetRecvTimeout bounds every rank's blocking receives; zero disables.
func (w *TCPWorld) SetRecvTimeout(d time.Duration) {
	for _, r := range w.ranks {
		if r != nil {
			r.mail.setTimeout(d)
		}
	}
}

// Close shuts down listeners, connections and mailboxes. Blocked receivers
// return ErrClosed.
func (w *TCPWorld) Close() {
	if w.closed.Swap(true) {
		return
	}
	for _, r := range w.ranks {
		if r != nil {
			r.shutdown.Store(true)
		}
	}
	for _, r := range w.ranks {
		if r == nil {
			continue
		}
		if r.listener != nil {
			r.listener.Close()
		}
		r.mu.Lock()
		for _, c := range r.conns {
			if c != nil {
				c.conn.Close()
			}
		}
		r.mu.Unlock()
	}
	for _, r := range w.ranks {
		if r == nil {
			continue
		}
		r.wg.Wait()
		r.mail.closeAll()
	}
}

// RunRanksTCP runs fn concurrently on every rank of a fresh TCP world and
// waits for all to finish — RunRanks over real sockets.
func RunRanksTCP(n int, fn func(t Transport) error) error {
	w, err := NewTCPWorld(n)
	if err != nil {
		return err
	}
	defer w.Close()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(w.Rank(i))
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			return errs[i]
		}
	}
	return nil
}
