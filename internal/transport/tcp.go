package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"mykil/internal/wire"
)

// maxTCPFrame bounds a single frame on the TCP transport; a peer
// announcing a larger frame is disconnected rather than trusted to
// allocate.
const maxTCPFrame = 16 << 20

// dialTimeout bounds connection establishment to an unresponsive peer.
const dialTimeout = 5 * time.Second

// TCP is a Transport over real TCP connections with length-prefixed
// frames — the paper's prototype transport. Outbound connections are
// established on demand and cached per destination.
type TCP struct {
	ln     net.Listener
	frames chan *wire.Frame
	done   chan struct{}

	// mu guards the maps and closing; it is never held across network
	// I/O, so a peer that stops reading stalls only its own connection.
	mu      sync.Mutex
	conns   map[string]*peerConn
	inbound map[net.Conn]struct{}
	closing bool

	closeOnce sync.Once
	wg        sync.WaitGroup
}

var _ Transport = (*TCP)(nil)

// NewTCP listens on addr ("host:port"; ":0" picks a free port). The
// transport's Addr is the listener's concrete address.
func NewTCP(addr string) (*TCP, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t := &TCP{
		ln:      ln,
		frames:  make(chan *wire.Frame, 256),
		done:    make(chan struct{}),
		conns:   make(map[string]*peerConn),
		inbound: make(map[net.Conn]struct{}),
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		t.acceptLoop()
	}()
	return t, nil
}

func (t *TCP) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closing {
			t.mu.Unlock()
			_ = conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			defer func() {
				t.mu.Lock()
				delete(t.inbound, conn)
				t.mu.Unlock()
			}()
			t.readLoop(conn)
		}()
	}
}

// readLoop decodes frames off one connection until error or shutdown.
func (t *TCP) readLoop(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n == 0 || n > maxTCPFrame {
			return
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(conn, buf); err != nil {
			return
		}
		f, err := wire.DecodeFrame(buf)
		if err != nil {
			continue
		}
		select {
		case t.frames <- f:
		case <-t.done:
			return
		}
	}
}

// Addr implements Transport.
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// peerConn is one cached outbound connection. Its write lock makes a
// frame atomic on the stream — prefix and bytes of one Send never
// interleave with another's — without serializing sends to other peers.
type peerConn struct {
	net.Conn
	wmu sync.Mutex
}

// writeFrame sends the length prefix and the frame's (shared, read-only)
// encoding as one vectored write: no per-destination copy of the bytes.
func (p *peerConn) writeFrame(b []byte) error {
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], uint32(len(b)))
	bufs := net.Buffers{prefix[:], b}
	p.wmu.Lock()
	defer p.wmu.Unlock()
	_, err := bufs.WriteTo(p.Conn)
	return err
}

// Send implements Transport.
func (t *TCP) Send(to string, f *wire.Frame) error {
	select {
	case <-t.done:
		return ErrClosed
	default:
	}
	b, err := f.Encode()
	if err != nil {
		return err
	}
	conn, err := t.conn(to)
	if err != nil {
		return err
	}
	if err := conn.writeFrame(b); err != nil {
		t.mu.Lock()
		if t.conns[to] == conn {
			delete(t.conns, to)
		}
		t.mu.Unlock()
		_ = conn.Close()
		return fmt.Errorf("transport: send to %s: %w", to, err)
	}
	return nil
}

// conn returns a cached connection to the destination, dialing if needed.
func (t *TCP) conn(to string) (*peerConn, error) {
	t.mu.Lock()
	c, ok := t.conns[to]
	t.mu.Unlock()
	if ok {
		return c, nil
	}
	raw, err := net.DialTimeout("tcp", to, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", to, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closing {
		_ = raw.Close()
		return nil, ErrClosed
	}
	if existing, ok := t.conns[to]; ok {
		// Lost the race; keep the first connection.
		_ = raw.Close()
		return existing, nil
	}
	c = &peerConn{Conn: raw}
	t.conns[to] = c
	return c, nil
}

// Recv implements Transport.
func (t *TCP) Recv() <-chan *wire.Frame { return t.frames }

// Done implements Transport.
func (t *TCP) Done() <-chan struct{} { return t.done }

// Close implements Transport.
func (t *TCP) Close() error {
	t.closeOnce.Do(func() {
		close(t.done)
		_ = t.ln.Close()
		t.mu.Lock()
		t.closing = true
		for _, c := range t.conns {
			_ = c.Close()
		}
		t.conns = make(map[string]*peerConn)
		for c := range t.inbound {
			_ = c.Close()
		}
		t.mu.Unlock()
	})
	t.wg.Wait()
	return nil
}
