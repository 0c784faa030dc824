package transport

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"mykil/internal/simnet"
	"mykil/internal/wire"
)

// recvFrame waits up to five seconds for a frame.
func recvFrame(t *testing.T, tr Transport) *wire.Frame {
	t.Helper()
	select {
	case f := <-tr.Recv():
		return f
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: no frame within timeout", tr.Addr())
		return nil
	}
}

// pair constructors shared by the conformance tests below.
type pairFunc func(t *testing.T) (a, b Transport, cleanup func())

func simPair(t *testing.T) (Transport, Transport, func()) {
	t.Helper()
	n := simnet.New(simnet.Config{})
	a, err := NewSim(n, "a")
	if err != nil {
		t.Fatalf("NewSim a: %v", err)
	}
	b, err := NewSim(n, "b")
	if err != nil {
		t.Fatalf("NewSim b: %v", err)
	}
	return a, b, func() {
		_ = a.Close()
		_ = b.Close()
		n.Close()
	}
}

func tcpPair(t *testing.T) (Transport, Transport, func()) {
	t.Helper()
	a, err := NewTCP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCP a: %v", err)
	}
	b, err := NewTCP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCP b: %v", err)
	}
	return a, b, func() {
		_ = a.Close()
		_ = b.Close()
	}
}

func forEachTransport(t *testing.T, test func(t *testing.T, mk pairFunc)) {
	t.Run("sim", func(t *testing.T) { test(t, simPair) })
	t.Run("tcp", func(t *testing.T) { test(t, tcpPair) })
}

func TestSendRecv(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk pairFunc) {
		a, b, cleanup := mk(t)
		defer cleanup()
		want := &wire.Frame{Kind: wire.KindACAlive, From: a.Addr(), Body: []byte("ping")}
		if err := a.Send(b.Addr(), want); err != nil {
			t.Fatalf("Send: %v", err)
		}
		got := recvFrame(t, b)
		if got.Kind != want.Kind || got.From != want.From || !bytes.Equal(got.Body, want.Body) {
			t.Errorf("got %+v, want %+v", got, want)
		}
	})
}

func TestBidirectional(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk pairFunc) {
		a, b, cleanup := mk(t)
		defer cleanup()
		if err := a.Send(b.Addr(), &wire.Frame{Kind: wire.KindData, From: a.Addr(), Body: []byte("to b")}); err != nil {
			t.Fatalf("a->b: %v", err)
		}
		recvFrame(t, b)
		if err := b.Send(a.Addr(), &wire.Frame{Kind: wire.KindData, From: b.Addr(), Body: []byte("to a")}); err != nil {
			t.Fatalf("b->a: %v", err)
		}
		if got := recvFrame(t, a); string(got.Body) != "to a" {
			t.Errorf("a received %q", got.Body)
		}
	})
}

func TestOrderingPreserved(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk pairFunc) {
		a, b, cleanup := mk(t)
		defer cleanup()
		const count = 200
		for i := 0; i < count; i++ {
			f := &wire.Frame{Kind: wire.KindData, From: a.Addr(), Body: []byte{byte(i), byte(i >> 8)}}
			if err := a.Send(b.Addr(), f); err != nil {
				t.Fatalf("Send %d: %v", i, err)
			}
		}
		for i := 0; i < count; i++ {
			got := recvFrame(t, b)
			seq := int(got.Body[0]) | int(got.Body[1])<<8
			if seq != i {
				t.Fatalf("frame %d carried sequence %d", i, seq)
			}
		}
	})
}

func TestLargeFrame(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk pairFunc) {
		a, b, cleanup := mk(t)
		defer cleanup()
		big := bytes.Repeat([]byte{0xA5}, 1<<20)
		if err := a.Send(b.Addr(), &wire.Frame{Kind: wire.KindData, From: a.Addr(), Body: big}); err != nil {
			t.Fatalf("Send: %v", err)
		}
		got := recvFrame(t, b)
		if !bytes.Equal(got.Body, big) {
			t.Error("large frame corrupted")
		}
	})
}

func TestConcurrentSenders(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk pairFunc) {
		a, b, cleanup := mk(t)
		defer cleanup()
		const workers, each = 4, 50
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					f := &wire.Frame{Kind: wire.KindData, From: a.Addr(),
						Body: []byte(fmt.Sprintf("w%d-%d", w, i))}
					if err := a.Send(b.Addr(), f); err != nil {
						t.Errorf("Send: %v", err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		seen := make(map[string]bool)
		for i := 0; i < workers*each; i++ {
			got := recvFrame(t, b)
			key := string(got.Body)
			if seen[key] {
				t.Fatalf("duplicate frame %q", key)
			}
			seen[key] = true
		}
	})
}

func TestCloseIdempotentAndRejectsSend(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk pairFunc) {
		a, b, cleanup := mk(t)
		defer cleanup()
		if err := a.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := a.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		select {
		case <-a.Done():
		default:
			t.Error("Done not closed after Close")
		}
		if err := a.Send(b.Addr(), &wire.Frame{Kind: wire.KindData, From: a.Addr()}); err == nil {
			t.Error("Send after Close succeeded")
		}
	})
}

func TestTCPSendToUnreachable(t *testing.T) {
	a, err := NewTCP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCP: %v", err)
	}
	defer func() { _ = a.Close() }()
	// A port with nothing listening: dial must fail promptly.
	err = a.Send("127.0.0.1:1", &wire.Frame{Kind: wire.KindData, From: a.Addr()})
	if err == nil {
		t.Error("Send to unreachable address succeeded")
	}
}

func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	a, err := NewTCP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCP a: %v", err)
	}
	defer func() { _ = a.Close() }()
	b, err := NewTCP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCP b: %v", err)
	}
	bAddr := b.Addr()
	if err := a.Send(bAddr, &wire.Frame{Kind: wire.KindData, From: a.Addr(), Body: []byte("1")}); err != nil {
		t.Fatalf("Send 1: %v", err)
	}
	recvFrame(t, b)
	_ = b.Close()

	// Restart a listener on the same port.
	b2, err := NewTCP(bAddr)
	if err != nil {
		t.Skipf("port %s not immediately reusable: %v", bAddr, err)
	}
	defer func() { _ = b2.Close() }()

	// Early sends may hit the dead cached connection — TCP can even accept
	// a write locally before the peer's RST arrives — so resend until the
	// new listener actually receives a frame.
	deadline := time.Now().Add(10 * time.Second)
	for {
		// Ignore individual send errors; a failed write evicts the dead
		// cached connection so the next attempt redials.
		_ = a.Send(bAddr, &wire.Frame{Kind: wire.KindData, From: a.Addr(), Body: []byte("2")})
		select {
		case got := <-b2.Recv():
			if string(got.Body) != "2" {
				t.Errorf("got %q after reconnect", got.Body)
			}
			return
		case <-time.After(100 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("no frame reached the restarted peer")
		}
	}
}

// TestTCPBlockedPeerDoesNotStallOthers pins that a peer which stops
// reading blocks only the sends addressed to it: while one Send sits in
// a write the kernel cannot complete, sends to a healthy peer (and the
// connection lookups behind them) proceed, and Close still returns.
func TestTCPBlockedPeerDoesNotStallOthers(t *testing.T) {
	stuck, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = stuck.Close() }()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := stuck.Accept(); err == nil {
			accepted <- c // held open, never read
		}
	}()

	a, b, cleanup := tcpPair(t)
	defer cleanup()

	// Larger than any loopback socket buffer: the write must block.
	huge := &wire.Frame{Kind: wire.KindData, From: a.Addr(), Body: make([]byte, 64<<20)}
	blocked := make(chan error, 1)
	go func() { blocked <- a.Send(stuck.Addr().String(), huge) }()
	var stuckConn net.Conn
	select {
	case stuckConn = <-accepted:
		defer func() { _ = stuckConn.Close() }()
	case <-time.After(5 * time.Second):
		t.Fatal("stuck peer never accepted")
	}

	// Keep the healthy link busy for long enough that the huge write has
	// certainly filled the socket buffers and parked.
	sent := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; sent++ {
		done := make(chan error, 1)
		f := &wire.Frame{Kind: wire.KindData, From: a.Addr(), Body: []byte{byte(sent)}}
		go func() { done <- a.Send(b.Addr(), f) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("send %d to healthy peer: %v", sent, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("send %d to healthy peer stalled behind the blocked one", sent)
		}
		if got := recvFrame(t, b); got.Body[0] != byte(sent) {
			t.Fatalf("healthy peer received frame %d out of order", got.Body[0])
		}
	}
	select {
	case err := <-blocked:
		t.Fatalf("send to the stuck peer returned (%v); it was meant to block", err)
	default:
	}

	closed := make(chan struct{})
	go func() { _ = a.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close stalled behind the blocked send")
	}
	select {
	case err := <-blocked:
		if err == nil {
			t.Error("blocked send reported success after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked send never returned after Close")
	}
}

func TestSimTransportHonorsPartition(t *testing.T) {
	n := simnet.New(simnet.Config{})
	defer n.Close()
	a, err := NewSim(n, "a")
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	b, err := NewSim(n, "b")
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	n.SetPartitions([]string{"a"}, []string{"b"})
	if err := a.Send("b", &wire.Frame{Kind: wire.KindData, From: "a"}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case f := <-b.Recv():
		t.Fatalf("frame crossed partition: %+v", f)
	case <-time.After(50 * time.Millisecond):
	}
}
