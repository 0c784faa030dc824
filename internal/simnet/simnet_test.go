package simnet

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// recv waits up to five seconds for one envelope.
func recv(t *testing.T, ep *Endpoint) Envelope {
	t.Helper()
	select {
	case env := <-ep.Inbox():
		return env
	case <-time.After(5 * time.Second):
		t.Fatalf("endpoint %s: no delivery within timeout", ep.Addr())
		return Envelope{}
	}
}

// expectSilence asserts nothing arrives within the window.
func expectSilence(t *testing.T, ep *Endpoint, window time.Duration) {
	t.Helper()
	select {
	case env := <-ep.Inbox():
		t.Fatalf("endpoint %s: unexpected delivery from %s", ep.Addr(), env.From)
	case <-time.After(window):
	}
}

func TestBasicDelivery(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.MustEndpoint("a")
	b := n.MustEndpoint("b")

	if err := a.Send("b", []byte("hello")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	env := recv(t, b)
	if env.From != "a" || env.To != "b" || string(env.Payload) != "hello" {
		t.Errorf("got envelope %+v", env)
	}
}

// TestPayloadShared pins the ownership contract of Send: the network
// takes the slice, and every receiver of a multicast observes the
// sender's backing array itself, not a copy of it.
func TestPayloadShared(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.MustEndpoint("a")
	const receivers = 16
	eps := make([]*Endpoint, receivers)
	for i := range eps {
		eps[i] = n.MustEndpoint(fmt.Sprintf("r%02d", i))
	}

	buf := []byte("one buffer per multicast")
	for _, ep := range eps {
		if err := a.Send(ep.Addr(), buf); err != nil {
			t.Fatalf("Send to %s: %v", ep.Addr(), err)
		}
	}
	for _, ep := range eps {
		got := recv(t, ep).Payload
		if len(got) != len(buf) || &got[0] != &buf[0] {
			t.Errorf("%s received a copy; want the sender's backing array", ep.Addr())
		}
	}
}

func TestFIFOPerLink(t *testing.T) {
	n := New(Config{DefaultLatency: time.Millisecond})
	defer n.Close()
	a := n.MustEndpoint("a")
	b := n.MustEndpoint("b")

	const count = 100
	for i := 0; i < count; i++ {
		if err := a.Send("b", []byte{byte(i)}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	for i := 0; i < count; i++ {
		env := recv(t, b)
		if env.Payload[0] != byte(i) {
			t.Fatalf("delivery %d carried sequence %d: FIFO violated", i, env.Payload[0])
		}
	}
}

func TestUnknownDestination(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.MustEndpoint("a")
	if err := a.Send("ghost", []byte("x")); !errors.Is(err, ErrNodeUnknown) {
		t.Errorf("Send to unknown: err=%v, want ErrNodeUnknown", err)
	}
}

func TestSelfDeliveryRejected(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.MustEndpoint("a")
	if err := a.Send("a", []byte("x")); !errors.Is(err, ErrSelfDelivery) {
		t.Errorf("self send: err=%v, want ErrSelfDelivery", err)
	}
}

func TestDuplicateRegistration(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	n.MustEndpoint("a")
	if _, err := n.Endpoint("a"); !errors.Is(err, ErrNodeExists) {
		t.Errorf("duplicate register: err=%v, want ErrNodeExists", err)
	}
}

func TestPartitionBlocksAndHealRestores(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.MustEndpoint("a")
	b := n.MustEndpoint("b")

	n.SetPartitions([]string{"a"}, []string{"b"})
	if !n.Partitioned("a", "b") {
		t.Fatal("Partitioned(a,b) = false after SetPartitions")
	}
	if err := a.Send("b", []byte("lost")); err != nil {
		t.Fatalf("Send during partition returned error: %v", err)
	}
	expectSilence(t, b, 50*time.Millisecond)
	if got := n.Stats().Value(StatDroppedPartition); got != 1 {
		t.Errorf("dropped.partition = %d, want 1", got)
	}

	n.Heal()
	if n.Partitioned("a", "b") {
		t.Fatal("still partitioned after Heal")
	}
	if err := a.Send("b", []byte("through")); err != nil {
		t.Fatalf("Send after heal: %v", err)
	}
	if got := string(recv(t, b).Payload); got != "through" {
		t.Errorf("post-heal payload = %q", got)
	}
}

func TestPartitionImplicitGroup(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.MustEndpoint("a")
	b := n.MustEndpoint("b")
	n.MustEndpoint("c")

	// Only c is named: a and b share the implicit group.
	n.SetPartitions([]string{"c"})
	if n.Partitioned("a", "b") {
		t.Error("a and b separated despite sharing the implicit group")
	}
	if !n.Partitioned("a", "c") {
		t.Error("a and c not separated")
	}
	if err := a.Send("b", []byte("ok")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	recv(t, b)
}

func TestCrashStopsSendsAndDeliveries(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.MustEndpoint("a")
	b := n.MustEndpoint("b")

	n.Crash("b")
	if !n.Crashed("b") {
		t.Fatal("Crashed(b) = false")
	}
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatalf("Send to crashed node should drop silently, got err=%v", err)
	}
	expectSilence(t, b, 50*time.Millisecond)

	if err := b.Send("a", []byte("x")); !errors.Is(err, ErrNodeCrashed) {
		t.Errorf("send from crashed node: err=%v, want ErrNodeCrashed", err)
	}

	n.Restart("b")
	if n.Crashed("b") {
		t.Fatal("Crashed(b) = true after Restart")
	}
	if err := a.Send("b", []byte("back")); err != nil {
		t.Fatalf("Send after restart: %v", err)
	}
	if got := string(recv(t, b).Payload); got != "back" {
		t.Errorf("post-restart payload = %q", got)
	}
}

func TestDropRate(t *testing.T) {
	n := New(Config{DropRate: 1.0})
	defer n.Close()
	a := n.MustEndpoint("a")
	b := n.MustEndpoint("b")

	for i := 0; i < 10; i++ {
		if err := a.Send("b", []byte("x")); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	expectSilence(t, b, 50*time.Millisecond)
	if got := n.Stats().Value(StatDroppedRate); got != 10 {
		t.Errorf("dropped.rate = %d, want 10", got)
	}

	n.SetDropRate(0)
	if err := a.Send("b", []byte("ok")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	recv(t, b)
}

func TestLatencyDelaysDelivery(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.MustEndpoint("a")
	b := n.MustEndpoint("b")
	n.SetLinkLatency("a", "b", 60*time.Millisecond)

	start := time.Now()
	if err := a.Send("b", []byte("delayed")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	recv(t, b)
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("delivery took %v, want >= ~60ms", elapsed)
	}
}

func TestDefaultLatencyOverride(t *testing.T) {
	n := New(Config{DefaultLatency: 60 * time.Millisecond})
	defer n.Close()
	a := n.MustEndpoint("a")
	b := n.MustEndpoint("b")
	n.SetLinkLatency("a", "b", 0) // override back to instant

	start := time.Now()
	if err := a.Send("b", []byte("fast")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	recv(t, b)
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Errorf("overridden link took %v, want near-instant", elapsed)
	}
}

func TestByteAccounting(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.MustEndpoint("a")
	b := n.MustEndpoint("b")

	payloads := [][]byte{make([]byte, 10), make([]byte, 90)}
	for _, p := range payloads {
		if err := a.Send("b", p); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	recv(t, b)
	recv(t, b)
	if got := n.Stats().Value(StatSentBytes); got != 100 {
		t.Errorf("sent.bytes = %d, want 100", got)
	}
	if got := n.Stats().Value(StatSentMsgs); got != 2 {
		t.Errorf("sent.msgs = %d, want 2", got)
	}
	if got := n.Stats().Value(StatDeliveredMsgs); got != 2 {
		t.Errorf("delivered.msgs = %d, want 2", got)
	}
}

func TestEndpointClose(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.MustEndpoint("a")
	b := n.MustEndpoint("b")

	b.Close()
	select {
	case <-b.Done():
	default:
		t.Fatal("Done not closed after Close")
	}
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatalf("Send to closed endpoint should drop silently: %v", err)
	}
	if err := b.Send("a", []byte("x")); !errors.Is(err, ErrNetClosed) {
		t.Errorf("send from closed endpoint: err=%v, want ErrNetClosed", err)
	}
}

func TestNetworkCloseIdempotentAndRejectsUse(t *testing.T) {
	n := New(Config{})
	a := n.MustEndpoint("a")
	n.MustEndpoint("b")
	n.Close()
	n.Close() // must not panic or hang
	if err := a.Send("b", []byte("x")); err == nil {
		t.Error("Send after network close succeeded")
	}
	if _, err := n.Endpoint("c"); !errors.Is(err, ErrNetClosed) {
		t.Errorf("Endpoint after close: err=%v, want ErrNetClosed", err)
	}
}

func TestConcurrentSenders(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	sink := n.MustEndpoint("sink")

	const senders, each = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		ep := n.MustEndpoint(fmt.Sprintf("s%d", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if err := ep.Send("sink", []byte{byte(j)}); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < senders*each; i++ {
		recv(t, sink)
	}
}

func TestInboxOverflowDrops(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.MustEndpoint("a")
	n.MustEndpoint("b") // never reads

	for i := 0; i < inboxCapacity+10; i++ {
		if err := a.Send("b", []byte("x")); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	// Deliveries are async; wait for the drop counter to move.
	deadline := time.Now().Add(5 * time.Second)
	for n.Stats().Value(StatDroppedOverflow) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no overflow drops recorded")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestJitterStillDeliversInOrder(t *testing.T) {
	n := New(Config{DefaultLatency: time.Millisecond, Jitter: 3 * time.Millisecond, Seed: 9})
	defer n.Close()
	a := n.MustEndpoint("a")
	b := n.MustEndpoint("b")
	const count = 50
	for i := 0; i < count; i++ {
		if err := a.Send("b", []byte{byte(i)}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	// Per-link FIFO must survive jitter: the link goroutine delivers in
	// queue order even when later messages drew smaller jitter.
	for i := 0; i < count; i++ {
		env := recv(t, b)
		if env.Payload[0] != byte(i) {
			t.Fatalf("delivery %d carried %d: jitter broke FIFO", i, env.Payload[0])
		}
	}
}

func TestSeededRunsReproducible(t *testing.T) {
	run := func() int64 {
		n := New(Config{DropRate: 0.5, Seed: 1234})
		defer n.Close()
		a := n.MustEndpoint("a")
		n.MustEndpoint("b")
		for i := 0; i < 200; i++ {
			if err := a.Send("b", []byte{1}); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
		return n.Stats().Value(StatDroppedRate)
	}
	if d1, d2 := run(), run(); d1 != d2 {
		t.Errorf("same seed dropped %d then %d messages", d1, d2)
	}
}

func TestPartitionAsymmetryImpossible(t *testing.T) {
	// Partition groups are symmetric by construction: if a cannot reach b,
	// b cannot reach a.
	n := New(Config{})
	defer n.Close()
	n.MustEndpoint("a")
	n.MustEndpoint("b")
	n.SetPartitions([]string{"a"}, []string{"b"})
	if n.Partitioned("a", "b") != n.Partitioned("b", "a") {
		t.Error("partition check asymmetric")
	}
}
