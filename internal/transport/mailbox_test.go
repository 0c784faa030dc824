package transport

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"mykil/internal/race"
	"mykil/internal/simnet"
	"mykil/internal/wire"
)

// TestMailboxMemoryIndependentOfCapacity: a mailbox's bound is not a
// preallocation. Attaching Sim endpoints to a network whose mailboxes
// may hold 65,536 envelopes allocates exactly what it does at 32.
func TestMailboxMemoryIndependentOfCapacity(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own; the byte pin runs in the non-race CI step")
	}
	const endpoints = 16
	attach := func(capacity int) uint64 {
		n := simnet.New(simnet.Config{InboxCapacity: capacity, Shards: 1})
		defer n.Close()
		warm, err := NewSim(n, "warm") // first-use growth of the registries
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = warm.Close() }()
		names := make([]string, endpoints)
		for i := range names {
			names[i] = fmt.Sprintf("m%02d", i)
		}
		trs := make([]*Sim, 0, endpoints)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, name := range names {
			tr, err := NewSim(n, name)
			if err != nil {
				t.Fatal(err)
			}
			trs = append(trs, tr)
		}
		runtime.ReadMemStats(&after)
		for _, tr := range trs {
			_ = tr.Close()
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	// The runtime occasionally allocates beside the measured loop (a fresh
	// goroutine descriptor, say), so each side reads its least of five.
	shallow, deep := ^uint64(0), ^uint64(0)
	for i := 0; i < 5; i++ {
		shallow = min(shallow, attach(32))
		deep = min(deep, attach(65536))
	}
	t.Logf("%d endpoints: %d B at InboxCapacity 32, %d B at 65,536", endpoints, shallow, deep)
	if shallow != deep {
		t.Errorf("attaching %d endpoints allocated %d B at InboxCapacity 32 but %d B at 65,536; want equal",
			endpoints, shallow, deep)
	}
}

// TestSimFIFOAcrossLongBurst sends one link a burst four times the Sim's
// frame channel while the receiver is not reading, so most of it waits in
// the mailbox and is taken in batches: every frame arrives, in order, and
// until the node reads, the quiescence probes account for all of them.
func TestSimFIFOAcrossLongBurst(t *testing.T) {
	const burst = 1024
	n := simnet.New(simnet.Config{})
	defer n.Close()
	a, err := NewSim(n, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := NewSim(n, "b")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()

	for i := 0; i < burst; i++ {
		f := &wire.Frame{Kind: wire.KindData, From: "a", Body: []byte{byte(i), byte(i >> 8)}}
		if err := a.Send("b", f); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for n.Pending() != 0 || n.QueuedInboxes()+PendingFrames(n) != burst {
		if time.Now().After(deadline) {
			t.Fatalf("probes read Pending %d, QueuedInboxes %d, PendingFrames %d; want 0 and a sum of %d",
				n.Pending(), n.QueuedInboxes(), PendingFrames(n), burst)
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < burst; i++ {
		got := recvFrame(t, b)
		if seq := int(got.Body[0]) | int(got.Body[1])<<8; seq != i {
			t.Fatalf("frame %d carried sequence %d: per-link FIFO violated", i, seq)
		}
	}
	if q, p := n.QueuedInboxes(), PendingFrames(n); q != 0 || p != 0 {
		t.Errorf("after reading everything QueuedInboxes = %d, PendingFrames = %d; want 0, 0", q, p)
	}
}
