package simnet

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mykil/internal/clock"
)

var simEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestShardCountOption(t *testing.T) {
	n := New(Config{Shards: 3})
	defer n.Close()
	if got := n.NumShards(); got != 3 {
		t.Errorf("NumShards = %d, want 3", got)
	}

	v := New(Config{Shards: 6, Virtual: true})
	defer v.Close()
	if got := v.NumShards(); got != 1 {
		t.Errorf("Virtual NumShards = %d, want 1 (single deterministic lane)", got)
	}
}

func TestInboxCapacityOption(t *testing.T) {
	n := New(Config{InboxCapacity: 4})
	defer n.Close()
	a := n.MustEndpoint("a")
	n.MustEndpoint("b") // never reads

	for i := 0; i < 20; i++ {
		if err := a.Send("b", []byte("x")); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for n.Stats().Value(StatDroppedOverflow) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no overflow drops with a 4-slot inbox")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFIFOPerLinkManyLinksSharded stresses the lane engine: many links with
// jitter, concurrent senders, every link individually FIFO.
func TestFIFOPerLinkManyLinksSharded(t *testing.T) {
	n := New(Config{DefaultLatency: time.Millisecond, Jitter: 2 * time.Millisecond, Shards: 4, Seed: 7})
	defer n.Close()

	const links, each = 16, 40
	sink := make([]*Endpoint, links)
	for i := range sink {
		sink[i] = n.MustEndpoint(fmt.Sprintf("dst%d", i))
	}
	var wg sync.WaitGroup
	for i := 0; i < links; i++ {
		src := n.MustEndpoint(fmt.Sprintf("src%d", i))
		wg.Add(1)
		go func(i int, src *Endpoint) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if err := src.Send(fmt.Sprintf("dst%d", i), []byte{byte(j)}); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}(i, src)
	}
	wg.Wait()
	for i := 0; i < links; i++ {
		for j := 0; j < each; j++ {
			env := recv(t, sink[i])
			if env.Payload[0] != byte(j) {
				t.Fatalf("link %d delivery %d carried %d: FIFO violated across shards", i, j, env.Payload[0])
			}
		}
	}
}

// TestPerShardDropCountersSumToGlobal overflows one unread inbox and checks
// the per-shard overflow counters account for every global drop.
func TestPerShardDropCountersSumToGlobal(t *testing.T) {
	n := New(Config{Shards: 4})
	defer n.Close()
	a := n.MustEndpoint("a")
	n.MustEndpoint("b") // never reads

	for i := 0; i < inboxCapacity+50; i++ {
		if err := a.Send("b", []byte("x")); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		global := n.Stats().Value(StatDroppedOverflow)
		var perShard int64
		for i := 0; i < n.NumShards(); i++ {
			perShard += n.Stats().Value(fmt.Sprintf("%s.shard%02d", StatDroppedOverflow, i))
		}
		if global > 0 && perShard == global {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("per-shard overflow drops = %d, global = %d", perShard, global)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestVirtualModeDeliversUnderFakeAdvance pins the mega-sim contract: with
// Virtual and a fake clock, a delayed message sits queued until Advance
// crosses its deadline — no wall-clock waiting anywhere.
func TestVirtualModeDeliversUnderFakeAdvance(t *testing.T) {
	clk := clock.NewFake(simEpoch)
	n := New(Config{DefaultLatency: 50 * time.Millisecond, Clock: clk, Virtual: true})
	defer n.Close()
	a := n.MustEndpoint("a")
	b := n.MustEndpoint("b")

	if err := a.Send("b", []byte("later")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if got := n.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
	due, ok := n.NextDue()
	if !ok || !due.Equal(simEpoch.Add(50*time.Millisecond)) {
		t.Fatalf("NextDue = %v, %v; want %v", due, ok, simEpoch.Add(50*time.Millisecond))
	}
	expectSilence(t, b, 20*time.Millisecond) // real time passes, virtual time does not

	clk.Advance(50 * time.Millisecond)
	if got := string(recv(t, b).Payload); got != "later" {
		t.Errorf("payload = %q", got)
	}
	if got := n.Pending(); got != 0 {
		t.Errorf("Pending = %d after delivery, want 0", got)
	}
}

// advanceInAfter is a fake clock on which time moves forward by the first
// After call's own duration just before that timer is armed — the
// interleaving a clock pump produces when it advances to NextDue while a
// lane sits between reading the clock and arming its wait.
type advanceInAfter struct {
	*clock.Fake
	once sync.Once
}

func (c *advanceInAfter) After(d time.Duration) <-chan time.Time {
	c.once.Do(func() { c.Fake.Advance(d) })
	return c.Fake.After(d)
}

// TestVirtualModeDeliversWhenClockMovesWhileArming: a message whose
// deadline the clock reaches while its lane is arming the wait must still
// be delivered without any further advance. A pump that moves the clock
// only up to NextDue (benchmark/harness.go) otherwise spins on a
// due message for ever.
func TestVirtualModeDeliversWhenClockMovesWhileArming(t *testing.T) {
	clk := &advanceInAfter{Fake: clock.NewFake(simEpoch)}
	n := New(Config{DefaultLatency: time.Millisecond, Clock: clk, Virtual: true})
	defer n.Close()
	a := n.MustEndpoint("a")
	b := n.MustEndpoint("b")
	if err := a.Send("b", []byte("due")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if got := string(recv(t, b).Payload); got != "due" {
		t.Errorf("payload = %q", got)
	}
}

// TestVirtualModeTimestampOrderAcrossLinks pins the deterministic global
// order: messages from different senders interleave strictly by delivery
// timestamp, ties broken by send order.
func TestVirtualModeTimestampOrderAcrossLinks(t *testing.T) {
	clk := clock.NewFake(simEpoch)
	n := New(Config{Clock: clk, Virtual: true})
	defer n.Close()
	a := n.MustEndpoint("a")
	b := n.MustEndpoint("b")
	sink := n.MustEndpoint("sink")

	n.SetLinkLatency("a", "sink", 30*time.Millisecond)
	n.SetLinkLatency("b", "sink", 10*time.Millisecond)

	if err := a.Send("sink", []byte("slow")); err != nil { // sent first, due later
		t.Fatalf("Send: %v", err)
	}
	if err := b.Send("sink", []byte("fast")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	clk.Advance(time.Second)
	if got := string(recv(t, sink).Payload); got != "fast" {
		t.Fatalf("first delivery = %q, want %q (timestamp order)", got, "fast")
	}
	if got := string(recv(t, sink).Payload); got != "slow" {
		t.Fatalf("second delivery = %q, want %q", got, "slow")
	}
}
