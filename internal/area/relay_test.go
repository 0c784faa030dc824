package area

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"mykil/internal/crypt"
	"mykil/internal/race"
	"mykil/internal/wire"
)

// relayTap is a controller transport that delivers nothing and counts
// what it is handed per destination; once every destination has a slot
// it allocates nothing, so allocation counts measure the controller.
type relayTap struct {
	mu   sync.Mutex
	sent map[string]int
	last map[string]*wire.Frame
}

func newRelayTap() *relayTap {
	return &relayTap{sent: make(map[string]int), last: make(map[string]*wire.Frame)}
}

func (r *relayTap) Addr() string             { return "ac-0" }
func (r *relayTap) Recv() <-chan *wire.Frame { return nil }
func (r *relayTap) Done() <-chan struct{}    { return nil }
func (r *relayTap) Close() error             { return nil }
func (r *relayTap) Send(to string, f *wire.Frame) error {
	r.mu.Lock()
	r.sent[to]++
	r.last[to] = f
	r.mu.Unlock()
	return nil
}

func (r *relayTap) count(to string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sent[to]
}

// relayController is an unstarted controller over tap whose area holds
// members m0…m(n-1), each at its own ID as address. Tests drive it by
// calling handleData on their own goroutine, as its loop would.
func relayController(t *testing.T, tap *relayTap, n int) *Controller {
	t.Helper()
	c, err := New(Config{ID: "ac-0", AreaID: "area-0", Transport: tap, Keys: keyPair(t), Suite: "aes-gcm"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("m%d", i)
		c.members[id] = &memberEntry{id: id, addr: id}
	}
	return c
}

// ownAreaData is a packet from origin at from, K_d sealed under areaKey.
func ownAreaData(c *Controller, origin, from string, seq uint64, areaKey crypt.SymKey) *wire.Frame {
	dataKey := crypt.NewSymKey()
	body, _ := wire.PlainBody(wire.Data{
		Origin: origin, OriginArea: c.cfg.AreaID, Seq: seq, FromArea: c.cfg.AreaID,
		Cipher:  wire.CipherOf(c.suite.ID()),
		EncKey:  c.suite.Seal(areaKey, dataKey[:]),
		Payload: c.suite.Seal(dataKey, []byte("payload")),
	})
	return &wire.Frame{Kind: wire.KindData, From: from, Body: body}
}

// TestForgedDataCannotSilenceOrigin: a Data frame anyone can send —
// unsigned, its K_d sealed under no key the controller holds — naming a
// member as origin with the largest sequence number must change nothing:
// not the origin's dedup state (the member's genuine Seq 1 is relayed
// after it) and not a pending batch (no early flush).
func TestForgedDataCannotSilenceOrigin(t *testing.T) {
	tap := newRelayTap()
	c := relayController(t, tap, 2)
	c.updateNeeded = true // a batch is pending; only authentic data flushes it

	c.handleData(ownAreaData(c, "m0", "intruder", ^uint64(0), crypt.NewSymKey()))
	c.dataBarrier()
	if n := tap.count("m1"); n != 0 {
		t.Fatalf("the forged packet was relayed %d times", n)
	}
	flushedByForgery := !c.updateNeeded

	c.handleData(ownAreaData(c, "m0", "m0", 1, c.tree.AreaKey()))
	c.dataBarrier()
	if n := tap.count("m1"); n != 1 {
		t.Fatalf("the origin's genuine Seq 1 after a forged Seq 2^64-1 was relayed %d times, want 1", n)
	}
	if flushedByForgery {
		t.Fatal("the forged packet flushed the pending batch")
	}
	if c.updateNeeded {
		t.Fatal("authentic data did not flush the pending batch")
	}
	var d wire.Data
	if err := wire.DecodePlain(tap.last["m1"].Body, &d); err != nil {
		t.Fatal(err)
	}
	if _, err := c.suite.Open(c.tree.AreaKey(), d.EncKey); err != nil || d.Origin != "m0" || d.Seq != 1 {
		t.Fatalf("relayed %+v, EncKey open: %v", d, err)
	}
	if n := tap.count("m0"); n != 0 {
		t.Fatalf("the packet was relayed back to its sender %d times", n)
	}
}

// TestRelayAllocsIndependentOfAreaSize: relaying one packet — decode,
// authenticate, submit, re-frame, fan out — costs the controller the same
// number of allocations, and within a few bytes the same heap, in a
// 16-member area as in a 256-member one. The destinations are a
// membership snapshot, not a per-packet copy, and the job hands back one
// result, not one entry per receiver.
func TestRelayAllocsIndependentOfAreaSize(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own; the exact-alloc pin runs in the non-race CI step")
	}
	const runs = 200
	perPacket := func(n int) (allocs, bytes float64) {
		tap := newRelayTap()
		c := relayController(t, tap, n)
		areaKey := c.tree.AreaKey()
		frames := make([]*wire.Frame, 2*runs+1)
		for i := range frames {
			frames[i] = ownAreaData(c, "m0", "m0", uint64(i+1), areaKey)
		}
		next := 0
		relay := func() {
			c.handleData(frames[next])
			next++
			c.dataBarrier()
		}
		allocs = testing.AllocsPerRun(runs, relay) // one warm-up, then runs
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			relay()
		}
		runtime.ReadMemStats(&after)
		for i := 1; i < n; i++ {
			if got := tap.count(fmt.Sprintf("m%d", i)); got != len(frames) {
				t.Fatalf("%d members: m%d was sent %d of %d packets", n, i, got, len(frames))
			}
		}
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := perPacket(16)
	largeAllocs, largeBytes := perPacket(256)
	t.Logf("per relayed packet: %.0f allocations, %.0f B at 16 members; %.0f, %.0f B at 256",
		smallAllocs, smallBytes, largeAllocs, largeBytes)
	if smallAllocs != largeAllocs {
		t.Errorf("relaying a packet allocates %.0f times at 16 members but %.0f at 256", smallAllocs, largeAllocs)
	}
	// A per-packet copy of 240 more addresses would be ~3.8 kB.
	if largeBytes > smallBytes+256 {
		t.Errorf("relaying a packet allocates %.0f B at 16 members but %.0f B at 256", smallBytes, largeBytes)
	}
}
