package transport

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"mykil/internal/clock"
	"mykil/internal/race"
	"mykil/internal/simnet"
	"mykil/internal/wire"
)

// keyUpdateSizedFrame is a signed frame the size of a 128-entry leave
// rekey: a ~10 KB body and an RSA-2048 signature.
func keyUpdateSizedFrame(from string) *wire.Frame {
	body := make([]byte, 10<<10)
	for i := range body {
		body[i] = byte(i * 7)
	}
	return &wire.Frame{Kind: wire.KindKeyUpdate, From: from, Body: body, Sig: bytes.Repeat([]byte{0x5A}, 256)}
}

// TestMulticastOneBuffer sends one signed 10 KB frame to 256 Sim
// endpoints, the way area.multicastKeyUpdate loops over its members, and
// pins what that costs: the sender allocates one encoding (not one per
// receiver), and every receiver's Body and Sig are windows onto that one
// array. The network runs on a fake clock with 1 ms links, so the sends
// are measured with nothing delivered yet and the receive side starts
// only when the clock moves.
func TestMulticastOneBuffer(t *testing.T) {
	const receivers = 256
	// perReceiver is the send-side allowance per destination on top of
	// the shared encoding: lane bookkeeping and fake-clock timers.
	const perReceiver = 64

	fake := clock.NewFake(time.Unix(0, 0))
	n := simnet.New(simnet.Config{Virtual: true, Clock: fake, DefaultLatency: time.Millisecond})
	defer n.Close()
	src, err := NewSim(n, "ac")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = src.Close() }()
	dsts := make([]*Sim, receivers)
	for i := range dsts {
		if dsts[i], err = NewSim(n, fmt.Sprintf("m%03d", i)); err != nil {
			t.Fatal(err)
		}
		defer func(s *Sim) { _ = s.Close() }(dsts[i])
	}
	multicast := func(f *wire.Frame) {
		for _, d := range dsts {
			if err := src.Send(d.Addr(), f); err != nil {
				t.Fatalf("Send to %s: %v", d.Addr(), err)
			}
		}
	}
	collect := func() []*wire.Frame {
		fake.Advance(2 * time.Millisecond)
		got := make([]*wire.Frame, receivers)
		for i, d := range dsts {
			got[i] = recvFrame(t, d)
		}
		return got
	}

	// One warm-up round grows the lane's queue and per-link tables.
	multicast(keyUpdateSizedFrame("ac"))
	collect()

	f := keyUpdateSizedFrame("ac")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	multicast(f)
	runtime.ReadMemStats(&after)
	enc, _ := f.Encode()
	sent := after.TotalAlloc - before.TotalAlloc
	t.Logf("send side allocated %d B for %d receivers of a %d B encoding", sent, receivers, len(enc))
	// Not asserted under -race: the instrumented runtime allocates too.
	if limit := uint64(len(enc)*3/2 + receivers*perReceiver); !race.Enabled && sent > limit {
		t.Errorf("send side allocated %d B, want <= %d (1.5 encodings + %d B/receiver)", sent, limit, perReceiver)
	}

	got := collect()
	for i, g := range got {
		if !bytes.Equal(g.Body, f.Body) || !bytes.Equal(g.Sig, f.Sig) || g.From != "ac" || g.Kind != f.Kind {
			t.Fatalf("receiver %d decoded a different frame", i)
		}
		if &g.Body[0] != &got[0].Body[0] || &g.Sig[0] != &got[0].Sig[0] {
			t.Fatalf("receiver %d holds its own copy of the frame; want one shared array", i)
		}
	}
	if off := len(enc) - len(f.Sig) - 2 - len(f.Body); &got[0].Body[0] != &enc[off] {
		t.Error("receivers share an array, but it is not the sender's one encoding")
	}
}
