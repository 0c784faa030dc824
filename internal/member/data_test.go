package member

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"mykil/internal/crypt"
	"mykil/internal/keytree"
	"mykil/internal/obs"
	"mykil/internal/race"
	"mykil/internal/simnet"
	"mykil/internal/transport"
	"mykil/internal/wire"
)

// dataMember is an unstarted member attached to area-x under "ac" with a
// one-key path, driven by calling handleData on the test goroutine.
func dataMember(t *testing.T, suite crypt.Suite, onData func([]byte, string)) (*Member, crypt.SymKey) {
	t.Helper()
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	tr, err := transport.NewSim(n, "mem")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	keys := keyPair(t)
	m, err := New(Config{
		ID: "mem", Transport: tr, Keys: keys, RSAddr: "rs", RSPub: keys.Public(),
		TIdle: time.Minute, TActive: time.Hour, OnData: onData,
	})
	if err != nil {
		t.Fatal(err)
	}
	areaKey := crypt.NewSymKey()
	attachDirect(m, keys.Public(), []keytree.PathKey{{Node: 1, Key: areaKey}}, 1, suite)
	return m, areaKey
}

// dataFrame is one packet from "peer" as the controller relays it.
func dataFrame(suite crypt.Suite, areaKey crypt.SymKey, payload []byte) *wire.Frame {
	dataKey := crypt.NewSymKey()
	return &wire.Frame{Kind: wire.KindData, From: "ac", Body: wire.Data{
		Origin: "peer", OriginArea: "area-x", Seq: 1, FromArea: "area-x",
		Cipher:  wire.CipherOf(suite.ID()),
		EncKey:  suite.Seal(areaKey, dataKey[:]),
		Payload: suite.Seal(dataKey, payload),
	}.Encode()}
}

// TestHandleDataZeroAlloc pins a member's data receive — read the body in
// place, unwrap K_d, open the payload, hand it to OnData — at zero
// allocations per packet in steady state, under every suite.
func TestHandleDataZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector; the exact-alloc pin runs in the non-race CI step")
	}
	payload := bytes.Repeat([]byte("0123456789abcdef"), 64) // 1 KiB
	for _, s := range crypt.Suites() {
		delivered := 0
		m, areaKey := dataMember(t, s, func(p []byte, origin string) {
			if origin == "peer" && bytes.Equal(p, payload) {
				delivered++
			}
		})
		f := dataFrame(s, areaKey, payload)
		m.handleData(f) // warm the key schedules, the scratch pool and the origin name
		allocs := testing.AllocsPerRun(100, func() { m.handleData(f) })
		if allocs != 0 {
			t.Errorf("%s: receiving a 1 KiB data packet allocates %.1f/op, want 0", s.Name(), allocs)
		}
		if delivered != 102 { // the warm-up, AllocsPerRun's own, and its 100
			t.Errorf("%s: OnData saw the payload %d times in 102 packets", s.Name(), delivered)
		}
		if got := m.Stats().Value(obs.MetricDataDropped); got != 0 {
			t.Errorf("%s: %d packets dropped", s.Name(), got)
		}
	}
}

// TestOversizedPlaintextNotPooled: the buffer a plaintext over
// maxPooledPlaintext was opened into is dropped after its callback, not
// kept by the process-wide pool, and the next small packet is still
// delivered intact.
func TestOversizedPlaintextNotPooled(t *testing.T) {
	suite, err := crypt.SuiteByID(crypt.SuiteAESGCM)
	if err != nil {
		t.Fatal(err)
	}
	var lens []int
	m, areaKey := dataMember(t, suite, func(p []byte, _ string) { lens = append(lens, len(p)) })
	big := bytes.Repeat([]byte{7}, 4*maxPooledPlaintext)
	m.handleData(dataFrame(suite, areaKey, big))
	var held []*dataScratch
	for i := 0; i < 8; i++ {
		sc := dataScratchPool.Get().(*dataScratch)
		if cap(sc.plain) > maxPooledPlaintext {
			t.Errorf("the pool kept a %d-byte plaintext buffer (cap %d)", cap(sc.plain), maxPooledPlaintext)
		}
		held = append(held, sc)
	}
	for _, sc := range held {
		dataScratchPool.Put(sc)
	}
	m.handleData(dataFrame(suite, areaKey, []byte("small")))
	if !slices.Equal(lens, []int{len(big), len("small")}) {
		t.Fatalf("OnData saw payload lengths %v", lens)
	}
}

// TestDataFromNonControllerDropped: only the member's own controller
// relays data to it. A Data frame from any other address is dropped before
// it is decoded — no open attempts, no drop count, no PathRequest.
func TestDataFromNonControllerDropped(t *testing.T) {
	suite, err := crypt.SuiteByID(crypt.SuiteLegacy)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	m, areaKey := dataMember(t, suite, func([]byte, string) { delivered++ })
	f := dataFrame(suite, crypt.NewSymKey(), []byte("forged"))
	f.From = "intruder"
	m.handleData(f)
	if delivered != 0 || m.Stats().Value(obs.MetricDataDropped) != 0 || m.pathAskedEpoch != 0 {
		t.Fatalf("a frame from a non-controller was processed: delivered %d, dropped %d, path asked at epoch %d",
			delivered, m.Stats().Value(obs.MetricDataDropped), m.pathAskedEpoch)
	}
	m.handleData(dataFrame(suite, areaKey, []byte("genuine")))
	if delivered != 1 {
		t.Fatalf("the controller's frame was not delivered")
	}
}
