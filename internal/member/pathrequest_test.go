package member

import (
	"sync/atomic"
	"testing"
	"time"

	"mykil/internal/clock"
	"mykil/internal/crypt"
	"mykil/internal/keytree"
	"mykil/internal/obs"
	"mykil/internal/simnet"
	"mykil/internal/transport"
	"mykil/internal/wire"
)

// pathRequestTap counts the PathRequests a member hands to its transport.
type pathRequestTap struct {
	transport.Transport
	n atomic.Int64
}

func (p *pathRequestTap) Send(to string, f *wire.Frame) error {
	if f.Kind == wire.KindPathRequest {
		p.n.Add(1)
	}
	return p.Transport.Send(to, f)
}

// TestOnePathRequestPerMissedRekey: k data packets in flight behind one
// lost KeyUpdate must cost the controller one RSA seal+sign, not k. The
// member asks once for its epoch and again only after TIdle on the
// injected clock brought no PathUpdate.
func TestOnePathRequestPerMissedRekey(t *testing.T) {
	const tIdle = 2 * time.Second
	clk := clock.NewFake(time.Unix(1_000_000, 0))
	n := simnet.New(simnet.Config{})
	defer n.Close()
	ac, err := transport.NewSim(n, "ac")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ac.Close() }()
	tr, err := transport.NewSim(n, "mem")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	tap := &pathRequestTap{Transport: tr}
	keys := keyPair(t)
	m, err := New(Config{
		ID: "mem", Transport: tap, Keys: keys, Clock: clk, RSAddr: "rs", RSPub: keys.Public(),
		TIdle: tIdle, TActive: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	suite, _ := crypt.SuiteByID(crypt.SuiteLegacy)
	attachDirect(m, keys.Public(), []keytree.PathKey{{Node: 1, Key: crypt.NewSymKey()}}, 1, suite)
	m.Start()
	defer m.Close()

	// Data sealed under an area key the member does not hold.
	dataKey := crypt.NewSymKey()
	encKey := suite.Seal(crypt.NewSymKey(), dataKey[:])
	sent := int64(0)
	stale := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			sent++
			body, _ := wire.PlainBody(wire.Data{
				Origin: "peer", OriginArea: "area-x", Seq: uint64(sent), FromArea: "area-x",
				Cipher: wire.CipherAES, EncKey: encKey, Payload: suite.Seal(dataKey, []byte("hi")),
			})
			if err := ac.Send("mem", &wire.Frame{Kind: wire.KindData, From: "ac", Body: body}); err != nil {
				t.Fatal(err)
			}
		}
		for deadline := time.Now().Add(10 * time.Second); m.Stats().Value(obs.MetricDataDropped) < sent; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("member handled %d of %d stale packets", m.Stats().Value(obs.MetricDataDropped), sent)
			}
		}
	}

	stale(100)
	if got := tap.n.Load(); got != 1 {
		t.Fatalf("100 packets behind one missed rekey produced %d PathRequests, want 1", got)
	}
	clk.Advance(tIdle)
	stale(1)
	if got := tap.n.Load(); got != 2 {
		t.Fatalf("no PathUpdate for TIdle, then another stale packet: %d PathRequests, want 2", got)
	}
}
