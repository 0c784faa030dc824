package member

import (
	"bytes"
	"fmt"
	"reflect"
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

// TestMisdeliveredKeyUpdatePartChangesNothing: a member handed a frame
// of a genuine rekey that was not cut and tagged for it — any other
// member's — or its own with a changed entry, or its own entries under a
// zero tag, counts the drop as bad_mac, keeps keys and epoch, and asks
// the controller for nothing (the frame reveals no missed epoch). Its
// own frame, arriving after all that, applies.
func TestMisdeliveredKeyUpdatePartChangesNothing(t *testing.T) {
	n := simnet.New(simnet.Config{})
	defer n.Close()
	ac, err := transport.NewSim(n, "ac")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ac.Close() }()
	tr, err := transport.NewSim(n, "m05")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	tap := &pathRequestTap{Transport: tr}
	keys := keyPair(t)
	m, err := New(Config{
		ID: "m05", Transport: tap, Keys: keys, RSAddr: "rs", RSPub: keys.Public(),
		TIdle: time.Minute, TActive: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	suite, _ := crypt.SuiteByID(crypt.SuiteLegacy)
	tree := keytree.New(keytree.Config{Encryptor: keytree.NewSuiteEncryptor(suite)})
	ids := make([]keytree.MemberID, 64)
	for i := range ids {
		ids[i] = keytree.MemberID(fmt.Sprintf("m%02d", i))
	}
	if err := tree.Preload(ids); err != nil {
		t.Fatal(err)
	}
	base, err := tree.PathKeys("m05")
	if err != nil {
		t.Fatal(err)
	}
	epoch := tree.Epoch()
	attachDirect(m, keys.Public(), base, epoch, suite)
	m.Start()
	defer m.Close()

	// One leaver under each root child: the cut reaches down every branch, and
	// m05 is sent only the entries on its own path.
	res, err := tree.BatchLeave([]keytree.MemberID{"m04", "m20", "m36", "m52"})
	if err != nil {
		t.Fatal(err)
	}
	receivers := []keytree.MemberID{"m05"}
	for _, id := range ids {
		if id != "m05" && tree.HasMember(id) {
			receivers = append(receivers, id)
		}
	}
	var kc keytree.Cut
	tree.Cut(res.Update, receivers, &kc)
	frames := wire.KeyUpdateFrames("ac", "area-x", res.Epoch, &kc)
	send := func(body []byte) {
		t.Helper()
		if err := ac.Send("m05", &wire.Frame{Kind: wire.KindKeyUpdate, From: "ac", Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	drops := func(reason string) int64 { return m.Stats().Snapshot()[obs.MetricKeyUpdateDropped(reason)] }
	waitDrops := func(reason string, want int64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); drops(reason) < want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s drops = %d, want %d", reason, drops(reason), want)
			}
		}
	}

	for i := 1; i < len(frames); i++ {
		send(frames[i].Body) // the frames cut for everyone else
	}
	waitDrops("bad_mac", int64(len(frames)-1))
	own := frames[0].Body
	tampered := bytes.Clone(own)
	tampered[len(tampered)-crypt.MACTagLen-1] ^= 1
	send(tampered)
	waitDrops("bad_mac", int64(len(frames)))
	var ku wire.KeyUpdate
	if err := wire.DecodePlain(own, &ku); err != nil {
		t.Fatal(err)
	}
	ku.Tag = [crypt.MACTagLen]byte{}
	untagged, _ := wire.PlainBody(ku)
	send(untagged)
	waitDrops("bad_mac", int64(len(frames)+1))

	var got keytree.PathKeys
	_ = m.call(func() { got = m.view.PathKeys() })
	if m.Epoch() != epoch || !reflect.DeepEqual(got, keytree.PathKeys(base)) {
		t.Fatalf("misdelivered parts moved the member: epoch %d (was %d)", m.Epoch(), epoch)
	}
	if n := tap.n.Load(); n != 0 {
		t.Fatalf("misdelivered parts made the member send %d PathRequests", n)
	}

	send(own)
	for deadline := time.Now().Add(10 * time.Second); m.Epoch() != res.Epoch; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the member's own part never applied")
		}
	}
	var key crypt.SymKey
	_ = m.call(func() { key = m.view.AreaKey() })
	if !key.Equal(tree.AreaKey()) {
		t.Fatal("own part applied, wrong area key")
	}
	if n := tap.n.Load(); n != 0 {
		t.Fatalf("%d PathRequests sent", n)
	}
}
