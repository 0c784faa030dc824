package member

import (
	"crypto/sha256"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"mykil/internal/crypt"
	"mykil/internal/keytree"
	"mykil/internal/obs"
	"mykil/internal/simnet"
	"mykil/internal/transport"
	"mykil/internal/wire"
)

// attachDirect leaves an unstarted member attached to area-x under the
// controller at "ac", as a welcome would, without the handshake.
func attachDirect(m *Member, acPub crypt.PublicKey, path []keytree.PathKey, epoch uint64, suite crypt.Suite) {
	m.connected, m.areaID, m.acID, m.acAddr, m.acPub = true, "area-x", "ac", "ac", acPub
	m.view, m.suite = keytree.NewMemberView(path, epoch, keytree.NewSuiteEncryptor(suite)), suite
	m.lastACRecv, m.lastSent = m.clk.Now(), m.clk.Now()
}

// TestMembersShareDeliveredBufferReadOnly runs 32 real members, each on
// its own loop goroutine, against one delivery buffer per multicast: a
// rekey whose per-member frames are windows onto one buffer, then one
// data packet per registered suite and two with cipher tags no suite
// owns, each sent as a single *wire.Frame to every member, so every
// handler verifies, decodes and applies out of the same backing array at
// the same time. The members must all follow
// the rekey, decrypt the suites' packets, drop and count the other two,
// and a SHA-256 of each shared encoding must be unchanged afterwards —
// although every OnData overwrites the payload it was lent once it has
// checked it. Under -race the detector additionally flags any handler
// that writes into the buffer its neighbours are reading, or a plaintext
// buffer two receivers were handed at once.
func TestMembersShareDeliveredBufferReadOnly(t *testing.T) {
	const residents = 32
	acKeys := keyPair(t)
	suite, err := crypt.SuiteByID(crypt.SuiteLegacy)
	if err != nil {
		t.Fatal(err)
	}
	enc := keytree.NewSuiteEncryptor(suite)
	tree := keytree.New(keytree.Config{Arity: 4, Encryptor: enc})
	ids := make([]keytree.MemberID, residents)
	for i := range ids {
		ids[i] = keytree.MemberID(fmt.Sprintf("m%02d", i))
	}
	if err := tree.Preload(ids); err != nil {
		t.Fatal(err)
	}

	n := simnet.New(simnet.Config{})
	defer n.Close()
	ac, err := transport.NewSim(n, "ac")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ac.Close() }()

	var delivered atomic.Int64
	members := make([]*Member, residents)
	for i := range members {
		id := string(ids[i])
		tr, err := transport.NewSim(n, id)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(Config{
			ID: id, Transport: tr, Keys: acKeys, RSAddr: "rs", RSPub: acKeys.Public(),
			TIdle: time.Minute, TActive: time.Minute,
			OnData: func(payload []byte, origin string) {
				if string(payload) == "shared payload" && origin == "peer" {
					delivered.Add(1)
				}
				// The payload is borrowed scratch, this member's alone
				// until the callback returns: scribbling on it must reach
				// neither the shared delivery buffer nor any other
				// receiver's plaintext.
				for i := range payload {
					payload[i] = 0xff
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		pk, err := tree.PathKeys(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		attachDirect(m, acKeys.Public(), pk, tree.Epoch(), suite)
		m.Start()
		defer func() { m.Close(); _ = tr.Close() }()
		members[i] = m
	}

	// multicast sends one frame to every member and returns its shared
	// encoding with the digest it had when it was handed to the network.
	multicast := func(kind wire.Kind, body []byte) ([]byte, [sha256.Size]byte) {
		t.Helper()
		f := &wire.Frame{Kind: kind, From: "ac", Body: body}
		shared, _ := f.Encode()
		sum := sha256.Sum256(shared)
		for _, id := range ids {
			if err := ac.Send(string(id), f); err != nil {
				t.Fatalf("send %v to %s: %v", kind, id, err)
			}
		}
		return shared, sum
	}
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	type sharedBuf struct {
		buf []byte
		sum [sha256.Size]byte
	}
	// A freshness rekey every resident must follow: each is sent its own
	// frame, and the frames are windows onto the one buffer the flush
	// encoded them into, which all the members read at once.
	res := tree.RefreshAreaKey()
	var kc keytree.Cut
	tree.Cut(res.Update, ids, &kc)
	frames := wire.KeyUpdateFrames("ac", "area-x", res.Epoch, &kc)
	rekeys := make(map[string]sharedBuf, len(frames))
	for i := range frames {
		enc, _ := frames[i].Encode()
		rekeys[fmt.Sprintf("KeyUpdate/%s", ids[i])] = sharedBuf{enc, sha256.Sum256(enc)}
		if err := ac.Send(string(ids[i]), &frames[i]); err != nil {
			t.Fatalf("send KeyUpdate to %s: %v", ids[i], err)
		}
	}
	waitFor("every member to apply the rekey", func() bool {
		for _, m := range members {
			if m.Epoch() != res.Epoch {
				return false
			}
		}
		return true
	})
	for _, m := range members {
		var key crypt.SymKey
		_ = m.call(func() { key = m.view.AreaKey() })
		if !key.Equal(tree.AreaKey()) {
			t.Fatalf("%s applied the shared rekey but holds the wrong area key", m.cfg.ID)
		}
	}

	// One data packet per registered suite — every Open a member can be
	// asked to run on a borrowed payload — then one tagged with the retired
	// value 2 and one with a tag no suite owns, carrying the plaintext a
	// pass-through would deliver.
	dataKey := crypt.NewSymKey()
	encKey := suite.Seal(tree.AreaKey(), dataKey[:])
	shared := rekeys
	seq := uint64(0)
	data := func(name string, tag wire.DataCipher, payload []byte) {
		seq++
		body, _ := wire.PlainBody(wire.Data{
			Origin: "peer", OriginArea: "area-x", Seq: seq, FromArea: "area-x",
			Cipher: tag, EncKey: encKey, Payload: payload,
		})
		buf, sum := multicast(wire.KindData, body)
		shared["Data/"+name] = sharedBuf{buf, sum}
	}
	for _, s := range crypt.Suites() {
		data(s.Name(), wire.CipherOf(s.ID()), s.Seal(dataKey, []byte("shared payload")))
	}
	data("retired tag 2", 2, []byte("shared payload"))
	data("unregistered tag", 200, []byte("shared payload"))

	dropped := func() (n int64) {
		for _, m := range members {
			n += m.Stats().Value(obs.MetricDataDropped)
		}
		return n
	}
	opened := int64(len(crypt.Suites()) * residents)
	waitFor("every member to open or drop every packet", func() bool {
		return delivered.Load() >= opened && dropped() >= 2*residents
	})
	if got := delivered.Load(); got != opened {
		t.Errorf("%d payloads reached OnData, want %d: a packet with an unknown cipher tag was delivered", got, opened)
	}
	if got := dropped(); got != 2*residents {
		t.Errorf("%s = %d, want %d (two unknown tags per member)", obs.MetricDataDropped, got, 2*residents)
	}
	for name, c := range shared {
		if sha256.Sum256(c.buf) != c.sum {
			t.Errorf("%s: a receiver wrote into the shared delivery buffer", name)
		}
	}
}
