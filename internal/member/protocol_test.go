package member

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"mykil/internal/clock"
	"mykil/internal/crypt"
	"mykil/internal/keytree"
	"mykil/internal/obs"
	"mykil/internal/simnet"
	"mykil/internal/ticket"
	"mykil/internal/transport"
	"mykil/internal/wire"
)

// protoRig drives a member against hand-scripted registration-server and
// area-controller endpoints, so tests control every server-side byte.
type protoRig struct {
	t   *testing.T
	net *simnet.Network
	m   *Member

	rsKeys  *crypt.KeyPair
	acKeys  *crypt.KeyPair
	memKeys *crypt.KeyPair
	kShared crypt.SymKey

	rs *simReceiver
	ac *simReceiver

	data chan string
}

// simReceiver wraps a transport with typed receive helpers.
type simReceiver struct {
	t  *testing.T
	tr transport.Transport
}

func (s *simReceiver) recv(kind wire.Kind) *wire.Frame {
	s.t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case f := <-s.tr.Recv():
			if f.Kind == kind {
				return f
			}
		case <-deadline:
			s.t.Fatalf("no %v frame within timeout", kind)
			return nil
		}
	}
}

func (s *simReceiver) send(to string, kind wire.Kind, body []byte, sig []byte) {
	s.t.Helper()
	if err := s.tr.Send(to, &wire.Frame{Kind: kind, From: s.tr.Addr(), Body: body, Sig: sig}); err != nil {
		s.t.Fatalf("send %v: %v", kind, err)
	}
}

func newProtoRig(t *testing.T, mut ...func(*Config)) *protoRig {
	t.Helper()
	r := &protoRig{
		t:       t,
		net:     simnet.New(simnet.Config{}),
		rsKeys:  keyPair(t),
		acKeys:  keyPair(t),
		memKeys: keyPair(t),
		kShared: crypt.NewSymKey(),
		data:    make(chan string, 16),
	}
	mk := func(addr string) transport.Transport {
		tr, err := transport.NewSim(r.net, addr)
		if err != nil {
			t.Fatalf("transport %s: %v", addr, err)
		}
		return tr
	}
	rsTr, acTr, memTr := mk("rs"), mk("ac"), mk("mem")
	r.rs = &simReceiver{t: t, tr: rsTr}
	r.ac = &simReceiver{t: t, tr: acTr}

	cfg := Config{
		ID:        "mem",
		Transport: memTr,
		Keys:      r.memKeys,
		RSAddr:    "rs",
		RSPub:     r.rsKeys.Public(),
		AuthInfo:  "valid",
		TIdle:     50 * time.Millisecond,
		TActive:   100 * time.Millisecond,
		OpTimeout: 5 * time.Second,
		OnData: func(payload []byte, origin string) {
			r.data <- origin + ":" + string(payload)
		},
	}
	for _, f := range mut {
		f(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r.m = m
	m.Start()
	t.Cleanup(func() {
		m.Close()
		_ = memTr.Close()
		_ = rsTr.Close()
		_ = acTr.Close()
		r.net.Close()
	})
	return r
}

// seal seals a body to the member's public key.
func (r *protoRig) seal(v wire.Marshaler) []byte {
	r.t.Helper()
	blob, err := wire.SealBody(r.memKeys.Public(), v)
	if err != nil {
		r.t.Fatalf("SealBody: %v", err)
	}
	return blob
}

// serveJoin plays a correct RS+AC through the full protocol while the
// member's Join runs, and returns the path it delivered.
func (r *protoRig) serveJoin() []keytree.PathKey {
	r.t.Helper()
	// Step 1 arrives at the RS.
	f1 := r.rs.recv(wire.KindJoinRequest)
	var req wire.JoinRequest
	if err := wire.OpenBody(r.rsKeys, f1.Body, &req); err != nil {
		r.t.Fatalf("step 1 body: %v", err)
	}
	// Step 2.
	nonceWC := crypt.Nonce()
	r.rs.send("mem", wire.KindJoinChallenge, r.seal(wire.JoinChallenge{
		NonceCWPlus1: req.NonceCW + 1,
		NonceWC:      nonceWC,
	}), nil)
	// Step 3.
	f3 := r.rs.recv(wire.KindJoinResponse)
	var resp wire.JoinResponse
	if err := wire.OpenBody(r.rsKeys, f3.Body, &resp); err != nil {
		r.t.Fatalf("step 3 body: %v", err)
	}
	if resp.NonceWCPlus1 != nonceWC+1 {
		r.t.Fatalf("member answered challenge with %d", resp.NonceWCPlus1)
	}
	// Step 5 (we skip a real step 4: the AC is ours).
	nonceAC := crypt.Nonce()
	grant := r.seal(wire.JoinGrant{
		NonceACPlus1: nonceAC + 1,
		AC:           wire.ACInfo{ID: "ac", Addr: "ac", PubDER: r.acKeys.Public().Marshal()},
		Directory: []wire.ACInfo{
			{ID: "ac", Addr: "ac", PubDER: r.acKeys.Public().Marshal()},
			{ID: "ac2", Addr: "ac2", PubDER: r.acKeys.Public().Marshal()},
		},
	})
	r.rs.send("mem", wire.KindJoinGrant, grant, r.rsKeys.Sign(grant))
	// Step 6 arrives at the AC.
	f6 := r.ac.recv(wire.KindJoinToAC)
	var to wire.JoinToAC
	if err := wire.OpenBody(r.acKeys, f6.Body, &to); err != nil {
		r.t.Fatalf("step 6 body: %v", err)
	}
	if to.NonceACPlus2 != nonceAC+2 {
		r.t.Fatalf("member echoed NonceAC+2 = %d", to.NonceACPlus2)
	}
	// Step 7: a one-node path whose root is the area key.
	path := []keytree.PathKey{{Node: 1, Key: crypt.NewSymKey()}}
	tk := &ticket.Ticket{
		JoinTime: time.Now(), Validity: time.Now().Add(time.Hour),
		ID: "mem", PublicKeyDER: r.memKeys.Public().Marshal(), AreaController: "ac",
	}
	tkBlob, err := tk.Seal(r.kShared)
	if err != nil {
		r.t.Fatal(err)
	}
	r.ac.send("mem", wire.KindJoinWelcome, r.seal(wire.JoinWelcome{
		NonceCAPlus1: to.NonceCA + 1,
		TicketBlob:   tkBlob,
		Path:         path,
		Epoch:        1,
		AreaID:       "area-x",
	}), nil)
	return path
}

// join runs the member's blocking Join against the scripted servers.
func (r *protoRig) join() []keytree.PathKey {
	r.t.Helper()
	done := make(chan error, 1)
	go func() { done <- r.m.Join() }()
	path := r.serveJoin()
	if err := <-done; err != nil {
		r.t.Fatalf("Join: %v", err)
	}
	return path
}

func TestClientRunsFullJoinProtocol(t *testing.T) {
	r := newProtoRig(t)
	r.join()
	if !r.m.Connected() || r.m.AreaID() != "area-x" || r.m.ControllerID() != "ac" {
		t.Errorf("post-join state: connected=%v area=%s ac=%s",
			r.m.Connected(), r.m.AreaID(), r.m.ControllerID())
	}
	if r.m.Epoch() != 1 || r.m.NumKeys() != 1 {
		t.Errorf("epoch=%d keys=%d", r.m.Epoch(), r.m.NumKeys())
	}
	if len(r.m.Directory()) != 2 {
		t.Errorf("directory = %d entries", len(r.m.Directory()))
	}
}

func TestClientRejectsRSImpersonation(t *testing.T) {
	r := newProtoRig(t)
	done := make(chan error, 1)
	go func() { done <- r.m.Join() }()

	f1 := r.rs.recv(wire.KindJoinRequest)
	var req wire.JoinRequest
	if err := wire.OpenBody(r.rsKeys, f1.Body, &req); err != nil {
		t.Fatal(err)
	}
	// Wrong nonce echo: an attacker who never decrypted step 1.
	r.rs.send("mem", wire.KindJoinChallenge, r.seal(wire.JoinChallenge{
		NonceCWPlus1: req.NonceCW + 99,
		NonceWC:      1,
	}), nil)
	if err := <-done; !errors.Is(err, ErrDenied) {
		t.Errorf("Join: err=%v, want ErrDenied", err)
	}
}

func TestClientRejectsUnsignedGrant(t *testing.T) {
	r := newProtoRig(t)
	done := make(chan error, 1)
	go func() { done <- r.m.Join() }()

	f1 := r.rs.recv(wire.KindJoinRequest)
	var req wire.JoinRequest
	if err := wire.OpenBody(r.rsKeys, f1.Body, &req); err != nil {
		t.Fatal(err)
	}
	nonceWC := crypt.Nonce()
	r.rs.send("mem", wire.KindJoinChallenge, r.seal(wire.JoinChallenge{
		NonceCWPlus1: req.NonceCW + 1, NonceWC: nonceWC,
	}), nil)
	r.rs.recv(wire.KindJoinResponse)

	// Grant signed with the wrong key must be ignored; the join times
	// out rather than trusting the forged controller assignment.
	grant := r.seal(wire.JoinGrant{
		NonceACPlus1: 2,
		AC:           wire.ACInfo{ID: "evil", Addr: "ac", PubDER: r.acKeys.Public().Marshal()},
	})
	r.rs.send("mem", wire.KindJoinGrant, grant, r.acKeys.Sign(grant))
	select {
	case f := <-r.ac.tr.Recv():
		t.Fatalf("member proceeded to %v after forged grant", f.Kind)
	case <-time.After(150 * time.Millisecond):
	}
}

func TestClientAppliesTaggedKeyUpdateOnly(t *testing.T) {
	r := newProtoRig(t)
	path := r.join()

	// Build the next epoch's update: root key re-encrypted under the old.
	newKey := crypt.NewSymKey()
	enc := keytree.NewSuiteEncryptor(nil)
	entry := keytree.Entry{
		Node: 1, Under: 1,
		Ciphertext: enc.EncryptKeyTo(nil, path[0].Key, newKey),
	}
	body, _ := wire.PlainBody(wire.KeyUpdate{AreaID: "area-x", Epoch: 2, Entries: []keytree.Entry{entry}})

	// Tagged under a key other than the member's leaf key: dropped, and
	// counted under its reason.
	wire.TagKeyUpdate(body, crypt.NewSymKey())
	r.ac.send("mem", wire.KindKeyUpdate, body, nil)
	dropped := obs.MetricKeyUpdateDropped("bad_mac")
	for deadline := time.Now().Add(5 * time.Second); r.m.Stats().Snapshot()[dropped] != 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the forged key update was never counted in %s", dropped)
		}
	}
	if r.m.Epoch() != 1 {
		t.Fatal("member applied a forged key update")
	}

	// Tagged under its leaf key: applied.
	body = bytes.Clone(body)
	wire.TagKeyUpdate(body, path[0].Key)
	r.ac.send("mem", wire.KindKeyUpdate, body, nil)
	deadline := time.Now().Add(5 * time.Second)
	for r.m.Epoch() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("member never applied the tagged key update")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if r.m.Rekeys() != 1 {
		t.Errorf("rekeys = %d", r.m.Rekeys())
	}
}

func TestClientDecryptsRelayedData(t *testing.T) {
	r := newProtoRig(t)
	path := r.join()

	dataKey := crypt.NewSymKey()
	body, err := wire.PlainBody(wire.Data{
		Origin: "peer", OriginArea: "area-x", Seq: 1, FromArea: "area-x",
		Cipher:  wire.CipherAES,
		EncKey:  crypt.Seal(path[0].Key, dataKey[:]),
		Payload: crypt.Seal(dataKey, []byte("hi")),
	})
	if err != nil {
		t.Fatal(err)
	}
	r.ac.send("mem", wire.KindData, body, nil)
	select {
	case got := <-r.data:
		if got != "peer:hi" {
			t.Errorf("delivered %q", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("data never delivered")
	}
	if r.m.Received() != 1 {
		t.Errorf("Received = %d", r.m.Received())
	}
}

func TestClientIgnoresDataForOtherArea(t *testing.T) {
	r := newProtoRig(t)
	path := r.join()
	dataKey := crypt.NewSymKey()
	body, err := wire.PlainBody(wire.Data{
		Origin: "peer", OriginArea: "area-y", Seq: 1, FromArea: "area-y",
		Cipher:  wire.CipherAES,
		EncKey:  crypt.Seal(path[0].Key, dataKey[:]),
		Payload: crypt.Seal(dataKey, []byte("hi")),
	})
	if err != nil {
		t.Fatal(err)
	}
	r.ac.send("mem", wire.KindData, body, nil)
	select {
	case got := <-r.data:
		t.Fatalf("foreign-area data delivered: %q", got)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestClientRequestsPathOnStaleDataKey(t *testing.T) {
	r := newProtoRig(t)
	r.join()
	// Data sealed under a key the member does not hold: it must ask for
	// its path instead of silently dropping forever.
	dataKey := crypt.NewSymKey()
	body, err := wire.PlainBody(wire.Data{
		Origin: "peer", OriginArea: "area-x", Seq: 1, FromArea: "area-x",
		Cipher:  wire.CipherAES,
		EncKey:  crypt.Seal(crypt.NewSymKey(), dataKey[:]),
		Payload: crypt.Seal(dataKey, []byte("hi")),
	})
	if err != nil {
		t.Fatal(err)
	}
	r.ac.send("mem", wire.KindData, body, nil)
	f := r.ac.recv(wire.KindPathRequest)
	var req wire.PathRequest
	if err := wire.DecodePlain(f.Body, &req); err != nil {
		t.Fatal(err)
	}
	if req.MemberID != "mem" || req.Epoch != 1 {
		t.Errorf("path request = %+v", req)
	}
}

func TestClientSendsMemberAliveWhenQuiet(t *testing.T) {
	r := newProtoRig(t)
	r.join()
	f := r.ac.recv(wire.KindMemberAlive) // within ~TActive
	var alive wire.MemberAlive
	if err := wire.DecodePlain(f.Body, &alive); err != nil {
		t.Fatal(err)
	}
	if alive.MemberID != "mem" {
		t.Errorf("alive from %q", alive.MemberID)
	}
}

// refuseNextSend fails the first frame handed to it once armed, as a
// refused TCP dial would, and reports the kind it refused.
type refuseNextSend struct {
	transport.Transport
	armed   atomic.Bool
	refused chan wire.Kind
}

func (r *refuseNextSend) Send(to string, f *wire.Frame) error {
	if r.armed.CompareAndSwap(true, false) {
		r.refused <- f.Kind
		return errors.New("dial refused")
	}
	return r.Transport.Send(to, f)
}

// TestFailedSendIsNotSpeaking: a MemberAlive the transport refused never
// reached the controller, so it must not restart the §IV-A quiet timer —
// the member tries again on its next housekeeping tick, not a further
// TActive later.
func TestFailedSendIsNotSpeaking(t *testing.T) {
	const tIdle = time.Minute
	fake := clock.NewFake(time.Unix(1_000_000, 0))
	tr := &refuseNextSend{refused: make(chan wire.Kind, 1)}
	r := newProtoRig(t, func(c *Config) {
		tr.Transport = c.Transport
		c.Transport, c.Clock, c.TIdle, c.TActive = tr, fake, tIdle, 2*tIdle
	})
	r.join()

	tr.armed.Store(true)
	fake.Advance(2 * tIdle) // quiet for TActive: the alive is due, and refused
	select {
	case kind := <-tr.refused:
		if kind != wire.KindMemberAlive {
			t.Fatalf("first frame after TActive of quiet is %v, want MemberAlive", kind)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no MemberAlive attempted after TActive of quiet")
	}
	fake.Advance(tIdle) // one housekeeping tick later
	r.ac.recv(wire.KindMemberAlive)
}

func TestClientDetectsEpochAheadAlive(t *testing.T) {
	r := newProtoRig(t)
	r.join()
	body, err := wire.PlainBody(wire.ACAlive{AreaID: "area-x", Epoch: 9})
	if err != nil {
		t.Fatal(err)
	}
	r.ac.send("mem", wire.KindACAlive, body, nil)
	r.ac.recv(wire.KindPathRequest)
}

func TestClientRebasesOnSignedPathUpdate(t *testing.T) {
	r := newProtoRig(t)
	r.join()
	fresh := []keytree.PathKey{
		{Node: 5, Key: crypt.NewSymKey()},
		{Node: 1, Key: crypt.NewSymKey()},
	}
	blob := r.seal(wire.PathUpdate{AreaID: "area-x", Epoch: 7, Path: fresh})
	r.ac.send("mem", wire.KindPathUpdate, blob, r.acKeys.Sign(blob))
	deadline := time.Now().Add(5 * time.Second)
	for r.m.Epoch() != 7 {
		if time.Now().After(deadline) {
			t.Fatal("member never rebased")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if r.m.NumKeys() != 2 {
		t.Errorf("NumKeys = %d, want 2", r.m.NumKeys())
	}
}

func TestClientRejectsUnsignedPathUpdate(t *testing.T) {
	r := newProtoRig(t)
	r.join()
	blob := r.seal(wire.PathUpdate{AreaID: "area-x", Epoch: 7,
		Path: []keytree.PathKey{{Node: 1, Key: crypt.NewSymKey()}}})
	r.ac.send("mem", wire.KindPathUpdate, blob, r.rsKeys.Sign(blob))
	time.Sleep(80 * time.Millisecond)
	if r.m.Epoch() == 7 {
		t.Fatal("member rebased on a forged path update")
	}
}

// TestClientIgnoresReplayedPathUpdate: a genuine PathUpdate — signed and
// sealed by the controller — captured and sent again after the member has
// moved on must not roll its view back to the old keys and epoch. The
// replay is dropped and counted.
func TestClientIgnoresReplayedPathUpdate(t *testing.T) {
	r := newProtoRig(t)
	r.join()
	pathUpdate := func(epoch uint64) ([]byte, crypt.SymKey) {
		root := crypt.NewSymKey()
		blob := r.seal(wire.PathUpdate{AreaID: "area-x", Epoch: epoch,
			Path: []keytree.PathKey{{Node: 5, Key: crypt.NewSymKey()}, {Node: 1, Key: root}}})
		r.ac.send("mem", wire.KindPathUpdate, blob, r.acKeys.Sign(blob))
		return blob, root
	}
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !ok(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	captured, _ := pathUpdate(7)
	waitFor("epoch 7", func() bool { return r.m.Epoch() == 7 })
	_, root := pathUpdate(9)
	waitFor("epoch 9", func() bool { return r.m.Epoch() == 9 })

	r.ac.send("mem", wire.KindPathUpdate, captured, r.acKeys.Sign(captured))
	waitFor("the replay to be counted", func() bool { return r.m.Stats().Snapshot()[obs.MetricPathUpdateStale] == 1 })
	var key crypt.SymKey
	_ = r.m.call(func() { key = r.m.view.AreaKey() })
	if r.m.Epoch() != 9 || !key.Equal(root) {
		t.Fatalf("a replayed PathUpdate rolled the member back to epoch %d", r.m.Epoch())
	}
}

func TestClientDisconnectDetection(t *testing.T) {
	r := newProtoRig(t)
	r.join()
	// The scripted AC goes silent; 5×T_idle (250ms) later the member
	// must declare disconnection.
	deadline := time.Now().Add(10 * time.Second)
	for r.m.Connected() {
		if time.Now().After(deadline) {
			t.Fatal("member never detected controller silence")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
