package area

import (
	"sync"
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
	"mykil/internal/wire/codec"
)

var (
	testPoolOnce sync.Once
	testPool     *crypt.Pool
)

func keyPair(t *testing.T) *crypt.KeyPair {
	t.Helper()
	testPoolOnce.Do(func() {
		testPool = crypt.NewPool(512)
		if err := testPool.Warm(12); err != nil {
			t.Fatalf("warming pool: %v", err)
		}
	})
	kp, err := testPool.Get()
	if err != nil {
		t.Fatalf("key pair: %v", err)
	}
	return kp
}

// rig hosts one controller plus hand-driven RS, client, and peer-AC
// endpoints, so tests can forge arbitrary protocol frames.
type rig struct {
	t       *testing.T
	net     *simnet.Network
	ctrl    *Controller
	kShared crypt.SymKey

	rsKeys   *crypt.KeyPair
	acKeys   *crypt.KeyPair
	peerKeys *crypt.KeyPair
	cliKeys  *crypt.KeyPair

	rs   transport.Transport
	cli  transport.Transport
	peer transport.Transport
}

func newRig(t *testing.T, mutate func(*Config)) *rig {
	t.Helper()
	r := &rig{
		t:        t,
		net:      simnet.New(simnet.Config{}),
		kShared:  crypt.NewSymKey(),
		rsKeys:   keyPair(t),
		acKeys:   keyPair(t),
		peerKeys: keyPair(t),
		cliKeys:  keyPair(t),
	}
	mk := func(addr string) transport.Transport {
		tr, err := transport.NewSim(r.net, addr)
		if err != nil {
			t.Fatalf("transport %s: %v", addr, err)
		}
		return tr
	}
	acTr := mk("ac-0")
	r.rs = mk("rs")
	r.cli = mk("cli")
	r.peer = mk("ac-peer")

	cfg := Config{
		ID:        "ac-0",
		AreaID:    "area-0",
		Transport: acTr,
		Keys:      r.acKeys,
		Clock:     clock.Real{},
		KShared:   r.kShared,
		RSPub:     r.rsKeys.Public(),
		Directory: []wire.ACInfo{
			{ID: "ac-0", Addr: "ac-0", PubDER: r.acKeys.Public().Marshal()},
			{ID: "ac-peer", Addr: "ac-peer", PubDER: r.peerKeys.Public().Marshal()},
		},
		TIdle:         50 * time.Millisecond,
		TActive:       100 * time.Millisecond,
		RekeyInterval: 80 * time.Millisecond,
		VerifyTimeout: 200 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r.ctrl = ctrl
	ctrl.Start()
	t.Cleanup(func() {
		ctrl.Close()
		_ = acTr.Close()
		_ = r.rs.Close()
		_ = r.cli.Close()
		_ = r.peer.Close()
		r.net.Close()
	})
	return r
}

func recvFrame(t *testing.T, tr transport.Transport) *wire.Frame {
	t.Helper()
	select {
	case f := <-tr.Recv():
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("no frame within timeout")
		return nil
	}
}

// recvKind drains frames until one of the wanted kind appears (alive
// messages and rekeys may interleave).
func recvKind(t *testing.T, tr transport.Transport, kind wire.Kind) *wire.Frame {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case f := <-tr.Recv():
			if f.Kind == kind {
				return f
			}
		case <-deadline:
			t.Fatalf("no %v frame within timeout", kind)
			return nil
		}
	}
}

func expectNoKind(t *testing.T, tr transport.Transport, kind wire.Kind, window time.Duration) {
	t.Helper()
	deadline := time.After(window)
	for {
		select {
		case f := <-tr.Recv():
			if f.Kind == kind {
				t.Fatalf("unexpected %v frame", kind)
			}
		case <-deadline:
			return
		}
	}
}

// refer injects a signed step-4 referral for the test client.
func (r *rig) refer(clientID string, nonceAC uint64, ts time.Time) {
	r.t.Helper()
	blob, err := wire.SealBody(r.acKeys.Public(), wire.JoinRefer{
		NonceAC:    nonceAC,
		ClientID:   clientID,
		ClientAddr: "cli",
		Timestamp:  ts,
		ClientPub:  r.cliKeys.Public().Marshal(),
		Duration:   time.Hour,
	})
	if err != nil {
		r.t.Fatalf("SealBody: %v", err)
	}
	f := &wire.Frame{Kind: wire.KindJoinRefer, From: "rs", Body: blob, Sig: r.rsKeys.Sign(blob)}
	if err := r.rs.Send("ac-0", f); err != nil {
		r.t.Fatalf("Send: %v", err)
	}
}

// step6 sends the client's step-6 message.
func (r *rig) step6(clientID string, nonceACPlus2, nonceCA uint64) {
	r.t.Helper()
	blob, err := wire.SealBody(r.acKeys.Public(), wire.JoinToAC{
		ClientID:     clientID,
		ClientAddr:   "cli",
		NonceACPlus2: nonceACPlus2,
		NonceCA:      nonceCA,
	})
	if err != nil {
		r.t.Fatalf("SealBody: %v", err)
	}
	if err := r.cli.Send("ac-0", &wire.Frame{Kind: wire.KindJoinToAC, From: "cli", Body: blob}); err != nil {
		r.t.Fatalf("Send: %v", err)
	}
}

// join admits the test client through steps 4+6/7 and returns the
// welcome.
func (r *rig) join(clientID string) *wire.JoinWelcome {
	return r.joinAt(clientID, time.Now())
}

// joinAt is join with an explicit referral timestamp, for fake-clock rigs
// whose replay window is anchored to the fake now.
func (r *rig) joinAt(clientID string, ts time.Time) *wire.JoinWelcome {
	r.t.Helper()
	nonce := crypt.Nonce()
	r.refer(clientID, nonce, ts)
	r.step6(clientID, nonce+2, 77)
	f := recvKind(r.t, r.cli, wire.KindJoinWelcome)
	var w wire.JoinWelcome
	if err := wire.OpenBody(r.cliKeys, f.Body, &w); err != nil {
		r.t.Fatalf("welcome body: %v", err)
	}
	if w.NonceCAPlus1 != 78 {
		r.t.Fatalf("NonceCA echo = %d", w.NonceCAPlus1)
	}
	return &w
}

func TestJoinAdmitsClient(t *testing.T) {
	r := newRig(t, nil)
	w := r.join("c1")
	if r.ctrl.NumMembers() != 1 || !r.ctrl.HasMember("c1") {
		t.Error("client not admitted")
	}
	if len(w.Path) == 0 || w.AreaID != "area-0" {
		t.Errorf("welcome = %+v", w)
	}
	// The ticket must open under K_shared and carry our controller ID
	// and the RS-granted validity.
	tk, err := ticket.Open(r.kShared, w.TicketBlob)
	if err != nil {
		t.Fatalf("ticket: %v", err)
	}
	if tk.AreaController != "ac-0" || tk.ID != "c1" {
		t.Errorf("ticket = %+v", tk)
	}
	if got := tk.Validity.Sub(tk.JoinTime); got != time.Hour {
		t.Errorf("ticket validity = %v, want 1h", got)
	}
}

func TestJoinReferBadSignatureDropped(t *testing.T) {
	r := newRig(t, nil)
	blob, err := wire.SealBody(r.acKeys.Public(), wire.JoinRefer{
		NonceAC: 1, ClientID: "evil", ClientAddr: "cli",
		Timestamp: time.Now(), ClientPub: r.cliKeys.Public().Marshal(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Signed by the client, not the RS.
	f := &wire.Frame{Kind: wire.KindJoinRefer, From: "rs", Body: blob, Sig: r.cliKeys.Sign(blob)}
	if err := r.rs.Send("ac-0", f); err != nil {
		t.Fatal(err)
	}
	r.step6("evil", 3, 9)
	expectNoKind(t, r.cli, wire.KindJoinWelcome, 100*time.Millisecond)
	if r.ctrl.HasMember("evil") {
		t.Error("forged referral admitted a member")
	}
}

func TestJoinReferReplayRejected(t *testing.T) {
	// §III-B: a referral replayed outside the window must be rejected.
	r := newRig(t, func(c *Config) { c.ReplayWindow = time.Minute })
	nonce := crypt.Nonce()
	r.refer("replayed", nonce, time.Now().Add(-2*time.Minute))
	r.step6("replayed", nonce+2, 9)
	expectNoKind(t, r.cli, wire.KindJoinWelcome, 100*time.Millisecond)
	if r.ctrl.HasMember("replayed") {
		t.Error("replayed referral admitted a member")
	}
}

func TestJoinWrongNonceDenied(t *testing.T) {
	r := newRig(t, nil)
	nonce := crypt.Nonce()
	r.refer("c1", nonce, time.Now())
	r.step6("c1", nonce+3, 9) // wrong: must be nonce+2
	f := recvKind(t, r.cli, wire.KindJoinDenied)
	var d wire.JoinDenied
	if err := wire.OpenBody(r.cliKeys, f.Body, &d); err != nil {
		t.Fatalf("denied body: %v", err)
	}
	if r.ctrl.HasMember("c1") {
		t.Error("client admitted despite failed challenge")
	}
}

func TestStep6BeforeReferralParksAndCompletes(t *testing.T) {
	r := newRig(t, nil)
	nonce := crypt.Nonce()
	r.step6("c1", nonce+2, 9) // step 6 first
	time.Sleep(20 * time.Millisecond)
	r.refer("c1", nonce, time.Now()) // referral second
	recvKind(t, r.cli, wire.KindJoinWelcome)
	if !r.ctrl.HasMember("c1") {
		t.Error("parked step 6 not replayed")
	}
}

// leafKey returns the key of member id's leaf in the controller's tree.
func (r *rig) leafKey(id string) crypt.SymKey {
	r.t.Helper()
	var leaf crypt.SymKey
	if err := r.ctrl.call(func() {
		pk, err := r.ctrl.tree.PathKeys(keytree.MemberID(id))
		if err != nil {
			r.t.Errorf("path of %s: %v", id, err)
			return
		}
		leaf = pk[0].Key
	}); err != nil {
		r.t.Fatal(err)
	}
	return leaf
}

// leave sends member id's leave notice, tagged under its leaf key, from
// tr.
func (r *rig) leave(tr transport.Transport, id string) {
	r.t.Helper()
	body, _ := wire.PlainBody(wire.NewLeaveNotice(id, r.leafKey(id)))
	if err := tr.Send("ac-0", &wire.Frame{Kind: wire.KindLeaveNotice, From: tr.Addr(), Body: body}); err != nil {
		r.t.Fatal(err)
	}
}

// waitGone waits until the controller no longer has member id.
func (r *rig) waitGone(id string) {
	r.t.Helper()
	for deadline := time.Now().Add(5 * time.Second); r.ctrl.HasMember(id); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			r.t.Fatalf("%s was never removed", id)
		}
	}
}

func TestLeaveNoticeRemovesMember(t *testing.T) {
	r := newRig(t, nil)
	r.join("c1")
	r.leave(r.cli, "c1")
	deadline := time.Now().Add(5 * time.Second)
	for r.ctrl.HasMember("c1") {
		if time.Now().After(deadline) {
			t.Fatal("member not removed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestForgedLeaveNoticeEvictsNobody: a leave notice naming c1, sent from
// another endpoint — bare, as an unauthenticated notice would be, or
// tagged under any key but c1's leaf key — evicts nobody, and each tagged
// forgery is counted. A genuine notice for c2, which the same endpoint
// sends after them, is what the controller acts on: by the time c2 is
// gone, the forgeries before it have been handled.
func TestForgedLeaveNoticeEvictsNobody(t *testing.T) {
	r := newRig(t, nil)
	r.join("c1")
	r.join("c2")
	forge := func(body []byte) {
		t.Helper()
		if err := r.peer.Send("ac-0", &wire.Frame{Kind: wire.KindLeaveNotice, From: "ac-peer", Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	forge(codec.AppendString(nil, "c1"))
	for _, key := range []crypt.SymKey{crypt.NewSymKey(), r.leafKey("c2"), {}} {
		body, _ := wire.PlainBody(wire.NewLeaveNotice("c1", key))
		forge(body)
	}
	r.leave(r.peer, "c2")
	r.waitGone("c2")
	if !r.ctrl.HasMember("c1") {
		t.Fatal("a forged leave notice evicted c1")
	}
	if got := r.ctrl.Stats().Value(StatLeaveForged); got != 3 {
		t.Errorf("%s = %d, want the 3 tagged forgeries", StatLeaveForged, got)
	}
	if got := r.ctrl.Stats().Value(StatLeaves); got != 1 {
		t.Errorf("%s = %d, want 1", StatLeaves, got)
	}
}

// rejoinTicket builds a sealed ticket for the test client.
func (r *rig) rejoinTicket(id, issuer string, validFor time.Duration) []byte {
	r.t.Helper()
	now := time.Now()
	tk := &ticket.Ticket{
		JoinTime:       now.Add(-time.Minute),
		Validity:       now.Add(validFor),
		ID:             id,
		PublicKeyDER:   r.cliKeys.Public().Marshal(),
		AreaController: issuer,
	}
	blob, err := tk.Seal(r.kShared)
	if err != nil {
		r.t.Fatalf("Seal: %v", err)
	}
	return blob
}

// rejoinSteps13 drives rejoin steps 1-3 and returns after step 3 is sent.
func (r *rig) rejoinSteps13(id string, tkBlob []byte) {
	r.t.Helper()
	blob, err := wire.SealBody(r.acKeys.Public(), wire.RejoinRequest{
		ClientID: id, ClientAddr: "cli", NonceCB: 41, TicketBlob: tkBlob,
	})
	if err != nil {
		r.t.Fatal(err)
	}
	if err := r.cli.Send("ac-0", &wire.Frame{Kind: wire.KindRejoinRequest, From: "cli", Body: blob}); err != nil {
		r.t.Fatal(err)
	}
	f := recvKind(r.t, r.cli, wire.KindRejoinChallenge)
	var ch wire.RejoinChallenge
	if err := wire.OpenBody(r.cliKeys, f.Body, &ch); err != nil {
		r.t.Fatalf("challenge body: %v", err)
	}
	if ch.NonceCBPlus1 != 42 {
		r.t.Fatalf("NonceCB echo = %d", ch.NonceCBPlus1)
	}
	blob, err = wire.SealBody(r.acKeys.Public(), wire.RejoinResponse{
		ClientID: id, NonceBCPlus1: ch.NonceBC + 1,
	})
	if err != nil {
		r.t.Fatal(err)
	}
	if err := r.cli.Send("ac-0", &wire.Frame{Kind: wire.KindRejoinResponse, From: "cli", Body: blob}); err != nil {
		r.t.Fatal(err)
	}
}

func TestRejoinWithVerification(t *testing.T) {
	r := newRig(t, nil)
	tkBlob := r.rejoinTicket("c1", "ac-peer", time.Hour)
	r.rejoinSteps13("c1", tkBlob)

	// The controller must consult the previous controller (step 4).
	f4 := recvKind(t, r.peer, wire.KindRejoinVerifyReq)
	if err := r.acKeys.Public().Verify(f4.Body, f4.Sig); err != nil {
		t.Fatalf("verify request signature: %v", err)
	}
	var req wire.RejoinVerifyReq
	if err := wire.OpenBody(r.peerKeys, f4.Body, &req); err != nil {
		t.Fatalf("verify request body: %v", err)
	}
	if req.ClientID != "c1" {
		t.Errorf("verify request = %+v", req)
	}

	// Step 5: the previous controller confirms departure.
	blob, err := wire.SealBody(r.acKeys.Public(), wire.RejoinVerifyResp{
		ClientID: "c1", StillMember: false, Timestamp: time.Now(),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &wire.Frame{Kind: wire.KindRejoinVerifyResp, From: "ac-peer", Body: blob, Sig: r.peerKeys.Sign(blob)}
	if err := r.peer.Send("ac-0", f); err != nil {
		t.Fatal(err)
	}

	// Step 6 reaches the client, signed.
	f6 := recvKind(t, r.cli, wire.KindRejoinWelcome)
	if err := r.acKeys.Public().Verify(f6.Body, f6.Sig); err != nil {
		t.Fatalf("welcome signature: %v", err)
	}
	var w wire.RejoinWelcome
	if err := wire.OpenBody(r.cliKeys, f6.Body, &w); err != nil {
		t.Fatalf("welcome body: %v", err)
	}
	// The reissued ticket must be re-homed to this controller.
	tk, err := ticket.Open(r.kShared, w.TicketBlob)
	if err != nil {
		t.Fatalf("reissued ticket: %v", err)
	}
	if tk.AreaController != "ac-0" {
		t.Errorf("reissued ticket controller = %s", tk.AreaController)
	}
	if !r.ctrl.HasMember("c1") {
		t.Error("rejoined client not a member")
	}
}

func TestRejoinToOwnAreaRewelcomes(t *testing.T) {
	// A member that lost touch and rejoins the SAME controller (it was
	// never evicted) must receive a full RejoinWelcome with its current
	// path, not be left hanging.
	r := newRig(t, nil)
	w := r.join("c1")
	tkBlob := w.TicketBlob
	r.rejoinSteps13("c1", tkBlob)
	f := recvKind(t, r.cli, wire.KindRejoinWelcome)
	if err := r.acKeys.Public().Verify(f.Body, f.Sig); err != nil {
		t.Fatalf("welcome signature: %v", err)
	}
	var rw wire.RejoinWelcome
	if err := wire.OpenBody(r.cliKeys, f.Body, &rw); err != nil {
		t.Fatalf("welcome body: %v", err)
	}
	if len(rw.Path) == 0 || rw.AreaID != "area-0" {
		t.Errorf("re-welcome = %+v", rw)
	}
	if r.ctrl.NumMembers() != 1 {
		t.Errorf("NumMembers = %d, want 1 (no double placement)", r.ctrl.NumMembers())
	}
}

func TestRejoinDeniedWhenStillMember(t *testing.T) {
	r := newRig(t, nil)
	tkBlob := r.rejoinTicket("c1", "ac-peer", time.Hour)
	r.rejoinSteps13("c1", tkBlob)
	recvKind(t, r.peer, wire.KindRejoinVerifyReq)
	blob, err := wire.SealBody(r.acKeys.Public(), wire.RejoinVerifyResp{
		ClientID: "c1", StillMember: true, Timestamp: time.Now(),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &wire.Frame{Kind: wire.KindRejoinVerifyResp, From: "ac-peer", Body: blob, Sig: r.peerKeys.Sign(blob)}
	if err := r.peer.Send("ac-0", f); err != nil {
		t.Fatal(err)
	}
	recvKind(t, r.cli, wire.KindRejoinDenied)
	if r.ctrl.HasMember("c1") {
		t.Error("cohort admitted despite StillMember")
	}
}

func TestRejoinVerifyTimeoutDenyPolicy(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Policy = DenyOnPartition
		c.VerifyTimeout = 80 * time.Millisecond
	})
	tkBlob := r.rejoinTicket("c1", "ac-peer", time.Hour)
	r.net.Crash("ac-peer") // previous controller unreachable
	r.rejoinSteps13("c1", tkBlob)
	recvKind(t, r.cli, wire.KindRejoinDenied)
	if r.ctrl.HasMember("c1") {
		t.Error("admitted under deny policy")
	}
}

func TestRejoinVerifyTimeoutAdmitPolicy(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Policy = AdmitOnPartition
		c.VerifyTimeout = 80 * time.Millisecond
	})
	tkBlob := r.rejoinTicket("c1", "ac-peer", time.Hour)
	r.net.Crash("ac-peer")
	r.rejoinSteps13("c1", tkBlob)
	recvKind(t, r.cli, wire.KindRejoinWelcome)
	if !r.ctrl.HasMember("c1") {
		t.Error("not admitted under admit policy")
	}
}

func TestRejoinExpiredTicketDenied(t *testing.T) {
	r := newRig(t, nil)
	tkBlob := r.rejoinTicket("c1", "ac-peer", -time.Minute) // expired
	blob, err := wire.SealBody(r.acKeys.Public(), wire.RejoinRequest{
		ClientID: "c1", ClientAddr: "cli", NonceCB: 41, TicketBlob: tkBlob,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.cli.Send("ac-0", &wire.Frame{Kind: wire.KindRejoinRequest, From: "cli", Body: blob}); err != nil {
		t.Fatal(err)
	}
	recvKind(t, r.cli, wire.KindRejoinDenied)
}

func TestRejoinForgedTicketDropped(t *testing.T) {
	r := newRig(t, nil)
	// Sealed under the wrong K_shared: an outsider's forgery.
	wrong := crypt.NewSymKey()
	tk := &ticket.Ticket{
		JoinTime: time.Now(), Validity: time.Now().Add(time.Hour),
		ID: "c1", PublicKeyDER: r.cliKeys.Public().Marshal(), AreaController: "ac-peer",
	}
	blob, err := tk.Seal(wrong)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := wire.SealBody(r.acKeys.Public(), wire.RejoinRequest{
		ClientID: "c1", ClientAddr: "cli", NonceCB: 41, TicketBlob: blob,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.cli.Send("ac-0", &wire.Frame{Kind: wire.KindRejoinRequest, From: "cli", Body: sealed}); err != nil {
		t.Fatal(err)
	}
	expectNoKind(t, r.cli, wire.KindRejoinChallenge, 100*time.Millisecond)
}

func TestRejoinTicketIdentityMismatchDenied(t *testing.T) {
	r := newRig(t, nil)
	tkBlob := r.rejoinTicket("the-real-holder", "ac-peer", time.Hour)
	blob, err := wire.SealBody(r.acKeys.Public(), wire.RejoinRequest{
		ClientID: "somebody-else", ClientAddr: "cli", NonceCB: 41, TicketBlob: tkBlob,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.cli.Send("ac-0", &wire.Frame{Kind: wire.KindRejoinRequest, From: "cli", Body: blob}); err != nil {
		t.Fatal(err)
	}
	recvKind(t, r.cli, wire.KindRejoinDenied)
}

func TestVerifyReqAnswersStillMember(t *testing.T) {
	r := newRig(t, nil)
	r.join("c1") // c1 is an active member here
	blob, err := wire.SealBody(r.acKeys.Public(), wire.RejoinVerifyReq{
		ClientID: "c1", Timestamp: time.Now(),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &wire.Frame{Kind: wire.KindRejoinVerifyReq, From: "ac-peer", Body: blob, Sig: r.peerKeys.Sign(blob)}
	if err := r.peer.Send("ac-0", f); err != nil {
		t.Fatal(err)
	}
	resp := recvKind(t, r.peer, wire.KindRejoinVerifyResp)
	var vr wire.RejoinVerifyResp
	if err := wire.OpenBody(r.peerKeys, resp.Body, &vr); err != nil {
		t.Fatalf("verify response body: %v", err)
	}
	if !vr.StillMember {
		t.Error("active member reported as departed")
	}
	if len(vr.TicketBlob) == 0 {
		t.Error("stored ticket not returned")
	}
}

func TestVerifyReqReplayRejected(t *testing.T) {
	r := newRig(t, func(c *Config) { c.ReplayWindow = time.Minute })
	blob, err := wire.SealBody(r.acKeys.Public(), wire.RejoinVerifyReq{
		ClientID: "c1", Timestamp: time.Now().Add(-time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &wire.Frame{Kind: wire.KindRejoinVerifyReq, From: "ac-peer", Body: blob, Sig: r.peerKeys.Sign(blob)}
	if err := r.peer.Send("ac-0", f); err != nil {
		t.Fatal(err)
	}
	expectNoKind(t, r.peer, wire.KindRejoinVerifyResp, 100*time.Millisecond)
}

func TestKeyUpdateSignedAndAppliesToMembers(t *testing.T) {
	r := newRig(t, nil)
	w1 := r.join("c1")
	view := keytree.NewMemberView(w1.Path, w1.Epoch, keytree.NewSuiteEncryptor(nil))

	// Second member joins; c1 must receive a rekey it can apply.
	cli2Keys := keyPair(t)
	tr2, err := transport.NewSim(r.net, "cli2")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr2.Close() }()
	nonce := crypt.Nonce()
	blob, err := wire.SealBody(r.acKeys.Public(), wire.JoinRefer{
		NonceAC: nonce, ClientID: "c2", ClientAddr: "cli2",
		Timestamp: time.Now(), ClientPub: cli2Keys.Public().Marshal(),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &wire.Frame{Kind: wire.KindJoinRefer, From: "rs", Body: blob, Sig: r.rsKeys.Sign(blob)}
	if err := r.rs.Send("ac-0", f); err != nil {
		t.Fatal(err)
	}
	blob, err = wire.SealBody(r.acKeys.Public(), wire.JoinToAC{
		ClientID: "c2", ClientAddr: "cli2", NonceACPlus2: nonce + 2, NonceCA: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.Send("ac-0", &wire.Frame{Kind: wire.KindJoinToAC, From: "cli2", Body: blob}); err != nil {
		t.Fatal(err)
	}

	// c1 receives either a KeyUpdate tagged under its leaf key or a
	// signed PathUpdate (displacement), depending on tree shape; with a
	// single prior member at the root it is a displacement.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case f := <-r.cli.Recv():
			switch f.Kind {
			case wire.KindKeyUpdate:
				var key wire.KeyUpdateKey
				if _, err := wire.ReceiveKeyUpdate(f, &key, "area-0", view); err != nil {
					t.Fatalf("key update: %v", err)
				}
				return
			case wire.KindPathUpdate:
				if err := r.acKeys.Public().Verify(f.Body, f.Sig); err != nil {
					t.Fatalf("path update signature: %v", err)
				}
				var pu wire.PathUpdate
				if err := wire.OpenBody(r.cliKeys, f.Body, &pu); err != nil {
					t.Fatal(err)
				}
				view.Rebase(pu.Path, pu.Epoch)
				return
			}
		case <-deadline:
			t.Fatal("no rekey reached the existing member")
		}
	}
}

func TestAliveMulticastOnIdle(t *testing.T) {
	r := newRig(t, func(c *Config) { c.TIdle = 30 * time.Millisecond })
	r.join("c1")
	recvKind(t, r.cli, wire.KindACAlive)
}

func TestPathRequestAnswered(t *testing.T) {
	r := newRig(t, nil)
	w := r.join("c1")
	body, err := wire.PlainBody(wire.PathRequest{MemberID: "c1", Epoch: w.Epoch})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.cli.Send("ac-0", &wire.Frame{Kind: wire.KindPathRequest, From: "cli", Body: body}); err != nil {
		t.Fatal(err)
	}
	f := recvKind(t, r.cli, wire.KindPathUpdate)
	var pu wire.PathUpdate
	if err := wire.OpenBody(r.cliKeys, f.Body, &pu); err != nil {
		t.Fatalf("path update: %v", err)
	}
	if len(pu.Path) == 0 {
		t.Error("empty path")
	}
}

func TestAreaJoinAdmitsChildController(t *testing.T) {
	r := newRig(t, nil)
	blob, err := wire.SealBody(r.acKeys.Public(), wire.AreaJoinReq{
		ACID: "ac-peer", ACAddr: "ac-peer", AreaID: "area-peer", Timestamp: time.Now(),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &wire.Frame{Kind: wire.KindAreaJoinReq, From: "ac-peer", Body: blob, Sig: r.peerKeys.Sign(blob)}
	if err := r.peer.Send("ac-0", f); err != nil {
		t.Fatal(err)
	}
	ack := recvKind(t, r.peer, wire.KindAreaJoinAck)
	if err := r.acKeys.Public().Verify(ack.Body, ack.Sig); err != nil {
		t.Fatalf("ack signature: %v", err)
	}
	var a wire.AreaJoinAck
	if err := wire.OpenBody(r.peerKeys, ack.Body, &a); err != nil {
		t.Fatalf("ack body: %v", err)
	}
	if a.ParentID != "ac-0" || a.ParentAreaID != "area-0" || len(a.Path) == 0 {
		t.Errorf("ack = %+v", a)
	}
	if !r.ctrl.HasMember("ac-peer") {
		t.Error("child controller not a member")
	}
}

func TestAreaJoinUnknownControllerIgnored(t *testing.T) {
	r := newRig(t, nil)
	strangerKeys := keyPair(t)
	tr, err := transport.NewSim(r.net, "stranger")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	blob, err := wire.SealBody(r.acKeys.Public(), wire.AreaJoinReq{
		ACID: "stranger", ACAddr: "stranger", AreaID: "x", Timestamp: time.Now(),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &wire.Frame{Kind: wire.KindAreaJoinReq, From: "stranger", Body: blob, Sig: strangerKeys.Sign(blob)}
	if err := tr.Send("ac-0", f); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if r.ctrl.HasMember("stranger") {
		t.Error("unknown controller adopted")
	}
}

func TestStateExportImportRoundTrip(t *testing.T) {
	r := newRig(t, nil)
	r.join("c1")

	var st *State
	if err := r.ctrl.call(func() { st = r.ctrl.exportState() }); err != nil {
		t.Fatalf("exportState: %v", err)
	}
	blob, err := EncodeState(st)
	if err != nil {
		t.Fatalf("EncodeState: %v", err)
	}
	got, err := DecodeState(blob)
	if err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
	if got.AreaID != "area-0" || len(got.Members) != 1 || got.Members[0].ID != "c1" {
		t.Errorf("state = %+v", got)
	}

	// A controller restored from the state serves the same member set.
	tr, err := transport.NewSim(r.net, "backup")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	restored, err := newFromState(Config{
		ID:        "backup",
		AreaID:    "ignored-overridden",
		Transport: tr,
		Keys:      keyPair(t),
		KShared:   r.kShared,
		RSPub:     r.rsKeys.Public(),
	}, got)
	if err != nil {
		t.Fatalf("newFromState: %v", err)
	}
	restored.Start()
	defer restored.Close()
	if !restored.HasMember("c1") || restored.NumMembers() != 1 {
		t.Error("restored controller lost the member")
	}
	if restored.Epoch() != r.ctrl.Epoch() {
		t.Errorf("restored epoch %d vs %d", restored.Epoch(), r.ctrl.Epoch())
	}
}

func TestBatchingDuplicateLeaveNotices(t *testing.T) {
	// A member's LeaveNotice delivered twice (retry, or racing with
	// eviction) must not poison the pending batch.
	r := newRig(t, func(c *Config) {
		c.Batching = true
		c.RekeyInterval = time.Hour
	})
	nonce := crypt.Nonce()
	r.refer("c1", nonce, time.Now())
	r.step6("c1", nonce+2, 7)
	deadline := time.Now().Add(5 * time.Second)
	for r.ctrl.PendingEvents() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("join never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}
	r.ctrl.FlushBatch()
	recvKind(t, r.cli, wire.KindJoinWelcome)

	for i := 0; i < 3; i++ {
		r.leave(r.cli, "c1")
	}
	deadline = time.Now().Add(5 * time.Second)
	for r.ctrl.PendingEvents() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("PendingEvents = %d, want 1 (duplicates collapsed)", r.ctrl.PendingEvents())
		}
		time.Sleep(5 * time.Millisecond)
	}
	r.ctrl.FlushBatch()
	if r.ctrl.HasMember("c1") {
		t.Error("member still present after flush")
	}
	if r.ctrl.NumMembers() != 0 {
		t.Errorf("NumMembers = %d", r.ctrl.NumMembers())
	}
}

func TestStatsCounters(t *testing.T) {
	r := newRig(t, nil)
	r.join("c1")
	if got := r.ctrl.Stats().Value(StatJoins); got != 1 {
		t.Errorf("joins = %d, want 1", got)
	}
	if got := r.ctrl.Stats().Value(StatRekeys); got != 1 {
		t.Errorf("rekeys = %d, want 1", got)
	}
	r.leave(r.cli, "c1")
	deadline := time.Now().Add(5 * time.Second)
	for r.ctrl.Stats().Value(StatLeaves) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("leaves counter never moved: %s", r.ctrl.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestConfigValidationController(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	// Replicas follow the journal; there is no second protocol for a
	// controller that has none.
	n := simnet.New(simnet.Config{})
	defer n.Close()
	tr, err := transport.NewSim(n, "ac-0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	kp := keyPair(t)
	if _, err := New(Config{ID: "ac-0", AreaID: "area-0", Transport: tr, Keys: kp,
		Replicas: []PeerInfo{{ID: "r0", Addr: "r0", Pub: kp.Public()}}}); err == nil {
		t.Error("replicas without a journal accepted")
	}
}

func TestBatchingDefersAdmission(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Batching = true
		c.RekeyInterval = time.Hour
	})
	nonce := crypt.Nonce()
	r.refer("c1", nonce, time.Now())
	r.step6("c1", nonce+2, 7)
	// No welcome until a flush.
	expectNoKind(t, r.cli, wire.KindJoinWelcome, 100*time.Millisecond)
	if got := r.ctrl.PendingEvents(); got != 1 {
		t.Fatalf("PendingEvents = %d", got)
	}
	r.ctrl.FlushBatch()
	recvKind(t, r.cli, wire.KindJoinWelcome)
	if !r.ctrl.HasMember("c1") {
		t.Error("member missing after flush")
	}
}

// adoptedRig is a controller that ac-peer, played by the test, has
// admitted to its area: the parent's tree, and the controller's view of
// the parent area read through its loop.
type adoptedRig struct {
	*rig
	fake *clock.Fake
	tree *keytree.Tree // the parent area's
}

func newAdoptedRig(t *testing.T) *adoptedRig {
	t.Helper()
	fake := clock.NewFake(fakeEpoch)
	r := newRig(t, func(cfg *Config) {
		pub, err := crypt.ParsePublicKey(cfg.Directory[1].PubDER)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Parent = &PeerInfo{ID: "ac-peer", Addr: "ac-peer", Pub: pub}
		cfg.Clock = fake
		cfg.TIdle, cfg.TActive = time.Minute, time.Minute
	})
	recvKind(t, r.peer, wire.KindAreaJoinReq)

	a := &adoptedRig{rig: r, fake: fake, tree: keytree.New(keytree.Config{})}
	if _, err := a.tree.Join("resident"); err != nil {
		t.Fatal(err)
	}
	admitted, err := a.tree.Join("ac-0")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := wire.SealBody(r.acKeys.Public(), wire.AreaJoinAck{
		ParentID: "ac-peer", ParentAreaID: "area-peer",
		Path: admitted.Joined["ac-0"], Epoch: admitted.Epoch, Timestamp: time.Now(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ack := &wire.Frame{Kind: wire.KindAreaJoinAck, From: "ac-peer", Body: blob, Sig: r.peerKeys.Sign(blob)}
	if err := r.peer.Send("ac-0", ack); err != nil {
		t.Fatal(err)
	}
	a.waitEpoch(t, admitted.Epoch)
	return a
}

// parentView returns the controller's epoch and area key in its parent's
// area.
func (a *adoptedRig) parentView(t *testing.T) (e uint64, key crypt.SymKey) {
	if err := a.ctrl.call(func() {
		if a.ctrl.parent != nil {
			e, key = a.ctrl.parent.view.Epoch(), a.ctrl.parent.view.AreaKey()
		}
	}); err != nil {
		t.Fatal(err)
	}
	return e, key
}

func (a *adoptedRig) waitEpoch(t *testing.T, want uint64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		e, _ := a.parentView(t)
		if e == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("parent view at epoch %d, want %d", e, want)
		}
	}
}

// TestParentKeyUpdateReceive drives the controller's member side of its
// parent's area: a rekey naming another area is dropped, a genuine one
// applies, its re-delivery is ignored without asking the parent for
// anything, and a missed epoch triggers path recovery — one PathRequest
// per missed epoch however many later rekeys reveal it (each answer
// costs the parent an RSA seal and a signature), repeated only after
// TIdle on the injected clock.
func TestParentKeyUpdateReceive(t *testing.T) {
	a := newAdoptedRig(t)
	r, fake, tree := a.rig, a.fake, a.tree
	admittedEpoch := tree.Epoch()
	parentEpoch := func() uint64 {
		e, _ := a.parentView(t)
		return e
	}
	waitEpoch := func(want uint64) {
		t.Helper()
		a.waitEpoch(t, want)
	}

	// rekey sends ac-0 its part of res, cut for every member of the
	// parent's area that applies it.
	rekey := func(areaID string, res *keytree.BatchResult) {
		t.Helper()
		receivers := []keytree.MemberID{"ac-0"}
		for _, m := range tree.Members() {
			if _, joined := res.Joined[m]; !joined && m != "ac-0" {
				receivers = append(receivers, m)
			}
		}
		var kc keytree.Cut
		tree.Cut(res.Update, receivers, &kc)
		frames := wire.KeyUpdateFrames("ac-peer", areaID, res.Epoch, &kc)
		if err := r.peer.Send("ac-0", &frames[0]); err != nil {
			t.Fatal(err)
		}
	}
	next, err := tree.Join("another")
	if err != nil {
		t.Fatal(err)
	}
	rekey("area-elsewhere", next)
	expectNoKind(t, r.peer, wire.KindPathRequest, 100*time.Millisecond)
	if e := parentEpoch(); e != admittedEpoch {
		t.Fatalf("another area's rekey moved the parent view to epoch %d", e)
	}
	if name := obs.MetricKeyUpdateDropped("wrong_area"); r.ctrl.Stats().Snapshot()[name] != 1 {
		t.Errorf("%s = %d after one rekey naming another area", name, r.ctrl.Stats().Snapshot()[name])
	}
	rekey("area-peer", next)
	waitEpoch(next.Epoch)
	rekey("area-peer", next) // duplicate delivery
	expectNoKind(t, r.peer, wire.KindPathRequest, 150*time.Millisecond)

	if _, err := tree.Join("skipped"); err != nil {
		t.Fatal(err)
	}
	later, err := tree.Join("latest")
	if err != nil {
		t.Fatal(err)
	}
	rekey("area-peer", later)
	recvKind(t, r.peer, wire.KindPathRequest)
	if e := parentEpoch(); e != next.Epoch {
		t.Fatalf("a gapped rekey moved the parent view to epoch %d", e)
	}
	evenLater, err := tree.Join("and another")
	if err != nil {
		t.Fatal(err)
	}
	rekey("area-peer", evenLater)
	expectNoKind(t, r.peer, wire.KindPathRequest, 150*time.Millisecond)
	fake.Advance(time.Minute)
	rekey("area-peer", evenLater)
	recvKind(t, r.peer, wire.KindPathRequest)
}

// TestParentPathUpdateReplayIgnored: a genuine PathUpdate from the parent
// — signed by it, sealed to this controller — captured and sent again
// after the controller's view of the parent area has moved on must not
// roll that view (and its journaled copy) back to old keys and an old
// epoch; the replay is counted. A PathUpdate naming another area is
// ignored, as a member ignores one.
func TestParentPathUpdateReplayIgnored(t *testing.T) {
	a := newAdoptedRig(t)
	start, _ := a.parentView(t)
	pathUpdate := func(areaID string, epoch uint64) ([]byte, crypt.SymKey) {
		t.Helper()
		root := crypt.NewSymKey()
		blob, err := wire.SealBody(a.acKeys.Public(), wire.PathUpdate{AreaID: areaID, Epoch: epoch,
			Path: []keytree.PathKey{{Node: 5, Key: crypt.NewSymKey()}, {Node: 0, Key: root}}})
		if err != nil {
			t.Fatal(err)
		}
		f := &wire.Frame{Kind: wire.KindPathUpdate, From: "ac-peer", Body: blob, Sig: a.peerKeys.Sign(blob)}
		if err := a.peer.Send("ac-0", f); err != nil {
			t.Fatal(err)
		}
		return blob, root
	}
	captured, _ := pathUpdate("area-peer", start+2)
	a.waitEpoch(t, start+2)
	_, root := pathUpdate("area-peer", start+4)
	a.waitEpoch(t, start+4)

	if err := a.peer.Send("ac-0", &wire.Frame{Kind: wire.KindPathUpdate, From: "ac-peer", Body: captured, Sig: a.peerKeys.Sign(captured)}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); a.ctrl.Stats().Snapshot()[obs.MetricPathUpdateStale] != 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the replayed PathUpdate was never counted")
		}
	}
	pathUpdate("area-elsewhere", start+6)
	expectNoKind(t, a.peer, wire.KindPathRequest, 100*time.Millisecond)
	if e, key := a.parentView(t); e != start+4 || !key.Equal(root) {
		t.Fatalf("the parent view stands at epoch %d (want %d), area key match %v", e, start+4, key.Equal(root))
	}
}
