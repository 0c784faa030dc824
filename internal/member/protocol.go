package member

import (
	"fmt"

	"mykil/internal/crypt"
	"mykil/internal/keytree"
	"mykil/internal/obs"
	"mykil/internal/wire"
)

// startJoin begins the seven-step join protocol (loop context).
func (m *Member) startJoin(errc chan error) {
	if m.op != nil {
		errc <- ErrBusy
		return
	}
	if m.cfg.RSAddr == "" || m.cfg.RSPub.IsZero() {
		errc <- fmt.Errorf("member: no registration server configured")
		return
	}
	now := m.clk.Now()
	m.op = &pendingOp{
		kind:     opJoin,
		deadline: now.Add(m.cfg.OpTimeout),
		errc:     errc,
		nonceCW:  crypt.Nonce(),
		start:    now,
	}
	// Step 1: {auth-info; Pub_k; Nonce_CW; MAC}_Pub_rs.
	m.trace.Step(obs.ProtoJoin, m.cfg.ID, 1, "JoinRequest", obs.String("rs", m.cfg.RSAddr))
	m.sendSealed(m.cfg.RSAddr, m.cfg.RSPub, wire.KindJoinRequest, wire.JoinRequest{
		AuthInfo:   m.cfg.AuthInfo,
		ClientID:   m.cfg.ID,
		ClientAddr: m.cfg.Transport.Addr(),
		ClientPub:  m.cfg.Keys.Public().Marshal(),
		NonceCW:    m.op.nonceCW,
	})
}

// handleJoinChallenge is step 2; it answers with step 3.
func (m *Member) handleJoinChallenge(f *wire.Frame) {
	if m.op == nil || m.op.kind != opJoin {
		return
	}
	var ch wire.JoinChallenge
	if err := wire.OpenBody(m.cfg.Keys, f.Body, &ch); err != nil {
		m.cfg.Logf("%s: join step 2: %v", m.cfg.ID, err)
		return
	}
	// Authenticate the RS: only the holder of the well-known key's
	// private half could read Nonce_CW.
	if ch.NonceCWPlus1 != m.op.nonceCW+1 {
		m.failOp(fmt.Errorf("%w: registration server failed nonce check", ErrDenied))
		return
	}
	// Step 3: {Nonce_WC+1; MAC}_Pub_rs.
	m.trace.Step(obs.ProtoJoin, m.cfg.ID, 3, "JoinResponse")
	m.sendSealed(m.cfg.RSAddr, m.cfg.RSPub, wire.KindJoinResponse, wire.JoinResponse{
		ClientID:     m.cfg.ID,
		NonceWCPlus1: ch.NonceWC + 1,
	})
}

// handleJoinGrant is step 5; it answers with step 6 to the assigned AC.
func (m *Member) handleJoinGrant(f *wire.Frame) {
	if m.op == nil || m.op.kind != opJoin {
		return
	}
	// The grant is signed by the RS (§III-B step 5).
	if err := m.cfg.RSPub.Verify(f.Body, f.Sig); err != nil {
		m.cfg.Logf("%s: join grant with bad signature", m.cfg.ID)
		return
	}
	var g wire.JoinGrant
	if err := wire.OpenBody(m.cfg.Keys, f.Body, &g); err != nil {
		m.cfg.Logf("%s: join step 5: %v", m.cfg.ID, err)
		return
	}
	acPub, err := crypt.ParsePublicKey(g.AC.PubDER)
	if err != nil {
		m.failOp(fmt.Errorf("member: assigned controller key unparsable: %w", err))
		return
	}
	m.op.acAddr = g.AC.Addr
	m.op.acID = g.AC.ID
	m.op.acPub = acPub
	m.op.nonceCA = crypt.Nonce()
	m.directory = sharedDirectories.canonical(g.Directory)

	// Step 6: {Nonce_AC+2; Nonce_CA; MAC}_Pub_ac.
	m.trace.Step(obs.ProtoJoin, m.cfg.ID, 6, "JoinToAC", obs.String("ac", g.AC.ID))
	m.sendSealed(g.AC.Addr, acPub, wire.KindJoinToAC, wire.JoinToAC{
		ClientID:     m.cfg.ID,
		ClientAddr:   m.cfg.Transport.Addr(),
		NonceACPlus2: g.NonceACPlus1 + 1,
		NonceCA:      m.op.nonceCA,
		SuiteMask:    m.cfg.Suites,
	})
}

// handleJoinWelcome is step 7: admission.
func (m *Member) handleJoinWelcome(f *wire.Frame) {
	if m.op == nil || m.op.kind != opJoin {
		return
	}
	var w wire.JoinWelcome
	if err := wire.OpenBody(m.cfg.Keys, f.Body, &w); err != nil {
		m.cfg.Logf("%s: join step 7: %v", m.cfg.ID, err)
		return
	}
	// Authenticate the AC: it echoed our challenge from step 6.
	if w.NonceCAPlus1 != m.op.nonceCA+1 {
		m.failOp(fmt.Errorf("%w: controller failed nonce check", ErrDenied))
		return
	}
	if err := m.attach(m.op.acID, m.op.acAddr, m.op.acPub, w.AreaID, w.Path, w.Epoch, w.TicketBlob, w.BackupAddr, w.BackupPub, w.Suite); err != nil {
		m.failOp(err)
		return
	}
	m.completeOp(nil)
}

// handleJoinDenied fails a pending join.
func (m *Member) handleJoinDenied(f *wire.Frame) {
	if m.op == nil {
		return
	}
	var d wire.JoinDenied
	if err := wire.OpenBody(m.cfg.Keys, f.Body, &d); err != nil {
		return
	}
	m.failOp(fmt.Errorf("%w: %s", ErrDenied, d.Reason))
}

// startRejoin begins the six-step rejoin protocol toward acID (loop
// context).
func (m *Member) startRejoin(acID string, errc chan error) {
	if m.op != nil {
		errc <- ErrBusy
		return
	}
	if len(m.ticketBlob) == 0 {
		errc <- fmt.Errorf("member: no ticket held; full join required")
		return
	}
	var target *wire.ACInfo
	for i := range m.directory {
		if m.directory[i].ID == acID {
			target = &m.directory[i]
			break
		}
	}
	if target == nil {
		errc <- fmt.Errorf("member: controller %q not in directory", acID)
		return
	}
	pub, err := crypt.ParsePublicKey(target.PubDER)
	if err != nil {
		errc <- fmt.Errorf("member: controller %q key unparsable: %w", acID, err)
		return
	}
	now := m.clk.Now()
	m.op = &pendingOp{
		kind:     opRejoin,
		deadline: now.Add(m.cfg.OpTimeout),
		errc:     errc,
		nonceCB:  crypt.Nonce(),
		acAddr:   target.Addr,
		acID:     target.ID,
		acPub:    pub,
		start:    now,
	}
	// Step 1: {Nonce_CB; ticket; MAC}_Pub_ac_b.
	m.trace.Step(obs.ProtoRejoin, m.cfg.ID, 1, "RejoinRequest", obs.String("target", target.ID))
	m.sendSealed(target.Addr, pub, wire.KindRejoinRequest, wire.RejoinRequest{
		ClientID:   m.cfg.ID,
		ClientAddr: m.cfg.Transport.Addr(),
		NonceCB:    m.op.nonceCB,
		TicketBlob: m.ticketBlob,
		SuiteMask:  m.cfg.Suites,
	})
}

// handleRejoinChallenge is step 2; it answers with step 3.
func (m *Member) handleRejoinChallenge(f *wire.Frame) {
	if m.op == nil || m.op.kind != opRejoin {
		return
	}
	var ch wire.RejoinChallenge
	if err := wire.OpenBody(m.cfg.Keys, f.Body, &ch); err != nil {
		return
	}
	if ch.NonceCBPlus1 != m.op.nonceCB+1 {
		m.failOp(fmt.Errorf("%w: controller failed nonce check", ErrDenied))
		return
	}
	// Step 3: {Nonce_BC+1; MAC}_Pub_ac_b.
	m.trace.Step(obs.ProtoRejoin, m.cfg.ID, 3, "RejoinResponse")
	m.sendSealed(m.op.acAddr, m.op.acPub, wire.KindRejoinResponse, wire.RejoinResponse{
		ClientID:     m.cfg.ID,
		NonceBCPlus1: ch.NonceBC + 1,
	})
}

// handleRejoinWelcome is step 6: admission into the new area.
func (m *Member) handleRejoinWelcome(f *wire.Frame) {
	if m.op == nil || m.op.kind != opRejoin {
		return
	}
	// Step 6 is signed by the new controller.
	if err := m.op.acPub.Verify(f.Body, f.Sig); err != nil {
		m.cfg.Logf("%s: rejoin welcome with bad signature", m.cfg.ID)
		return
	}
	var w wire.RejoinWelcome
	if err := wire.OpenBody(m.cfg.Keys, f.Body, &w); err != nil {
		return
	}
	if err := m.attach(m.op.acID, m.op.acAddr, m.op.acPub, w.AreaID, w.Path, w.Epoch, w.TicketBlob, w.BackupAddr, w.BackupPub, w.Suite); err != nil {
		m.failOp(err)
		return
	}
	m.completeOp(nil)
}

// handleRejoinDenied fails a pending rejoin.
func (m *Member) handleRejoinDenied(f *wire.Frame) {
	if m.op == nil || m.op.kind != opRejoin {
		return
	}
	var d wire.RejoinDenied
	if err := wire.OpenBody(m.cfg.Keys, f.Body, &d); err != nil {
		return
	}
	m.rejoinBlacklist[m.op.acID] = m.clk.Now()
	m.failOp(fmt.Errorf("%w: %s", ErrDenied, d.Reason))
}

// attach installs area state after a successful join or rejoin. The
// welcome names the area's cipher suite; a suite we do not speak (or do
// not link) makes the admission unusable, so it fails here rather than
// leaving the member decoding garbage.
func (m *Member) attach(acID, acAddr string, acPub crypt.PublicKey, areaID string,
	path []keytree.PathKey, epoch uint64, ticketBlob []byte, backupAddr string, backupPubDER []byte,
	suiteID crypt.SuiteID) error {

	suite, err := crypt.SuiteByID(suiteID)
	if err != nil {
		return fmt.Errorf("%w: area negotiated unknown cipher suite %d", ErrDenied, uint8(suiteID))
	}
	if suite.ID().Mask()&m.cfg.Suites == 0 {
		return fmt.Errorf("%w: area negotiated cipher suite %s outside our advertised set", ErrDenied, suite.Name())
	}
	m.connected = true
	m.acID = acID
	m.acAddr = acAddr
	m.acPub = acPub
	m.areaID = areaID
	m.suite = suite
	m.view = keytree.NewMemberView(path, epoch, keytree.NewSuiteEncryptor(suite))
	if len(ticketBlob) > 0 {
		m.ticketBlob = ticketBlob
	}
	m.backupAddr = backupAddr
	m.backupPub = crypt.PublicKey{}
	if len(backupPubDER) > 0 {
		if pub, err := crypt.ParsePublicKey(backupPubDER); err == nil {
			m.backupPub = pub
		}
	}
	now := m.clk.Now()
	m.lastACRecv = now
	m.lastSent = now
	m.cfg.Logf("%s: attached to area %s via %s (epoch %d, suite %s)", m.cfg.ID, m.areaID, acID, epoch, suite.Name())
	return nil
}

// detach marks the member disconnected. The area view, ticket, and backup
// identity are retained: a signed §IV-C failover announcement can still
// re-attach us, and the ticket drives rejoins. A successful join/rejoin
// replaces all of it.
func (m *Member) detach() {
	m.connected = false
	m.acAddr = ""
	m.acPub = crypt.PublicKey{}
}

// completeOp resolves the pending operation successfully, recording the
// handshake's latency against the clock reading taken at its start.
func (m *Member) completeOp(err error) {
	if m.op == nil {
		return
	}
	if err == nil && !m.op.start.IsZero() {
		elapsed := m.clk.Now().Sub(m.op.start).Seconds()
		switch m.op.kind {
		case opJoin:
			m.joinHist.Observe(elapsed)
		case opRejoin:
			m.rejoinHist.Observe(elapsed)
		}
	}
	m.op.errc <- err
	m.op = nil
}

// failOp resolves the pending operation with an error.
func (m *Member) failOp(err error) {
	if m.op == nil {
		return
	}
	m.op.errc <- err
	m.op = nil
}

// sendSealed seals a body to a recipient and transmits it.
func (m *Member) sendSealed(addr string, to crypt.PublicKey, kind wire.Kind, body wire.Marshaler) {
	blob, err := wire.SealBody(to, body)
	if err != nil {
		m.cfg.Logf("%s: sealing %v: %v", m.cfg.ID, kind, err)
		return
	}
	if err := m.cfg.Transport.Send(addr, &wire.Frame{
		Kind: kind,
		From: m.cfg.Transport.Addr(),
		Body: blob,
	}); err != nil {
		m.cfg.Logf("%s: sending %v to %s: %v", m.cfg.ID, kind, addr, err)
		return // a frame that never left does not reset the §IV-A quiet timer
	}
	m.lastSent = m.clk.Now()
}

// sendPlain transmits an unencrypted body.
func (m *Member) sendPlain(addr string, kind wire.Kind, body wire.Marshaler) {
	blob, err := wire.PlainBody(body)
	if err != nil {
		return
	}
	if err := m.cfg.Transport.Send(addr, &wire.Frame{
		Kind: kind,
		From: m.cfg.Transport.Addr(),
		Body: blob,
	}); err != nil {
		m.cfg.Logf("%s: sending %v to %s: %v", m.cfg.ID, kind, addr, err)
		return // a frame that never left does not reset the §IV-A quiet timer
	}
	m.lastSent = m.clk.Now()
}
