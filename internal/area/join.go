package area

import (
	"time"

	"mykil/internal/crypt"
	"mykil/internal/intern"
	"mykil/internal/keytree"
	"mykil/internal/obs"
	"mykil/internal/ticket"
	"mykil/internal/wire"
)

// sessionTTL bounds half-completed join/rejoin handshakes.
const sessionTTL = time.Minute

// handleJoinRefer processes join step 4: the registration server's signed
// referral of an authenticated client.
func (c *Controller) handleJoinRefer(f *wire.Frame) {
	if c.cfg.RSPub.IsZero() {
		c.cfg.Logf("%s: join referral but no registration server key configured", c.cfg.ID)
		return
	}
	if err := c.cfg.RSPub.Verify(f.Body, f.Sig); err != nil {
		c.cfg.Logf("%s: join referral with bad signature from %s", c.cfg.ID, f.From)
		return
	}
	var refer wire.JoinRefer
	if err := wire.OpenBody(c.cfg.Keys, f.Body, &refer); err != nil {
		c.cfg.Logf("%s: join referral body: %v", c.cfg.ID, err)
		return
	}
	// §III-B: the timestamp catches replayed step-4 messages.
	if c.staleTimestamp(refer.Timestamp) {
		c.cfg.Logf("%s: join referral for %s outside replay window", c.cfg.ID, refer.ClientID)
		return
	}
	clientPub, err := crypt.ParsePublicKey(refer.ClientPub)
	if err != nil {
		c.cfg.Logf("%s: join referral for %s: bad client key: %v", c.cfg.ID, refer.ClientID, err)
		return
	}
	c.joinSessions[refer.ClientID] = &joinSession{
		nonceAC:   refer.NonceAC,
		clientID:  refer.ClientID,
		duration:  refer.Duration,
		created:   c.clk.Now(),
		clientDER: refer.ClientPub,
		clientPub: clientPub,
	}
	// The client's step 6 may have raced ahead of this referral (it
	// travels client->AC while the referral travels RS->AC); replay it.
	if parked, ok := c.parkedStep6[refer.ClientID]; ok {
		delete(c.parkedStep6, refer.ClientID)
		c.processJoinToAC(parked)
	}
}

// handleJoinToAC processes join step 6 and admits the client (step 7),
// immediately or at the next batch flush.
func (c *Controller) handleJoinToAC(f *wire.Frame) {
	var msg wire.JoinToAC
	if err := wire.OpenBody(c.cfg.Keys, f.Body, &msg); err != nil {
		c.cfg.Logf("%s: join step 6: %v", c.cfg.ID, err)
		return
	}
	c.processJoinToAC(&parkedJoin{msg: msg, arrived: c.clk.Now()})
}

// parkedJoin is a step-6 message, possibly held until its referral lands.
type parkedJoin struct {
	msg     wire.JoinToAC
	arrived time.Time
}

func (c *Controller) processJoinToAC(p *parkedJoin) {
	msg := p.msg
	sess, ok := c.joinSessions[msg.ClientID]
	if !ok {
		// No referral yet: park briefly in case step 4 is still in
		// flight from the registration server.
		c.parkedStep6[msg.ClientID] = p
		return
	}
	// Authenticate the client against the RS-relayed nonce (§III-B).
	if msg.NonceACPlus2 != sess.nonceAC+2 {
		delete(c.joinSessions, msg.ClientID)
		c.sendSealed(msg.ClientAddr, sess.clientPub, wire.KindJoinDenied, wire.JoinDenied{
			ClientID: msg.ClientID, Reason: "nonce check failed",
		}, true)
		return
	}
	if _, already := c.members[msg.ClientID]; already {
		delete(c.joinSessions, msg.ClientID)
		c.sendSealed(msg.ClientAddr, sess.clientPub, wire.KindJoinDenied, wire.JoinDenied{
			ClientID: msg.ClientID, Reason: "already a member",
		}, true)
		return
	}
	// Suite negotiation: the area runs one suite; a client that cannot
	// speak it would only receive frames it garbles, so deny up front.
	if !c.suiteSupported(msg.SuiteMask) {
		delete(c.joinSessions, msg.ClientID)
		c.sendSealed(msg.ClientAddr, sess.clientPub, wire.KindJoinDenied, wire.JoinDenied{
			ClientID: msg.ClientID, Reason: "cipher suite not supported: area requires " + c.suite.Name(),
		}, true)
		return
	}
	delete(c.joinSessions, msg.ClientID)

	now := c.clk.Now()
	validity := c.cfg.TicketValidity
	if sess.duration > 0 {
		validity = sess.duration
	}
	tk := &ticket.Ticket{
		JoinTime:       now,
		Validity:       now.Add(validity),
		ID:             msg.ClientID,
		PublicKeyDER:   sess.clientDER,
		AreaController: c.cfg.ID,
	}
	tkBlob, err := tk.Seal(c.cfg.KShared)
	if err != nil {
		c.cfg.Logf("%s: sealing ticket for %s: %v", c.cfg.ID, msg.ClientID, err)
		return
	}
	entry := &memberEntry{
		id:         intern.ID(msg.ClientID),
		addr:       intern.ID(msg.ClientAddr),
		pubDER:     intern.DER(sess.clientDER),
		pub:        sess.clientPub,
		lastSeen:   now,
		ticketBlob: tkBlob,
	}
	c.admit(pendingAdmission{entry: entry, nonceCA: msg.NonceCA})
}

// admit queues or immediately applies a membership admission.
func (c *Controller) admit(p pendingAdmission) {
	if c.cfg.Batching {
		// §III-E: record the join, set the update-needed flag; the rekey
		// (and the new member's key delivery) happens at the next data
		// packet or rekey-interval expiry.
		c.pendingJoins = append(c.pendingJoins, p)
		c.updateNeeded = true
		return
	}
	c.applyBatch([]pendingAdmission{p}, nil)
}

// handleLeaveNotice processes a voluntary leave: one tagged under the
// leaf key of the member it names, which only that member and this
// controller hold (DESIGN §8, obligation 10). Any other is dropped and
// counted, so no endpoint can evict a member by naming it.
func (c *Controller) handleLeaveNotice(f *wire.Frame) {
	var msg wire.LeaveNotice
	if err := wire.DecodePlain(f.Body, &msg); err != nil {
		return
	}
	pk, err := c.tree.PathKeys(keytree.MemberID(msg.MemberID))
	if err != nil || !msg.Verify(pk[0].Key) {
		c.cLeaveForged.Inc()
		c.cfg.Logf("%s: leave notice for %q from %s dropped: not tagged under its leaf key", c.cfg.ID, msg.MemberID, f.From)
		return
	}
	c.removeMember(msg.MemberID)
}

// removeMember queues or applies a leave for a current member.
func (c *Controller) removeMember(id string) {
	if _, ok := c.members[id]; !ok {
		// Possibly a pending (batched) joiner changing its mind: flush
		// the batch so state converges, then retry once.
		if c.hasPendingJoin(id) {
			c.flush()
			if _, ok := c.members[id]; ok {
				c.removeMember(id)
			}
		}
		return
	}
	if c.cfg.Batching {
		if c.members[id].lastSeen.IsZero() {
			return // already queued to leave in this batch
		}
		c.pendingLeaves = append(c.pendingLeaves, id)
		c.updateNeeded = true
		// The entry stays in c.members until the flush so rejoin
		// verification still sees it; mark it gone for data relay.
		c.members[id].lastSeen = time.Time{}
		return
	}
	c.applyBatch(nil, []string{id})
}

func (c *Controller) hasPendingJoin(id string) bool {
	for _, p := range c.pendingJoins {
		if p.entry.id == id {
			return true
		}
	}
	return false
}

// ---- Rejoin protocol (Fig. 7) ----

// handleRejoinRequest processes rejoin step 1: ticket presentation.
func (c *Controller) handleRejoinRequest(f *wire.Frame) {
	var req wire.RejoinRequest
	if err := wire.OpenBody(c.cfg.Keys, f.Body, &req); err != nil {
		c.cfg.Logf("%s: rejoin step 1: %v", c.cfg.ID, err)
		return
	}
	tk, err := ticket.Open(c.cfg.KShared, req.TicketBlob)
	if err != nil {
		c.cfg.Logf("%s: rejoin ticket from %s rejected: %v", c.cfg.ID, req.ClientID, err)
		return
	}
	clientPub, perr := tk.PublicKey()
	if perr != nil {
		c.cfg.Logf("%s: rejoin ticket has bad public key: %v", c.cfg.ID, perr)
		return
	}
	if err := tk.Validate(c.clk.Now()); err != nil {
		c.sendSealed(req.ClientAddr, clientPub, wire.KindRejoinDenied, wire.RejoinDenied{
			ClientID: req.ClientID, Reason: "ticket invalid: " + err.Error(),
		}, true)
		return
	}
	// §IV-B NIC check: the claimed identity must match the ticket's
	// embedded ID.
	if tk.ID != req.ClientID {
		c.sendSealed(req.ClientAddr, clientPub, wire.KindRejoinDenied, wire.RejoinDenied{
			ClientID: req.ClientID, Reason: "identity does not match ticket",
		}, true)
		return
	}
	// Suite negotiation mirrors the join path: deny before the handshake
	// spends a challenge round trip on a member we cannot serve.
	if !c.suiteSupported(req.SuiteMask) {
		c.sendSealed(req.ClientAddr, clientPub, wire.KindRejoinDenied, wire.RejoinDenied{
			ClientID: req.ClientID, Reason: "cipher suite not supported: area requires " + c.suite.Name(),
		}, true)
		return
	}
	sess := &rejoinSession{
		clientID:   req.ClientID,
		clientAddr: req.ClientAddr,
		clientPub:  clientPub,
		clientDER:  tk.PublicKeyDER,
		nonceBC:    crypt.Nonce(),
		tk:         tk,
		tkBlob:     req.TicketBlob,
		created:    c.clk.Now(),
	}
	c.rejoinSessions[req.ClientID] = sess
	// Step 2: challenge the client to prove possession of the ticket's
	// private key.
	c.trace.Step(obs.ProtoRejoin, req.ClientID, 2, "RejoinChallenge",
		obs.String("prev_ac", sess.tk.AreaController))
	c.sendSealed(req.ClientAddr, clientPub, wire.KindRejoinChallenge, wire.RejoinChallenge{
		NonceCBPlus1: req.NonceCB + 1,
		NonceBC:      sess.nonceBC,
	}, false)
}

// handleRejoinResponse processes rejoin step 3 and either starts the
// steps 4-5 verification with the previous controller or admits directly.
func (c *Controller) handleRejoinResponse(f *wire.Frame) {
	var resp wire.RejoinResponse
	if err := wire.OpenBody(c.cfg.Keys, f.Body, &resp); err != nil {
		c.cfg.Logf("%s: rejoin step 3: %v", c.cfg.ID, err)
		return
	}
	sess, ok := c.rejoinSessions[resp.ClientID]
	if !ok {
		return
	}
	if resp.NonceBCPlus1 != sess.nonceBC+1 {
		delete(c.rejoinSessions, resp.ClientID)
		c.sendSealed(sess.clientAddr, sess.clientPub, wire.KindRejoinDenied, wire.RejoinDenied{
			ClientID: resp.ClientID, Reason: "challenge failed",
		}, true)
		return
	}
	sess.authenticated = true

	if entry, already := c.members[sess.clientID]; already {
		// Rejoining its own area (e.g. after missing rekeys while we
		// never evicted it): refresh it in place with a proper welcome so
		// the client's pending rejoin completes.
		delete(c.rejoinSessions, sess.clientID)
		entry.addr = sess.clientAddr
		c.membersChanged()
		entry.lastSeen = c.clk.Now()
		c.journalTouch(entry)
		pks, err := c.tree.PathKeys(keytree.MemberID(sess.clientID))
		if err != nil {
			return
		}
		c.trace.Step(obs.ProtoRejoin, sess.clientID, 6, "RejoinWelcome",
			obs.String("refresh", "in-place"), obs.Uint("epoch", uint64(c.tree.Epoch())))
		c.sendSealed(entry.addr, entry.pub, wire.KindRejoinWelcome, wire.RejoinWelcome{
			TicketBlob: entry.ticketBlob,
			Path:       pks,
			Epoch:      c.tree.Epoch(),
			AreaID:     c.cfg.AreaID,
			BackupAddr: c.backupAddr(),
			BackupPub:  c.backupPubDER(),
			Suite:      c.suite.ID(),
		}, true)
		return
	}

	// §IV-B steps 4-5: verify with the previous controller, unless the
	// ticket was issued by this controller itself, the previous
	// controller is unknown, the member was prevouched by a migration
	// orchestrator (its old controller is removing it right now — a
	// verify would race that removal), or verification is configured off
	// (§V-D's faster option-2 variant).
	prev, inDirectory := c.directoryByID(sess.tk.AreaController)
	if c.cfg.SkipRejoinVerify || c.prevouched[sess.clientID] ||
		sess.tk.AreaController == c.cfg.ID || !inDirectory {
		delete(c.prevouched, sess.clientID)
		c.admitRejoin(sess)
		return
	}
	prevPub, err := peerPub(prev)
	if err != nil {
		c.cfg.Logf("%s: previous controller %s key unparsable: %v", c.cfg.ID, prev.ID, err)
		c.admitRejoin(sess)
		return
	}
	sess.awaitingVerify = true
	sess.verifyDeadline = c.clk.Now().Add(c.cfg.VerifyTimeout)
	c.trace.Step(obs.ProtoRejoin, sess.clientID, 4, "RejoinVerifyReq",
		obs.String("prev_ac", prev.ID))
	c.sendSealed(prev.Addr, prevPub, wire.KindRejoinVerifyReq, wire.RejoinVerifyReq{
		ClientID:  sess.clientID,
		Timestamp: c.clk.Now(),
	}, true)
}

// handleRejoinVerifyReq is the previous controller's side of step 4: is
// the client still one of ours?
func (c *Controller) handleRejoinVerifyReq(f *wire.Frame) {
	sender, ok := c.directoryByAddr(f.From)
	if !ok {
		c.cfg.Logf("%s: verify request from unknown controller %s", c.cfg.ID, f.From)
		return
	}
	senderPub, err := peerPub(sender)
	if err != nil {
		return
	}
	if err := senderPub.Verify(f.Body, f.Sig); err != nil {
		c.cfg.Logf("%s: verify request with bad signature from %s", c.cfg.ID, sender.ID)
		return
	}
	var req wire.RejoinVerifyReq
	if err := wire.OpenBody(c.cfg.Keys, f.Body, &req); err != nil {
		return
	}
	// §IV-B: the timestamp prevents replay of sniffed verify requests.
	if c.staleTimestamp(req.Timestamp) {
		c.cfg.Logf("%s: verify request for %s outside replay window", c.cfg.ID, req.ClientID)
		return
	}

	entry, present := c.members[req.ClientID]
	stillMember := false
	var tkBlob []byte
	if present {
		tkBlob = entry.ticketBlob
		// A member we have heard from recently is genuinely still here —
		// the malicious-cohort case. A silent one has moved or been
		// partitioned away; §IV-A entitles us to terminate it, which is
		// exactly what a controller does when it "can no longer
		// communicate with one of its area members".
		silence := c.clk.Now().Sub(entry.lastSeen)
		if silence <= time.Duration(DefaultSilenceFactor)*c.cfg.TActive {
			stillMember = true
		} else {
			c.removeMember(req.ClientID)
		}
	}
	c.trace.Step(obs.ProtoRejoin, req.ClientID, 5, "RejoinVerifyResp",
		obs.Bool("still_member", stillMember))
	c.sendSealed(f.From, senderPub, wire.KindRejoinVerifyResp, wire.RejoinVerifyResp{
		ClientID:    req.ClientID,
		StillMember: stillMember,
		TicketBlob:  tkBlob,
		Timestamp:   c.clk.Now(),
	}, true)
}

// handleRejoinVerifyResp completes step 5 at the new controller.
func (c *Controller) handleRejoinVerifyResp(f *wire.Frame) {
	sender, ok := c.directoryByAddr(f.From)
	if !ok {
		return
	}
	senderPub, err := peerPub(sender)
	if err != nil {
		return
	}
	if err := senderPub.Verify(f.Body, f.Sig); err != nil {
		c.cfg.Logf("%s: verify response with bad signature from %s", c.cfg.ID, sender.ID)
		return
	}
	var resp wire.RejoinVerifyResp
	if err := wire.OpenBody(c.cfg.Keys, f.Body, &resp); err != nil {
		return
	}
	sess, ok := c.rejoinSessions[resp.ClientID]
	if !ok || !sess.awaitingVerify {
		return
	}
	sess.awaitingVerify = false
	if resp.StillMember {
		delete(c.rejoinSessions, resp.ClientID)
		c.sendSealed(sess.clientAddr, sess.clientPub, wire.KindRejoinDenied, wire.RejoinDenied{
			ClientID: resp.ClientID,
			Reason:   "still a member of previous area (possible shared ticket)",
		}, true)
		return
	}
	c.admitRejoin(sess)
}

// admitRejoin finalizes a rejoin: place in the tree, issue an updated
// ticket, send step 6.
func (c *Controller) admitRejoin(sess *rejoinSession) {
	delete(c.rejoinSessions, sess.clientID)
	now := c.clk.Now()
	newTk := sess.tk.WithController(c.cfg.ID)
	tkBlob, err := newTk.Seal(c.cfg.KShared)
	if err != nil {
		c.cfg.Logf("%s: resealing ticket for %s: %v", c.cfg.ID, sess.clientID, err)
		return
	}
	entry := &memberEntry{
		id:         intern.ID(sess.clientID),
		addr:       intern.ID(sess.clientAddr),
		pubDER:     intern.DER(sess.clientDER),
		pub:        sess.clientPub,
		lastSeen:   now,
		ticketBlob: tkBlob,
	}
	c.admit(pendingAdmission{entry: entry, rejoin: true})
}

// handlePathRequest resends a member's path keys after it detected a
// missed rekey. The frame is unsigned, so only the member's own address
// may speak for it: anyone else could otherwise keep a silent member from
// eviction and buy an RSA seal and signature per forged frame.
func (c *Controller) handlePathRequest(f *wire.Frame) {
	var req wire.PathRequest
	if err := wire.DecodePlain(f.Body, &req); err != nil {
		return
	}
	entry, ok := c.members[req.MemberID]
	if !ok || entry.addr != f.From {
		return
	}
	entry.lastSeen = c.clk.Now()
	c.resendPath(req.MemberID)
}

// resendPath unicasts a member's current path keys sealed to its public
// key.
func (c *Controller) resendPath(id string) {
	entry, ok := c.members[id]
	if !ok {
		return
	}
	pks, err := c.tree.PathKeys(keytree.MemberID(id))
	if err != nil {
		return
	}
	c.sendSealed(entry.addr, entry.pub, wire.KindPathUpdate, wire.PathUpdate{
		AreaID: c.cfg.AreaID,
		Epoch:  c.tree.Epoch(),
		Path:   pks,
	}, true)
}

// staleTimestamp applies the replay window to a protocol timestamp.
func (c *Controller) staleTimestamp(ts time.Time) bool {
	d := c.clk.Now().Sub(ts)
	if d < 0 {
		d = -d
	}
	return d > c.cfg.ReplayWindow
}

// expireSessions drops stale handshakes and applies the §IV-B partition
// policy to verification timeouts.
func (c *Controller) expireSessions(now time.Time) {
	cutoff := now.Add(-sessionTTL)
	for id, s := range c.joinSessions {
		if s.created.Before(cutoff) {
			delete(c.joinSessions, id)
		}
	}
	for id, p := range c.parkedStep6 {
		if p.arrived.Before(cutoff) {
			delete(c.parkedStep6, id)
		}
	}
	for id, s := range c.rejoinSessions {
		if s.awaitingVerify && now.After(s.verifyDeadline) {
			// The previous controller is unreachable: partition case.
			s.awaitingVerify = false
			switch c.cfg.Policy {
			case AdmitOnPartition:
				// The NIC identity was already checked in step 1.
				c.cfg.Logf("%s: admitting %s without verification (partition policy)", c.cfg.ID, id)
				c.admitRejoin(s)
			default:
				delete(c.rejoinSessions, id)
				c.sendSealed(s.clientAddr, s.clientPub, wire.KindRejoinDenied, wire.RejoinDenied{
					ClientID: id,
					Reason:   "previous controller unreachable",
				}, true)
			}
			continue
		}
		if s.created.Before(cutoff) {
			delete(c.rejoinSessions, id)
		}
	}
}
