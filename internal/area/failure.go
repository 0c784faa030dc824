package area

import (
	"errors"
	"time"

	"mykil/internal/crypt"
	"mykil/internal/intern"
	"mykil/internal/keytree"
	"mykil/internal/obs"
	"mykil/internal/wire"
)

// requestParent sends an area-join request to a candidate parent
// controller (§IV-C): {identity; ts; MAC}_Pub_parent, signed.
func (c *Controller) requestParent(candidate PeerInfo) {
	c.reparentTarget = candidate.ID
	c.reparentDeadline = c.clk.Now().Add(c.cfg.VerifyTimeout)
	c.trace.Event(obs.ProtoReparent, candidate.ID, "AreaJoinReq")
	c.sendSealed(candidate.Addr, candidate.Pub, wire.KindAreaJoinReq, wire.AreaJoinReq{
		ACID:      c.cfg.ID,
		ACAddr:    c.cfg.Transport.Addr(),
		AreaID:    c.cfg.AreaID,
		Timestamp: c.clk.Now(),
		// A controller links code for every registered suite, so it can
		// join a parent running any of them.
		SuiteMask: crypt.AllSuitesMask(),
	}, true)
}

// handleAreaJoinReq admits another controller's area as a child: the
// requesting controller becomes a regular member of our area.
func (c *Controller) handleAreaJoinReq(f *wire.Frame) {
	var req wire.AreaJoinReq
	// The request is sealed to our key and signed by the requester; we
	// must decrypt first to learn who signed, then verify.
	if err := wire.OpenBody(c.cfg.Keys, f.Body, &req); err != nil {
		c.cfg.Logf("%s: area-join request: %v", c.cfg.ID, err)
		return
	}
	entry, ok := c.directoryByID(req.ACID)
	if !ok {
		c.cfg.Logf("%s: area-join from unknown controller %q", c.cfg.ID, req.ACID)
		return
	}
	pub, err := peerPub(entry)
	if err != nil {
		return
	}
	if err := pub.Verify(f.Body, f.Sig); err != nil {
		c.cfg.Logf("%s: area-join from %s: bad signature", c.cfg.ID, req.ACID)
		return
	}
	if c.staleTimestamp(req.Timestamp) {
		c.cfg.Logf("%s: area-join from %s outside replay window", c.cfg.ID, req.ACID)
		return
	}
	if req.ACID == c.cfg.ID {
		return // refuse self-adoption
	}
	// Cycle prevention. Adopting our own parent would loop the tree
	// immediately; refuse.
	if c.parent != nil && c.parent.info.ID == req.ACID {
		c.sendSealed(req.ACAddr, pub, wire.KindAreaJoinDenied, wire.AreaJoinDenied{
			ACID: req.ACID, Reason: "requester is this area's parent",
		}, true)
		return
	}
	// Symmetric-orphan race: both of us are asking the other to become
	// our parent. Deterministic tie-break: the lower ID stays root and
	// adopts; the higher ID's request is denied.
	if c.reparentTarget == req.ACID {
		if c.cfg.ID < req.ACID {
			c.reparentTarget = "" // we adopt them instead
		} else {
			c.sendSealed(req.ACAddr, pub, wire.KindAreaJoinDenied, wire.AreaJoinDenied{
				ACID: req.ACID, Reason: "concurrent adoption; lower ID becomes the parent",
			}, true)
			return
		}
	}
	if _, already := c.members[req.ACID]; already {
		// Re-adoption after a transient failure: refresh its path.
		c.resendPath(req.ACID)
		return
	}
	if !c.suiteSupported(req.SuiteMask) {
		c.sendSealed(req.ACAddr, pub, wire.KindAreaJoinDenied, wire.AreaJoinDenied{
			ACID: req.ACID, Reason: "cipher suite not supported: area requires " + c.suite.Name(),
		}, true)
		return
	}

	seed := c.armRekeySeed()
	oldAreaKey := c.tree.AreaKey()
	res, err := c.tree.Join(keytree.MemberID(req.ACID))
	c.detKG.disarm()
	if err != nil {
		c.sendSealed(req.ACAddr, pub, wire.KindAreaJoinDenied, wire.AreaJoinDenied{
			ACID: req.ACID, Reason: err.Error(),
		}, true)
		return
	}
	c.rememberAreaKey(oldAreaKey)
	c.lastRekey = c.clk.Now()
	c.members[intern.ID(req.ACID)] = &memberEntry{
		id:        intern.ID(req.ACID),
		addr:      intern.ID(req.ACAddr),
		pubDER:    intern.DER(entry.PubDER),
		pub:       pub,
		lastSeen:  c.clk.Now(),
		isChildAC: true,
	}
	c.membersChanged()
	c.armMergeLatch()
	// tree.Join is Batch of one: journaled as a recBatch so replay takes
	// the identical code path.
	c.journalBatch(seed, []pendingAdmission{{entry: c.members[req.ACID]}}, nil)
	c.trace.Event(obs.ProtoReparent, req.ACID, "adopt-child",
		obs.String("child_area", req.AreaID), obs.Uint("epoch", uint64(res.Epoch)))
	c.sendSealed(req.ACAddr, pub, wire.KindAreaJoinAck, wire.AreaJoinAck{
		ParentID:     c.cfg.ID,
		ParentAreaID: c.cfg.AreaID,
		Path:         res.Joined[keytree.MemberID(req.ACID)],
		Epoch:        res.Epoch,
		Timestamp:    c.clk.Now(),
		Suite:        c.suite.ID(),
	}, true)
	c.multicastKeyUpdate(res)
	c.sendDisplaced(res)
}

// sendDisplaced unicasts fresh paths produced by a tree operation.
func (c *Controller) sendDisplaced(res *keytree.BatchResult) {
	for m, path := range res.Displaced {
		entry, ok := c.members[string(m)]
		if !ok {
			continue
		}
		c.sendSealed(entry.addr, entry.pub, wire.KindPathUpdate, wire.PathUpdate{
			AreaID: c.cfg.AreaID,
			Epoch:  res.Epoch,
			Path:   path,
		}, true)
	}
}

// handleAreaJoinAck installs a new parent after a successful area join.
func (c *Controller) handleAreaJoinAck(f *wire.Frame) {
	sender, ok := c.directoryByAddr(f.From)
	if !ok {
		return
	}
	pub, err := peerPub(sender)
	if err != nil {
		return
	}
	if err := pub.Verify(f.Body, f.Sig); err != nil {
		c.cfg.Logf("%s: area-join ack with bad signature from %s", c.cfg.ID, sender.ID)
		return
	}
	var ack wire.AreaJoinAck
	if err := wire.OpenBody(c.cfg.Keys, f.Body, &ack); err != nil {
		return
	}
	if ack.ParentID != c.reparentTarget {
		c.cfg.Logf("%s: unsolicited area-join ack from %s", c.cfg.ID, ack.ParentID)
		return
	}
	psuite, err := crypt.SuiteByID(ack.Suite)
	if err != nil {
		// A parent demanding a suite we do not link cannot relay for us;
		// treat the ack as a denial and try the next candidate.
		c.cfg.Logf("%s: parent %s negotiated unknown cipher suite %d; trying next candidate",
			c.cfg.ID, ack.ParentID, uint8(ack.Suite))
		c.tryNextParent()
		return
	}
	c.reparentTarget = ""
	now := c.clk.Now()
	c.parent = &parentState{
		info:     PeerInfo{ID: ack.ParentID, Addr: f.From, Pub: pub},
		areaID:   ack.ParentAreaID,
		view:     keytree.NewMemberView(ack.Path, ack.Epoch, keytree.NewSuiteEncryptor(psuite)),
		suite:    psuite,
		lastRecv: now,
		lastSent: now,
	}
	c.cfg.Logf("%s: parent is now %s (area %s)", c.cfg.ID, ack.ParentID, ack.ParentAreaID)
	c.trace.Event(obs.ProtoReparent, ack.ParentID, "parent-set",
		obs.String("parent_area", ack.ParentAreaID), obs.Uint("epoch", uint64(ack.Epoch)))
	c.journalParentSet()
}

// handleAreaJoinDenied abandons the current candidate and tries the next
// preferred parent.
func (c *Controller) handleAreaJoinDenied(f *wire.Frame) {
	var d wire.AreaJoinDenied
	if err := wire.DecodePlain(f.Body, &d); err != nil {
		return
	}
	if c.reparentTarget == "" {
		return
	}
	c.cfg.Logf("%s: area-join denied by candidate: %s", c.cfg.ID, d.Reason)
	c.tryNextParent()
}

// handleParentKeyUpdate applies a rekey of the parent's area to our
// member view of it.
func (c *Controller) handleParentKeyUpdate(f *wire.Frame) {
	if c.parent == nil || f.From != c.parent.info.Addr {
		return
	}
	_, err := wire.ReceiveKeyUpdate(f, &c.parent.kuKey, c.parent.areaID, c.parent.view)
	switch {
	case err == nil:
		// Keep the journaled parent view current so a restart can keep
		// forwarding upward without waiting for a path recovery.
		c.journalParentSet()
	case errors.Is(err, keytree.ErrEpochGap):
		c.requestParentPath(err)
	case errors.Is(err, keytree.ErrStale):
		// Duplicate delivery; nothing to recover.
	default:
		obs.KeyUpdateDropped(c.metrics, wire.KeyUpdateDropReason(err))
		c.cfg.Logf("%s: parent key update dropped: %v", c.cfg.ID, err)
		return
	}
	c.parent.lastRecv = c.clk.Now()
}

// requestParentPath asks the parent to resend our path in its area after
// a missed rekey. Each answer costs the parent an RSA seal and a
// signature, so — the member's rule (member.requestPath) — one missed
// epoch earns one request however many later updates reveal it, repeated
// only after TIdle without a PathUpdate.
func (c *Controller) requestParentPath(why error) {
	now, epoch := c.clk.Now(), c.parent.view.Epoch()
	if epoch == c.parent.pathAskedEpoch && now.Before(c.parent.pathRetryAt) {
		return
	}
	c.parent.pathAskedEpoch, c.parent.pathRetryAt = epoch, now.Add(c.cfg.TIdle)
	c.cfg.Logf("%s: %v; requesting parent-area path", c.cfg.ID, why)
	c.sendPlain(c.parent.info.Addr, wire.KindPathRequest, wire.PathRequest{
		MemberID: c.cfg.ID,
		Epoch:    epoch,
	}, false)
}

// handleParentPathUpdate rebases our view of the parent area.
func (c *Controller) handleParentPathUpdate(f *wire.Frame) {
	if c.parent == nil || f.From != c.parent.info.Addr {
		return
	}
	if err := c.parent.info.Pub.Verify(f.Body, f.Sig); err != nil {
		return
	}
	var pu wire.PathUpdate
	if err := wire.OpenBody(c.cfg.Keys, f.Body, &pu); err != nil || pu.AreaID != c.parent.areaID {
		return
	}
	if pu.Epoch < c.parent.view.Epoch() {
		// A replay: rebasing would roll the parent view — and the
		// journaled copy of it — back to old keys and an old epoch.
		obs.PathUpdateStale(c.metrics)
		return
	}
	c.parent.lastRecv = c.clk.Now()
	c.parent.view.Rebase(pu.Path, pu.Epoch)
	c.journalParentSet()
}

// handleACAlive refreshes parent liveness (§IV-A).
func (c *Controller) handleACAlive(f *wire.Frame) {
	if c.parent != nil && f.From == c.parent.info.Addr {
		c.parent.lastRecv = c.clk.Now()
	}
}

// parentHousekeeping sends member-side alive messages to the parent and
// detects parent silence (§IV-A, §IV-C).
func (c *Controller) parentHousekeeping(now time.Time) {
	// Retry/advance a pending re-parent attempt.
	if c.reparentTarget != "" && now.After(c.reparentDeadline) {
		c.tryNextParent()
		return
	}
	if c.parent == nil {
		// Orphaned with candidates configured: retry the list from the
		// top periodically, so a healed partition restores the tree.
		if c.reparentTarget == "" && len(c.cfg.PreferredParents) > 0 && now.After(c.orphanRetryAt) {
			c.orphanRetryAt = now.Add(time.Duration(DefaultSilenceFactor) * c.cfg.TIdle)
			c.tryNextParent()
		}
		return
	}
	if now.Sub(c.parent.lastSent) >= c.cfg.TActive {
		//lint:ignore journalorder the alive heartbeat carries no new state, so there is nothing to journal before it; the parent-clear journaled below is an independent transition on the silence path
		c.sendPlain(c.parent.info.Addr, wire.KindMemberAlive, wire.MemberAlive{MemberID: c.cfg.ID}, false)
		c.parent.lastSent = now
	}
	silence := now.Sub(c.parent.lastRecv)
	if silence > time.Duration(DefaultSilenceFactor)*c.cfg.TIdle {
		c.cfg.Logf("%s: parent %s silent for %v; re-parenting", c.cfg.ID, c.parent.info.ID, silence)
		c.trace.Event(obs.ProtoReparent, c.parent.info.ID, "parent-silent", obs.Dur("silence", silence))
		c.parent = nil
		c.journalParentClear()
		c.tryNextParent()
	}
}

// tryNextParent walks the preferred-parent list (§IV-C) and sends an
// area-join request to the first candidate that is not the failed parent
// and not already tried in this round.
func (c *Controller) tryNextParent() {
	start := 0
	if c.reparentTarget != "" {
		// Move past the candidate that just failed.
		for i, id := range c.cfg.PreferredParents {
			if id == c.reparentTarget {
				start = i + 1
				break
			}
		}
		c.reparentTarget = ""
	}
	for _, id := range c.cfg.PreferredParents[min(start, len(c.cfg.PreferredParents)):] {
		if id == c.cfg.ID {
			continue
		}
		if c.parent != nil && id == c.parent.info.ID {
			continue
		}
		entry, ok := c.directoryByID(id)
		if !ok {
			continue
		}
		pub, err := peerPub(entry)
		if err != nil {
			continue
		}
		c.requestParent(PeerInfo{ID: entry.ID, Addr: entry.Addr, Pub: pub})
		return
	}
	c.cfg.Logf("%s: no remaining parent candidates; operating as root", c.cfg.ID)
}
