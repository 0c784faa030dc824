package area

import (
	"time"

	"mykil/internal/crypt"
	"mykil/internal/intern"
	"mykil/internal/keytree"
	"mykil/internal/obs"
	"mykil/internal/wire"
)

// flush applies all pending join/leave events in one rekey operation
// (§III-E) and distributes the results.
func (c *Controller) flush() {
	joins := c.pendingJoins
	leaves := c.pendingLeaves
	c.pendingJoins = nil
	c.pendingLeaves = nil
	c.updateNeeded = false
	if len(joins) == 0 && len(leaves) == 0 {
		return
	}
	c.applyBatch(joins, leaves)
}

// applyBatch performs one tree operation covering the given admissions and
// leaves, then sends: step-7/step-6 welcomes to joiners, fresh paths to
// displaced members, and each other member its tagged part of the rekey.
func (c *Controller) applyBatch(joins []pendingAdmission, leaves []string) {
	// Drain in-flight data-plane jobs first: data sealed under the
	// outgoing area key must reach the wire before the key update does.
	c.dataBarrier()

	joinIDs := make([]keytree.MemberID, 0, len(joins))
	for _, p := range joins {
		joinIDs = append(joinIDs, keytree.MemberID(p.entry.id))
	}
	leaveIDs := make([]keytree.MemberID, 0, len(leaves))
	for _, id := range leaves {
		leaveIDs = append(leaveIDs, keytree.MemberID(id))
	}

	seed := c.armRekeySeed()
	oldAreaKey := c.tree.AreaKey()
	rekeyStart := c.clk.Now()
	res, err := c.tree.Batch(joinIDs, leaveIDs)
	c.detKG.disarm()
	if err != nil {
		c.cfg.Logf("%s: rekey batch failed: %v", c.cfg.ID, err)
		return
	}
	c.rememberAreaKey(oldAreaKey)
	c.lastRekey = c.clk.Now()
	c.hRekeySeconds.Observe(c.lastRekey.Sub(rekeyStart).Seconds())
	c.cRekeys.Inc()
	c.cRekeyEntries.Add(int64(res.Update.NumKeys()))
	var nJoins, nRejoins int64
	for _, p := range joins {
		if p.rejoin {
			nRejoins++
		} else {
			nJoins++
		}
	}
	c.cRejoins.Add(nRejoins)
	c.cJoins.Add(nJoins)
	c.cLeaves.Add(int64(len(leaves)))
	c.trace.Event(obs.ProtoRekey, c.cfg.AreaID, "batch-rekey",
		obs.Int("joins", nJoins), obs.Int("rejoins", nRejoins),
		obs.Int("leaves", int64(len(leaves))),
		obs.Int("entries", int64(res.Update.NumKeys())),
		obs.Uint("epoch", uint64(res.Epoch)))

	for _, id := range leaves {
		delete(c.members, id)
	}
	for _, p := range joins {
		c.members[p.entry.id] = p.entry
	}
	c.membersChanged()
	c.armMergeLatch()

	// Durability point: the mutation is journaled before any member sees
	// its effects, so a crash from here on replays to this exact state.
	c.journalBatch(seed, joins, leaves)

	// Unicast welcomes to joiners (join step 7 / rejoin step 6) and fresh
	// paths to members displaced by splits (§III-C). The per-member RSA
	// sealing — the dominant cost of a large batch — fans out across the
	// worker pool; sends happen in order afterwards.
	jobs := make([]sealJob, 0, len(joins)+len(res.Displaced))
	for _, p := range joins {
		path := res.Joined[keytree.MemberID(p.entry.id)]
		if p.rejoin {
			c.trace.Step(obs.ProtoRejoin, p.entry.id, 6, "RejoinWelcome",
				obs.Uint("epoch", uint64(res.Epoch)))
			jobs = append(jobs, sealJob{
				addr: p.entry.addr, to: p.entry.pub, kind: wire.KindRejoinWelcome,
				body: wire.RejoinWelcome{
					TicketBlob: p.entry.ticketBlob,
					Path:       path,
					Epoch:      res.Epoch,
					AreaID:     c.cfg.AreaID,
					BackupAddr: c.backupAddr(),
					BackupPub:  c.backupPubDER(),
					Suite:      c.suite.ID(),
				},
				sign: true,
			})
		} else {
			c.trace.Step(obs.ProtoJoin, p.entry.id, 7, "JoinWelcome",
				obs.Uint("epoch", uint64(res.Epoch)))
			jobs = append(jobs, sealJob{
				addr: p.entry.addr, to: p.entry.pub, kind: wire.KindJoinWelcome,
				body: wire.JoinWelcome{
					NonceCAPlus1: p.nonceCA + 1,
					TicketBlob:   p.entry.ticketBlob,
					Path:         path,
					Epoch:        res.Epoch,
					AreaID:       c.cfg.AreaID,
					BackupAddr:   c.backupAddr(),
					BackupPub:    c.backupPubDER(),
					Suite:        c.suite.ID(),
				},
			})
		}
	}
	for m, path := range res.Displaced {
		entry, ok := c.members[string(m)]
		if !ok {
			continue
		}
		jobs = append(jobs, sealJob{
			addr: entry.addr, to: entry.pub, kind: wire.KindPathUpdate,
			body: wire.PathUpdate{
				AreaID: c.cfg.AreaID,
				Epoch:  res.Epoch,
				Path:   path,
			},
			sign: true,
		})
	}
	c.sealSends(jobs)

	// Send the rekey to the remaining members, each its own part under
	// its own leaf key's tag (§III-E signs one multicast instead; DESIGN
	// §8).
	c.multicastKeyUpdate(res)
}

// multicastKeyUpdate distributes a rekey message to every member that did
// not receive fresh keys by unicast (res.Joined, res.Displaced). The
// update is cut so that each member is sent its own path's entries
// (keytree.Cut), tagged under a key derived from the member's leaf key,
// which only the member and this controller hold: nothing is signed.
func (c *Controller) multicastKeyUpdate(res *keytree.BatchResult) {
	u := res.Update
	if u == nil || len(u.Entries) == 0 {
		return
	}
	c.kuIDs, c.kuAddrs = c.kuIDs[:0], c.kuAddrs[:0]
	for id, entry := range c.members {
		m := keytree.MemberID(id)
		if _, fresh := res.Joined[m]; fresh {
			continue
		}
		if _, fresh := res.Displaced[m]; fresh {
			continue
		}
		c.kuIDs = append(c.kuIDs, m)
		c.kuAddrs = append(c.kuAddrs, entry.addr)
	}
	c.tree.Cut(u, c.kuIDs, &c.kuCut)
	frames := wire.KeyUpdateFrames(c.cfg.Transport.Addr(), c.cfg.AreaID, u.Epoch, &c.kuCut)

	var sent, parts int64
	for i, addr := range c.kuAddrs {
		f := &frames[i]
		if f.Kind == 0 {
			c.cfg.Logf("%s: key update for %s: %v", c.cfg.ID, c.kuIDs[i], keytree.ErrMemberUnknown)
			continue
		}
		sent += int64(len(f.Body))
		parts++
		c.send(addr, f)
	}
	c.cRekeyParts.Add(parts)
	c.cRekeyBytes.Add(sent)
	c.lastAreaSend = c.clk.Now()
}

// freshnessRekey rotates the area key with no membership change (§III-E
// condition 2).
func (c *Controller) freshnessRekey() {
	c.dataBarrier()
	seed := c.armRekeySeed()
	oldAreaKey := c.tree.AreaKey()
	rekeyStart := c.clk.Now()
	res := c.tree.RefreshAreaKey()
	c.detKG.disarm()
	c.journalFreshness(seed)
	c.rememberAreaKey(oldAreaKey)
	c.lastRekey = c.clk.Now()
	c.hRekeySeconds.Observe(c.lastRekey.Sub(rekeyStart).Seconds())
	c.cRekeys.Inc()
	c.cRekeyEntries.Add(int64(res.Update.NumKeys()))
	c.trace.Event(obs.ProtoRekey, c.cfg.AreaID, "freshness-rekey",
		obs.Int("entries", int64(res.Update.NumKeys())),
		obs.Uint("epoch", uint64(res.Epoch)))
	c.multicastKeyUpdate(res)
}

// handleData forwards one multicast data packet per the Iolus-style rules
// of Fig. 2. A §III-E batching flush, if pending, happens first so members
// hold current keys when the data arrives.
//
// Nothing about the packet is committed — its sequence number, the flush
// it may trigger — until K_d opens under a key this controller holds, so
// an unauthenticated frame naming a victim origin and a huge Seq cannot
// make every later packet of that origin look like a duplicate.
func (c *Controller) handleData(f *wire.Frame) {
	// d.EncKey and d.Payload borrow f's delivery buffer. They are only
	// read (opened here into a fresh key; relayed or re-encoded into a new
	// body by the data-plane job), never written.
	var d wire.Data
	if err := wire.DecodePlain(f.Body, &d); err != nil {
		return
	}
	// Dedup per origin. Sequences start at 1.
	if d.Seq <= c.seenSeq[d.Origin] {
		return
	}
	if entry, ok := c.members[d.Origin]; ok && entry.addr == f.From {
		entry.lastSeen = c.clk.Now()
	}

	var dataKey, under crypt.SymKey
	var err error
	switch {
	case d.FromArea == c.cfg.AreaID:
		// A sender whose rekey was still in flight sealed K_d under an area
		// key we have since rotated: recover it from the history.
		dataKey, under, err = openAreaDataKey(c.suite, c.tree.AreaKey(), c.areaKeyHistory, d.EncKey)
	case c.parent != nil && d.FromArea == c.parent.areaID:
		c.parent.lastRecv = c.clk.Now()
		dataKey, err = keytree.NewSuiteEncryptor(c.parent.suite).DecryptKey(c.parent.view.AreaKey(), d.EncKey)
	default:
		c.cfg.Logf("%s: data for foreign area %q dropped", c.cfg.ID, d.FromArea)
		return
	}
	if err != nil {
		c.cfg.Logf("%s: undecipherable data from %s in area %s dropped", c.cfg.ID, d.Origin, d.FromArea)
		return
	}
	c.seenSeq[intern.ID(d.Origin)] = d.Seq

	// §III-E: "The keys are updated just before the multicast data is
	// forwarded."
	if c.updateNeeded {
		c.flush()
	}

	if d.FromArea == c.cfg.AreaID {
		c.relayOwnAreaData(d, f, dataKey, under)
	} else {
		c.relayParentData(d, f.From, dataKey)
	}
}

// relayOwnAreaData handles an authenticated packet from one of our members
// (or a child controller injecting into our area): relay within the area
// and forward up (Fig. 2). The loop snapshots key material and
// destinations; the sealing and encoding run as one ordered data-plane
// job. A packet whose K_d is sealed under the current area key is relayed
// as the very body it arrived in; one sealed under a key since rotated
// (by this packet's own flush, or a rekey the sender had not yet seen) is
// re-sealed under the current key first.
func (c *Controller) relayOwnAreaData(d wire.Data, f *wire.Frame, dataKey, under crypt.SymKey) {
	suite := c.suite
	areaKey := c.tree.AreaKey()
	out := dataOut{dests: c.relayAddrs(), except: f.From}
	var parentArea string
	var parentKey crypt.SymKey
	var parentSuite crypt.Suite
	if c.parent != nil {
		out.upAddr = c.parent.info.Addr
		parentArea = c.parent.areaID
		parentKey = c.parent.view.AreaKey()
		parentSuite = c.parent.suite
		c.parent.lastSent = c.clk.Now()
	}
	c.lastAreaSend = c.clk.Now()
	self, body := c.cfg.Transport.Addr(), f.Body

	c.submitData(func() dataOut {
		if under != areaKey {
			d.EncKey = suite.Seal(areaKey, dataKey[:])
			body = d.Encode()
			c.trace.Event(obs.ProtoReseal, d.Origin, "reseal-stale-key")
		}
		out.frame = &wire.Frame{Kind: wire.KindData, From: self, Body: body}
		c.cDataRelayed.Inc()
		if out.upAddr != "" {
			// The Iolus-style hop re-seal crosses the suite boundary too:
			// the parent link's negotiated suite seals the upward copy.
			up := d
			up.FromArea = parentArea
			up.EncKey = parentSuite.Seal(parentKey, dataKey[:])
			out.up = &wire.Frame{Kind: wire.KindData, From: self, Body: up.Encode()}
			c.cDataForwarded.Inc()
			c.trace.Event(obs.ProtoReseal, d.Origin, "reseal-up", obs.String("to_area", parentArea))
		}
		return out
	})
}

// relayParentData handles an authenticated packet arriving from the
// parent's area: re-seal the data key under our own area key and relay
// down (Fig. 2).
func (c *Controller) relayParentData(d wire.Data, from string, dataKey crypt.SymKey) {
	suite := c.suite
	areaKey := c.tree.AreaKey()
	areaID := c.cfg.AreaID
	out := dataOut{dests: c.relayAddrs(), except: from}
	c.lastAreaSend = c.clk.Now()
	self := c.cfg.Transport.Addr()

	c.submitData(func() dataOut {
		d.FromArea = areaID
		d.EncKey = suite.Seal(areaKey, dataKey[:])
		out.frame = &wire.Frame{Kind: wire.KindData, From: self, Body: d.Encode()}
		c.cDataRelayed.Inc()
		c.trace.Event(obs.ProtoReseal, d.Origin, "reseal-down", obs.String("to_area", areaID))
		return out
	})
}

// relayAddrs returns every member's address: the destinations of a
// relayed data packet, its sender skipped at send time. The slice is
// built once per membership and shared, read-only, by every data-plane
// job until the membership changes (membersChanged), so a packet costs
// no per-member work on the loop.
func (c *Controller) relayAddrs() []string {
	if c.memberAddrs == nil {
		addrs := make([]string, 0, len(c.members))
		for _, entry := range c.members {
			addrs = append(addrs, entry.addr)
		}
		c.memberAddrs = addrs
	}
	return c.memberAddrs
}

// membersChanged drops the relay-address snapshot after c.members, or a
// member's address, changed; the next relayed packet builds a fresh one.
// In-flight jobs keep the slice they were given, which is never written.
// (Restore and journal replay fill c.members before the first packet, so
// only the live paths call it.)
func (c *Controller) membersChanged() { c.memberAddrs = nil }

// areaKeyHistoryCap bounds how many rotated-out area keys are kept for
// in-flight data recovery.
const areaKeyHistoryCap = 8

// rememberAreaKey pushes a rotated-out area key onto the history.
func (c *Controller) rememberAreaKey(k crypt.SymKey) {
	c.areaKeyHistory = append([]crypt.SymKey{k}, c.areaKeyHistory...)
	if len(c.areaKeyHistory) > areaKeyHistoryCap {
		c.areaKeyHistory = c.areaKeyHistory[:areaKeyHistoryCap]
	}
}

// openAreaDataKey recovers K_d from an own-area data packet, trying the
// current area key first and then recent predecessors, all under the
// area's cipher suite. under is the area key that opened it.
func openAreaDataKey(s crypt.Suite, current crypt.SymKey, history []crypt.SymKey, encKey []byte) (key, under crypt.SymKey, err error) {
	enc := keytree.NewSuiteEncryptor(s)
	if key, err = enc.DecryptKey(current, encKey); err == nil {
		return key, current, nil
	}
	for _, old := range history {
		if key, err = enc.DecryptKey(old, encKey); err == nil {
			return key, old, nil
		}
	}
	return crypt.SymKey{}, crypt.SymKey{}, crypt.ErrDecrypt
}

// handleMemberAlive refreshes a member's liveness (§IV-A).
func (c *Controller) handleMemberAlive(f *wire.Frame) {
	var msg wire.MemberAlive
	if err := wire.DecodePlain(f.Body, &msg); err != nil {
		return
	}
	if entry, ok := c.members[msg.MemberID]; ok && entry.addr == f.From {
		entry.lastSeen = c.clk.Now()
	}
}

// multicastAlive sends the §IV-A alive message within the area.
func (c *Controller) multicastAlive() {
	body, err := wire.PlainBody(wire.ACAlive{AreaID: c.cfg.AreaID, Epoch: c.tree.Epoch()})
	if err != nil {
		return
	}
	f := &wire.Frame{Kind: wire.KindACAlive, From: c.cfg.Transport.Addr(), Body: body}
	for _, entry := range c.members {
		c.send(entry.addr, f)
	}
	c.trace.Event(obs.ProtoAlive, c.cfg.AreaID, "ACAlive",
		obs.Int("members", int64(len(c.members))), obs.Uint("epoch", uint64(c.tree.Epoch())))
	c.lastAreaSend = c.clk.Now()
}

// evictSilentMembers terminates membership of members silent for
// 5×T_active (§IV-A/§IV-C).
func (c *Controller) evictSilentMembers(now time.Time) {
	threshold := time.Duration(DefaultSilenceFactor) * c.cfg.TActive
	var gone []string
	for id, entry := range c.members {
		if entry.lastSeen.IsZero() {
			continue // already queued to leave in the pending batch
		}
		if now.Sub(entry.lastSeen) > threshold {
			gone = append(gone, id)
		}
	}
	for _, id := range gone {
		c.cfg.Logf("%s: terminating silent member %s", c.cfg.ID, id)
		c.cEvictions.Inc()
		c.trace.Event(obs.ProtoAlive, id, "evict-silent")
		c.removeMember(id)
	}
}
