package area

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"

	"mykil/internal/crypt"
	"mykil/internal/intern"
	"mykil/internal/journal"
	"mykil/internal/keytree"
	"mykil/internal/wire/codec"
)

// This file is the controller's durability layer: every state mutation the
// command loop performs is journaled as one compact record, and recovery
// replays those records over the newest snapshot to rebuild the identical
// controller — same member set, same ticket blobs, and (critically) the
// same tree KEYS, so surviving members keep decrypting rekeys after a
// restart with zero rejoins.
//
// Key determinism: tree keys are random, so a naive replay would draw
// different keys than the live run and strand every member. Instead, each
// rekey operation journals a random 32-byte subseed; keys for that
// operation are derived as SHA-256(subseed ‖ counter), and keytree draws
// them in a deterministic order (joins in slice order, splits child-by-
// child, changed nodes in sorted ID order). Replaying the record with the
// recorded subseed therefore regenerates byte-identical keys. Fresh
// subseeds keep live keys unpredictable; the journal file is as sensitive
// as the key material it implies and inherits the same trust boundary as
// the controller host.
//
// Write ordering: a record is appended AFTER the in-memory mutation
// succeeds but BEFORE any frame goes to members. A crash before the
// append loses a mutation no member observed (the joiner's handshake
// times out and retries); a crash after it restores state the members
// already act on.

// Journal record kinds. One byte leads every record.
const (
	// recBatch covers every membership rekey: joins, rejoins, leaves,
	// evictions, and child-AC adoptions (tree.Join ≡ Batch of one).
	recBatch byte = 1
	// recFreshness is a §III-E condition-2 area-key rotation.
	recFreshness byte = 2
	// recParentSet records the parent link and our current member view of
	// the parent area (set on adoption, refreshed on parent rekeys).
	recParentSet byte = 3
	// recParentClear records losing the parent (silence or failover).
	recParentClear byte = 4
	// recTouch refreshes one member's address/ticket in place (the
	// own-area rejoin fast path, which rekeys nothing).
	recTouch byte = 5
)

// rekeySeedLen is the journaled per-operation subseed length.
const rekeySeedLen = 32

// DefaultSnapshotEvery is the record cadence between journal snapshots.
const DefaultSnapshotEvery = 256

// replayKeyGen derives tree keys from a journaled subseed. While armed,
// draw i yields SHA-256(seed ‖ LE64(i)) truncated to the symmetric key
// length; disarmed, the controller falls back to crypt.NewSymKey.
type replayKeyGen struct {
	armed bool
	seed  [rekeySeedLen]byte
	ctr   uint64
}

func (g *replayKeyGen) arm(seed [rekeySeedLen]byte) {
	g.armed, g.seed, g.ctr = true, seed, 0
}

func (g *replayKeyGen) disarm() { g.armed = false }

func (g *replayKeyGen) next() crypt.SymKey {
	var buf [rekeySeedLen + 8]byte
	copy(buf[:rekeySeedLen], g.seed[:])
	binary.LittleEndian.PutUint64(buf[rekeySeedLen:], g.ctr)
	g.ctr++
	sum := sha256.Sum256(buf[:])
	var k crypt.SymKey
	copy(k[:], sum[:crypt.SymKeyLen])
	return k
}

// treeKeyGen is the KeyGen every controller tree uses: seeded while a
// journaled rekey (live or replayed) is in progress, random otherwise.
func (c *Controller) treeKeyGen() crypt.SymKey {
	if c.detKG.armed {
		return c.detKG.next()
	}
	return crypt.NewSymKey()
}

// treeConfig centralizes the keytree configuration so New and the journal
// restore build identically-behaving trees.
func (c *Controller) treeConfig() keytree.Config {
	return keytree.Config{
		Arity:     c.cfg.TreeArity,
		KeyGen:    c.treeKeyGen,
		Parallel:  c.treeParallel,
		Encryptor: keytree.NewSuiteEncryptor(c.suite),
		// The controller consumes each BatchResult synchronously (the
		// update is wire-encoded inside applyBatch before any further
		// tree operation), so the zero-alloc scratch-reusing path is safe.
		ReuseUpdates: true,
	}
}

// armRekeySeed draws and arms a fresh subseed for one rekey operation
// when journaling is on. Runs on the loop; the caller must disarm after
// the tree operation completes.
func (c *Controller) armRekeySeed() (seed [rekeySeedLen]byte) {
	if c.cfg.Journal == nil {
		return
	}
	if _, err := io.ReadFull(rand.Reader, seed[:]); err != nil {
		panic(fmt.Sprintf("area: reading randomness: %v", err))
	}
	c.detKG.arm(seed)
	return seed
}

// journalAppend writes one record and snapshots at the configured
// cadence. An append failure is loud but non-fatal: the controller keeps
// serving (availability over durability), and the error marks the journal
// suspect in the log.
func (c *Controller) journalAppend(payload []byte) {
	if c.cfg.Journal == nil {
		return
	}
	if _, err := c.cfg.Journal.Append(payload); err != nil {
		c.cfg.Logf("%s: JOURNAL APPEND FAILED (restart durability degraded): %v", c.cfg.ID, err)
		return
	}
	c.recsSinceSnap++
	if c.recsSinceSnap >= c.cfg.SnapshotEvery {
		c.journalSnapshot()
	}
}

// journalSnapshot writes the full controller state as a journal snapshot,
// letting older segments compact away.
func (c *Controller) journalSnapshot() {
	if c.cfg.Journal == nil {
		return
	}
	blob, err := EncodeState(c.exportState())
	if err != nil {
		c.cfg.Logf("%s: encoding journal snapshot: %v", c.cfg.ID, err)
		return
	}
	if err := c.cfg.Journal.Snapshot(blob); err != nil {
		c.cfg.Logf("%s: writing journal snapshot: %v", c.cfg.ID, err)
		return
	}
	c.recsSinceSnap = 0
}

// journalBatch records one membership rekey (the applyBatch and child-AC
// adoption paths).
func (c *Controller) journalBatch(seed [rekeySeedLen]byte, joins []pendingAdmission, leaves []string) {
	if c.cfg.Journal == nil {
		return
	}
	b := []byte{recBatch}
	b = codec.AppendRaw(b, seed[:])
	b = codec.AppendUvarint(b, uint64(len(joins)))
	for _, p := range joins {
		b = codec.AppendString(b, p.entry.id)
		b = codec.AppendString(b, p.entry.addr)
		b = codec.AppendBytes(b, p.entry.pubDER)
		b = codec.AppendBytes(b, p.entry.ticketBlob)
		b = codec.AppendBool(b, p.entry.isChildAC)
		b = codec.AppendBool(b, p.rejoin)
	}
	b = codec.AppendUvarint(b, uint64(len(leaves)))
	for _, id := range leaves {
		b = codec.AppendString(b, id)
	}
	c.journalAppend(b)
}

// journalFreshness records a no-membership area-key rotation.
func (c *Controller) journalFreshness(seed [rekeySeedLen]byte) {
	if c.cfg.Journal == nil {
		return
	}
	b := []byte{recFreshness}
	b = codec.AppendRaw(b, seed[:])
	c.journalAppend(b)
}

// journalParentSet records the current parent link and view. Called on
// adoption and whenever the view's key material changes (parent rekeys
// and rebases), so a restart resumes with the freshest parent-area keys
// it held.
func (c *Controller) journalParentSet() {
	if c.cfg.Journal == nil || c.parent == nil {
		return
	}
	pse := ParentStateExport{
		ID:     c.parent.info.ID,
		Addr:   c.parent.info.Addr,
		PubDER: c.parent.info.Pub.Marshal(),
		AreaID: c.parent.areaID,
		Path:   c.parent.view.PathKeys(),
		Epoch:  c.parent.view.Epoch(),
	}
	c.journalAppend(pse.AppendWire([]byte{recParentSet}))
}

// journalParentClear records the loss of the parent link.
func (c *Controller) journalParentClear() {
	if c.cfg.Journal == nil {
		return
	}
	c.journalAppend([]byte{recParentClear})
}

// journalTouch records an in-place member refresh (address and ticket).
func (c *Controller) journalTouch(e *memberEntry) {
	if c.cfg.Journal == nil {
		return
	}
	b := []byte{recTouch}
	b = codec.AppendString(b, e.id)
	b = codec.AppendString(b, e.addr)
	b = codec.AppendBytes(b, e.ticketBlob)
	c.journalAppend(b)
}

// NewFromJournal builds a controller from a journal recovery: decode the
// snapshot (if any) into a state restore, then replay the record tail.
// The result is ready for Start; it serves the identical member set and
// keytree — epoch and keys included — that the crashed controller last
// journaled, so members notice nothing beyond the outage itself.
func NewFromJournal(cfg Config, rec *journal.Recovery) (*Controller, error) {
	var c *Controller
	var err error
	if rec != nil && rec.Snapshot != nil {
		st, derr := DecodeState(rec.Snapshot)
		if derr != nil {
			return nil, fmt.Errorf("area: journal snapshot: %w", derr)
		}
		c, err = newFromState(cfg, st)
	} else {
		c, err = New(cfg)
	}
	if err != nil {
		return nil, err
	}
	if rec != nil {
		for i, p := range rec.Records {
			if err := c.replayRecord(p); err != nil {
				c.Close()
				return nil, fmt.Errorf("area: replaying journal record %d/%d: %w", i+1, len(rec.Records), err)
			}
		}
	}
	// The on-disk state is already current; restart the snapshot cadence.
	c.recsSinceSnap = 0
	c.reconcileDirectory()
	return c, nil
}

// reconcileDirectory refreshes recovered controller-peer endpoints —
// the parent and child-AC member entries — from the boot-time
// directory. The journal captures where peers lived when the record was
// written; after a whole-deployment restart those controllers may be
// back on new addresses (and, in deployments that do not persist key
// pairs, new keys), while the directory handed to this boot is current
// truth. A no-op when identities are stable across the restart. Regular
// members are not in the directory; their stale entries age out through
// the §IV-A silence eviction.
func (c *Controller) reconcileDirectory() {
	for id, e := range c.members {
		if !e.isChildAC {
			continue
		}
		info, ok := c.directoryByID(id)
		if !ok {
			continue
		}
		pub, err := peerPub(info)
		if err != nil {
			continue
		}
		e.addr = info.Addr
		e.pubDER = info.PubDER
		e.pub = pub
	}
	if c.parent == nil {
		return
	}
	info, ok := c.directoryByID(c.parent.info.ID)
	if !ok {
		return
	}
	pub, err := peerPub(info)
	if err != nil {
		return
	}
	c.parent.info.Addr = info.Addr
	c.parent.info.Pub = pub
}

// replayRecord applies one journal record to a freshly restored
// controller. Replay mutates state only — no frames are sent; members
// already hold the results of these operations.
func (c *Controller) replayRecord(p []byte) error {
	r := codec.NewReader(p)
	switch kind := r.Byte(); kind {
	case recBatch:
		var seed [rekeySeedLen]byte
		copy(seed[:], r.Raw(rekeySeedLen))
		// Minimum encoded join: four empty length prefixes + two bools.
		n := r.Count(6)
		joins := make([]pendingAdmission, 0, n)
		now := c.clk.Now()
		for i := 0; i < n; i++ {
			e := &memberEntry{
				id:         intern.ID(r.String()),
				addr:       intern.ID(r.String()),
				pubDER:     intern.DER(r.Bytes()),
				ticketBlob: r.Bytes(),
				isChildAC:  r.Bool(),
				lastSeen:   now,
			}
			rejoin := r.Bool()
			if r.Err() != nil {
				return r.Err()
			}
			pub, err := crypt.ParsePublicKey(e.pubDER)
			if err != nil {
				return fmt.Errorf("member %s key: %w", e.id, err)
			}
			e.pub = pub
			joins = append(joins, pendingAdmission{entry: e, rejoin: rejoin})
		}
		ln := r.Count(1)
		leaves := make([]string, ln)
		for i := range leaves {
			leaves[i] = r.String()
		}
		if err := r.Finish(); err != nil {
			return err
		}
		joinIDs := make([]keytree.MemberID, len(joins))
		for i, p := range joins {
			joinIDs[i] = keytree.MemberID(p.entry.id)
		}
		leaveIDs := make([]keytree.MemberID, len(leaves))
		for i, id := range leaves {
			leaveIDs[i] = keytree.MemberID(id)
		}
		c.detKG.arm(seed)
		_, err := c.tree.Batch(joinIDs, leaveIDs)
		c.detKG.disarm()
		if err != nil {
			return err
		}
		for _, id := range leaves {
			delete(c.members, id)
		}
		for _, p := range joins {
			c.members[p.entry.id] = p.entry
		}
	case recFreshness:
		var seed [rekeySeedLen]byte
		copy(seed[:], r.Raw(rekeySeedLen))
		if err := r.Finish(); err != nil {
			return err
		}
		c.detKG.arm(seed)
		c.tree.RefreshAreaKey()
		c.detKG.disarm()
	case recParentSet:
		var pse ParentStateExport
		if err := pse.ReadWire(r); err != nil {
			return err
		}
		if err := r.Finish(); err != nil {
			return err
		}
		pub, err := crypt.ParsePublicKey(pse.PubDER)
		if err != nil {
			return fmt.Errorf("parent key: %w", err)
		}
		now := c.clk.Now()
		// The parent-set record predates per-link suite bytes; restored
		// links assume the uniform-deployment suite (our own) until the
		// next AreaJoinAck re-negotiates.
		c.parent = &parentState{
			info:     PeerInfo{ID: pse.ID, Addr: pse.Addr, Pub: pub},
			areaID:   pse.AreaID,
			view:     keytree.NewMemberView(pse.Path, pse.Epoch, keytree.NewSuiteEncryptor(c.suite)),
			suite:    c.suite,
			lastRecv: now,
			lastSent: now,
		}
	case recParentClear:
		if err := r.Finish(); err != nil {
			return err
		}
		c.parent = nil
	case recTouch:
		id := r.String()
		addr := r.String()
		blob := r.Bytes()
		if err := r.Finish(); err != nil {
			return err
		}
		if e, ok := c.members[id]; ok {
			e.addr = addr
			e.ticketBlob = blob
			e.lastSeen = c.clk.Now()
		}
	default:
		return fmt.Errorf("unknown record kind %d", kind)
	}
	return nil
}
