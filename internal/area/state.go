package area

import (
	"fmt"
	"sort"
	"time"

	"mykil/internal/crypt"
	"mykil/internal/intern"
	"mykil/internal/keytree"
	"mykil/internal/wire"
	"mykil/internal/wire/codec"
)

// State is the minimal restorable state of §IV-C: "the complete auxiliary
// tree, public keys of the area members, area controllers and the
// registration server, and the identities of the parent area controller
// and all child area controllers". Multicast data in flight is expressly
// NOT included. It is the journal's snapshot format: replicas receive it
// only as the baseline of a segment push.
type State struct {
	AreaID string
	Tree   *keytree.Snapshot
	// Members carries each member's identity, address, public key,
	// sealed ticket, and child-controller flag.
	Members []MemberState
	// Parent identifies the parent controller and our view of its area.
	Parent *ParentStateExport
	// Seq numbered full-state pushes before replication collapsed onto
	// journal segments. Nothing sets or reads it now; it keeps its place
	// in the v1 encoding.
	Seq uint64
}

// MemberState is one member's replicated record.
type MemberState struct {
	ID         string
	Addr       string
	PubDER     []byte
	TicketBlob []byte
	IsChildAC  bool
}

// ParentStateExport captures the parent link. The member view of the
// parent area cannot be reconstructed from the parent's epoch alone, so
// the path keys are included.
type ParentStateExport struct {
	ID     string
	Addr   string
	PubDER []byte
	AreaID string
	Path   []keytree.PathKey
	Epoch  uint64
}

// exportState captures the controller's restorable state. Runs on the
// loop, or before Start while the builder still owns the controller.
func (c *Controller) exportState() *State {
	st := &State{
		AreaID: c.cfg.AreaID,
		Tree:   c.tree.Export(),
	}
	// Members in sorted ID order: identical membership must encode to
	// identical bytes (journal snapshots and replay checks compare them).
	st.Members = make([]MemberState, 0, len(c.members))
	for _, e := range c.members {
		st.Members = append(st.Members, MemberState{
			ID:         e.id,
			Addr:       e.addr,
			PubDER:     e.pubDER,
			TicketBlob: e.ticketBlob,
			IsChildAC:  e.isChildAC,
		})
	}
	sort.Slice(st.Members, func(i, j int) bool { return st.Members[i].ID < st.Members[j].ID })
	if c.parent != nil {
		st.Parent = &ParentStateExport{
			ID:     c.parent.info.ID,
			Addr:   c.parent.info.Addr,
			PubDER: c.parent.info.Pub.Marshal(),
			AreaID: c.parent.areaID,
			Path:   c.parent.view.PathKeys(),
			Epoch:  c.parent.view.Epoch(),
		}
	}
	return st
}

// BootMemberAddrs returns the member addresses before Start, while the
// builder still owns the controller single-threadedly. An election
// winner collects them for its Coordinator broadcast, so the advertised
// backup can relay the failover announcement.
func (c *Controller) BootMemberAddrs() []string {
	addrs := make([]string, 0, len(c.members))
	for _, e := range c.members {
		addrs = append(addrs, e.addr)
	}
	sort.Strings(addrs)
	return addrs
}

// BootEpoch returns the key-tree epoch before Start, under the same
// single-threaded ownership contract as BootMemberAddrs.
func (c *Controller) BootEpoch() uint64 { return c.tree.Epoch() }

// stateFormatV1 is the leading version byte of the encoded State. The
// blob rests in journal snapshots and travels as the baseline of segment
// pushes, so the format is pinned by golden bytes
// (testdata/golden_state.txt) and versioned for forward evolution.
const stateFormatV1 = 1

// memberStateMinWire is the smallest encoded MemberState: four empty
// length prefixes plus the child-AC flag.
const memberStateMinWire = 5

// AppendWire appends the member record's compact encoding.
func (m MemberState) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.ID)
	b = codec.AppendString(b, m.Addr)
	b = codec.AppendBytes(b, m.PubDER)
	b = codec.AppendBytes(b, m.TicketBlob)
	return codec.AppendBool(b, m.IsChildAC)
}

// ReadWire decodes a MemberState written by AppendWire.
func (m *MemberState) ReadWire(r *codec.Reader) error {
	m.ID = r.String()
	m.Addr = r.String()
	m.PubDER = r.Bytes()
	m.TicketBlob = r.Bytes()
	m.IsChildAC = r.Bool()
	return r.Err()
}

// AppendWire appends the parent link's compact encoding.
func (p ParentStateExport) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, p.ID)
	b = codec.AppendString(b, p.Addr)
	b = codec.AppendBytes(b, p.PubDER)
	b = codec.AppendString(b, p.AreaID)
	b = keytree.AppendPathKeys(b, p.Path)
	return codec.AppendUvarint(b, p.Epoch)
}

// ReadWire decodes a ParentStateExport written by AppendWire.
func (p *ParentStateExport) ReadWire(r *codec.Reader) error {
	p.ID = r.String()
	p.Addr = r.String()
	p.PubDER = r.Bytes()
	p.AreaID = r.String()
	var err error
	if p.Path, err = keytree.ReadPathKeys(r); err != nil {
		return err
	}
	p.Epoch = r.Uvarint()
	return r.Err()
}

// EncodeState serializes a State with the deterministic wire codec. The
// encoding is canonical — one byte sequence per state — so replica blobs
// diff cleanly and journal snapshots can be golden-pinned.
func EncodeState(st *State) ([]byte, error) {
	if st.Tree == nil {
		return nil, fmt.Errorf("area: encoding state: nil tree snapshot")
	}
	b := []byte{stateFormatV1}
	b = codec.AppendString(b, st.AreaID)
	b = codec.AppendUvarint(b, st.Seq)
	b = st.Tree.AppendWire(b)
	b = codec.AppendUvarint(b, uint64(len(st.Members)))
	for _, m := range st.Members {
		b = m.AppendWire(b)
	}
	if st.Parent != nil {
		b = codec.AppendBool(b, true)
		b = st.Parent.AppendWire(b)
	} else {
		b = codec.AppendBool(b, false)
	}
	return b, nil
}

// DecodeState reverses EncodeState. Structural validity of the tree is
// checked later by keytree.Import; this layer only guarantees the bytes
// parse canonically and no length prefix out-allocates the input.
func DecodeState(b []byte) (*State, error) {
	r := codec.NewReader(b)
	if v := r.Byte(); r.Err() == nil && v != stateFormatV1 {
		return nil, fmt.Errorf("area: decoding state: unknown format version %d", v)
	}
	st := &State{
		AreaID: r.String(),
		Seq:    r.Uvarint(),
	}
	var err error
	if st.Tree, err = keytree.ReadSnapshot(r); err != nil {
		return nil, fmt.Errorf("area: decoding state tree: %w", err)
	}
	if n := r.Count(memberStateMinWire); n > 0 {
		st.Members = make([]MemberState, n)
		for i := range st.Members {
			if err := st.Members[i].ReadWire(r); err != nil {
				return nil, fmt.Errorf("area: decoding member state: %w", err)
			}
		}
	}
	if r.Bool() {
		st.Parent = &ParentStateExport{}
		if err := st.Parent.ReadWire(r); err != nil {
			return nil, fmt.Errorf("area: decoding parent state: %w", err)
		}
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("area: decoding state: %w", err)
	}
	return st, nil
}

// newFromState builds a controller whose area state (tree, members,
// parent link) is restored from a decoded journal snapshot — the baseline
// step of NewFromJournal. The new controller serves under its own
// transport, identity, and key pair.
func newFromState(cfg Config, st *State) (*Controller, error) {
	cfg.AreaID = st.AreaID
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	tree, err := keytree.Import(st.Tree, c.treeConfig())
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("area: restoring tree: %w", err)
	}
	c.tree = tree
	now := c.clk.Now()
	for _, m := range st.Members {
		pub, err := crypt.ParsePublicKey(m.PubDER)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("area: member %s key: %w", m.ID, err)
		}
		c.members[intern.ID(m.ID)] = &memberEntry{
			id:         intern.ID(m.ID),
			addr:       intern.ID(m.Addr),
			pubDER:     intern.DER(m.PubDER),
			pub:        pub,
			lastSeen:   now,
			ticketBlob: m.TicketBlob,
			isChildAC:  m.IsChildAC,
		}
	}
	if st.Parent != nil {
		pub, err := crypt.ParsePublicKey(st.Parent.PubDER)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("area: parent key: %w", err)
		}
		// Snapshots predate per-link suite bytes; assume the
		// uniform-deployment suite (our own) until re-negotiated.
		c.parent = &parentState{
			info:     PeerInfo{ID: st.Parent.ID, Addr: st.Parent.Addr, Pub: pub},
			areaID:   st.Parent.AreaID,
			view:     keytree.NewMemberView(st.Parent.Path, st.Parent.Epoch, keytree.NewSuiteEncryptor(c.suite)),
			suite:    c.suite,
			lastRecv: now,
			lastSent: now,
		}
	}
	return c, nil
}

// AnnounceFailover multicasts a signed takeover notice to every member of
// the restored area and re-announces to the parent. Call after Start on a
// controller an election winner built with NewFromJournal.
func (c *Controller) AnnounceFailover() {
	c.enqueue(func() {
		body, err := wire.PlainBody(wire.ACFailover{
			AreaID:  c.cfg.AreaID,
			NewAddr: c.cfg.Transport.Addr(),
			NewPub:  c.cfg.Keys.Public().Marshal(),
			Epoch:   c.tree.Epoch(),
		})
		if err != nil {
			return
		}
		f := &wire.Frame{
			Kind: wire.KindACFailover,
			From: c.cfg.Transport.Addr(),
			Body: body,
			Sig:  c.cfg.Keys.Sign(body),
		}
		for _, entry := range c.members {
			c.send(entry.addr, f)
		}
		c.lastAreaSend = c.clk.Now()
		// Resume the member role in the parent area from the new address
		// by re-joining it.
		if c.parent != nil {
			parent := c.parent.info
			c.parent = nil
			c.requestParent(parent)
		}
	})
}

// replicaHousekeeping heartbeats every replica with the journal's last
// LSN (§IV-C: "Primary and backup servers are synchronized during any key
// updates, and whenever there is a change in the parent/child area
// controllers" — each such change is a journal record). A replica that
// sees the advertised position pass its own pulls the tail as a
// SegmentPush.
func (c *Controller) replicaHousekeeping(now time.Time) {
	if len(c.cfg.Replicas) == 0 || now.Sub(c.lastHeartbeat) < c.cfg.HeartbeatEvery {
		return
	}
	c.lastHeartbeat = now
	hb := wire.ReplicaHeartbeat{AreaID: c.cfg.AreaID, Seq: c.cfg.Journal.NextLSN() - 1}
	for _, rep := range c.cfg.Replicas {
		c.sendPlain(rep.Addr, wire.KindReplicaHeartbeat, hb, true)
	}
}

// replicaBySig finds the configured replica whose key signed the frame.
func (c *Controller) replicaBySig(f *wire.Frame) (PeerInfo, bool) {
	for _, rep := range c.cfg.Replicas {
		if rep.Pub.Verify(f.Body, f.Sig) == nil {
			return rep, true
		}
	}
	return PeerInfo{}, false
}

// handleSegmentPull answers a replica's catch-up request: the journal
// tail from the requested LSN, with a snapshot baseline when the tail
// was compacted away.
func (c *Controller) handleSegmentPull(f *wire.Frame) {
	rep, ok := c.replicaBySig(f)
	if !ok {
		c.cfg.Logf("%s: segment pull from unrecognized replica %s", c.cfg.ID, f.From)
		return
	}
	var req wire.SegmentPull
	if err := wire.DecodePlain(f.Body, &req); err != nil {
		return
	}
	if req.AreaID != "" && req.AreaID != c.cfg.AreaID {
		return
	}
	ex, err := c.cfg.Journal.ExportFrom(req.FromLSN)
	if err != nil {
		c.cfg.Logf("%s: exporting journal from LSN %d: %v", c.cfg.ID, req.FromLSN, err)
		return
	}
	c.sendSealed(f.From, rep.Pub, wire.KindSegmentPush, wire.SegmentPush{
		AreaID:         c.cfg.AreaID,
		FromLSN:        ex.FromLSN,
		NextLSN:        ex.NextLSN,
		SnapshotLSN:    ex.SnapshotLSN,
		Snapshot:       ex.Snapshot,
		Records:        ex.Records,
		HeartbeatEvery: c.cfg.HeartbeatEvery,
	}, true)
	n := len(ex.Snapshot)
	for _, r := range ex.Records {
		n += len(r)
	}
	c.cReplBytes.Add(int64(n))
}

// backupAddr returns the advertised replica's address or "".
func (c *Controller) backupAddr() string {
	if len(c.cfg.Replicas) == 0 {
		return ""
	}
	return c.cfg.Replicas[0].Addr
}

// backupPubDER returns the advertised replica's public key or nil.
func (c *Controller) backupPubDER() []byte {
	if len(c.cfg.Replicas) == 0 {
		return nil
	}
	return c.cfg.Replicas[0].Pub.Marshal()
}
