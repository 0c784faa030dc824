// Package area implements Mykil's area controller (AC): the node that
// manages one area's cryptographic keys (§III), forwards multicast data
// between areas (Fig. 2), runs the member-side join step (Fig. 3, steps
// 4/6/7) and the rejoin protocol (Fig. 7), batches rekey operations
// (§III-E), detects member and parent failures (§IV-A), re-parents after
// a parent controller failure (§IV-C), and ships its journal to the
// replicas that stand by to take the area over (§IV-C).
package area

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mykil/internal/clock"
	"mykil/internal/crypt"
	"mykil/internal/journal"
	"mykil/internal/keytree"
	"mykil/internal/node"
	"mykil/internal/obs"
	"mykil/internal/ticket"
	"mykil/internal/transport"
	"mykil/internal/wire"
)

// PartitionPolicy selects the §IV-B behaviour when the previous area
// controller cannot be reached during a rejoin.
type PartitionPolicy int

const (
	// DenyOnPartition refuses the rejoin (option 1: safe against
	// ticket-sharing cohorts, unfair to legitimate mobile members).
	DenyOnPartition PartitionPolicy = iota + 1
	// AdmitOnPartition admits without verification after checking the
	// ticket's embedded NIC identity (option 2: keeps service available
	// across partitions).
	AdmitOnPartition
)

// Default protocol timing. These mirror the paper's relationships:
// T_active >> T_idle, disconnection declared after five silent periods.
const (
	DefaultTIdle          = 2 * time.Second
	DefaultTActive        = 10 * time.Second
	DefaultSilenceFactor  = 5
	DefaultRekeyInterval  = 30 * time.Second
	DefaultVerifyTimeout  = 5 * time.Second
	DefaultReplayWindow   = 5 * time.Minute
	DefaultTicketValidity = 24 * time.Hour
)

// Errors returned by controller operations.
var (
	ErrStopped = errors.New("area: controller stopped")
)

// PeerInfo identifies another controller: its ID, address, and public
// key.
type PeerInfo struct {
	ID   string
	Addr string
	Pub  crypt.PublicKey
}

// Config parameterizes an area controller.
type Config struct {
	// ID is the controller's identity; AreaID names its area. Required.
	ID     string
	AreaID string
	// Transport carries frames; Keys is the controller's key pair; both
	// required.
	Transport transport.Transport
	Keys      *crypt.KeyPair
	// Clock drives all timers; nil means clock.Real.
	Clock clock.Clock
	// KShared is the ticket-sealing key every controller holds (§IV-B).
	KShared crypt.SymKey
	// RSPub authenticates join referrals from the registration server.
	RSPub crypt.PublicKey
	// Directory lists other controllers, for rejoin verification and
	// re-parenting.
	Directory []wire.ACInfo
	// PreferredParents orders candidate parent controller IDs for §IV-C
	// re-parenting.
	PreferredParents []string
	// Parent, if set, is joined (as an area member) at startup.
	Parent *PeerInfo
	// Replicas lists the replica set: every entry receives heartbeats
	// and pulls journal segments, so Journal is required with it. The
	// FIRST entry is the announcer — the replica whose address and key
	// are advertised to members in welcomes, and the one that vouches
	// for an election winner's takeover notice.
	Replicas []PeerInfo
	// SplitAbove, when positive, fires OnSplit (once per crossing) when
	// the membership exceeds it — the dynamic-topology high watermark.
	SplitAbove int
	// MergeBelow, when positive, fires OnMerge (once per crossing) when
	// the membership sinks under it while non-empty.
	MergeBelow int
	// OnSplit receives the deterministic migration set (the upper half
	// of the sorted member IDs, child ACs excluded) when SplitAbove is
	// crossed. Called from its own goroutine, so it may call back into
	// the controller (Prevouch on a sibling, Reassign here).
	OnSplit func(migrate []string)
	// OnMerge fires when MergeBelow is crossed; same goroutine contract.
	OnMerge func()
	// Batching enables §III-E aggregation of join/leave events.
	Batching bool
	// TreeArity sets the auxiliary-key tree fan-out (0 = paper's 4).
	TreeArity int
	// Suite names the cipher suite sealing this area's key-tree
	// ciphertexts and data-key hops ("" = "legacy"). Joining members
	// advertise a suite mask; a member that cannot speak the area's
	// suite is denied at join/rejoin rather than handed frames it would
	// garble.
	Suite string
	// Policy selects rejoin behaviour under partition; zero means
	// DenyOnPartition.
	Policy PartitionPolicy
	// SkipRejoinVerify omits rejoin steps 4-5 entirely — the §IV-B
	// option-2 variant whose latency §V-D reports as 0.28s vs 0.4s.
	SkipRejoinVerify bool
	// Timing. Zero values take the defaults above.
	TIdle          time.Duration
	TActive        time.Duration
	RekeyInterval  time.Duration
	VerifyTimeout  time.Duration
	ReplayWindow   time.Duration
	TicketValidity time.Duration
	// HeartbeatEvery spaces replica heartbeats; zero means TIdle.
	HeartbeatEvery time.Duration
	// FreshnessInterval forces an area-key rotation when this long has
	// passed since the last rekey even with no membership events —
	// §III-E's second rekeying condition ("preserves the freshness of
	// the area key"). Zero disables unconditional rotation.
	FreshnessInterval time.Duration
	// DataWorkers sizes the data-plane worker pool that fans per-packet
	// re-encryption and per-member rekey/welcome crypto out across cores;
	// zero means runtime.GOMAXPROCS(0). The control plane (protocol
	// state) stays single-threaded regardless.
	DataWorkers int
	// Journal, if set, makes the controller durable: every state
	// mutation is appended as a record and periodically snapshotted, and
	// NewFromJournal rebuilds the identical controller after a crash.
	Journal *journal.Journal
	// SnapshotEvery spaces journal snapshots in records; zero means
	// DefaultSnapshotEvery. Only meaningful with Journal set.
	SnapshotEvery int
	// Observer, if set, receives structured protocol trace events
	// (handshake steps, rekeys, reseals, alive rounds, re-parenting).
	Observer obs.Sink
	// Logf, if set, receives debug logging.
	Logf func(format string, args ...any)
}

func (cfg *Config) fillDefaults() error {
	if cfg.ID == "" || cfg.AreaID == "" || cfg.Transport == nil || cfg.Keys == nil {
		return fmt.Errorf("area: ID, AreaID, Transport, and Keys are required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Policy == 0 {
		cfg.Policy = DenyOnPartition
	}
	if cfg.TIdle == 0 {
		cfg.TIdle = DefaultTIdle
	}
	if cfg.TActive == 0 {
		cfg.TActive = DefaultTActive
	}
	if cfg.RekeyInterval == 0 {
		cfg.RekeyInterval = DefaultRekeyInterval
	}
	if cfg.VerifyTimeout == 0 {
		cfg.VerifyTimeout = DefaultVerifyTimeout
	}
	if cfg.ReplayWindow == 0 {
		cfg.ReplayWindow = DefaultReplayWindow
	}
	if cfg.TicketValidity == 0 {
		cfg.TicketValidity = DefaultTicketValidity
	}
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = cfg.TIdle
	}
	if len(cfg.Replicas) > 0 && cfg.Journal == nil {
		return fmt.Errorf("area: Replicas follow the journal, so Journal is required with them")
	}
	for _, r := range cfg.Replicas {
		if r.ID == "" || r.Addr == "" || r.Pub.IsZero() {
			return fmt.Errorf("area: replica %q needs ID, Addr, and Pub", r.ID)
		}
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return nil
}

// memberEntry is the controller's record of one area member.
type memberEntry struct {
	id         string
	addr       string
	pubDER     []byte
	pub        crypt.PublicKey
	lastSeen   time.Time
	ticketBlob []byte
	isChildAC  bool
}

// joinSession is a pending referral: step 4 arrived, step 6 awaited.
type joinSession struct {
	nonceAC   uint64
	clientID  string
	duration  time.Duration
	created   time.Time
	clientDER []byte
	clientPub crypt.PublicKey
}

// rejoinSession tracks one rejoin handshake at the new controller.
type rejoinSession struct {
	clientID   string
	clientAddr string
	clientPub  crypt.PublicKey
	clientDER  []byte
	nonceBC    uint64
	tk         *ticket.Ticket
	tkBlob     []byte
	// authenticated flips after step 3's challenge response verifies.
	authenticated bool
	// awaitingVerify is set while steps 4-5 are in flight to the old AC.
	awaitingVerify bool
	verifyDeadline time.Time
	created        time.Time
}

// parentState is the controller's membership in its parent area.
type parentState struct {
	info   PeerInfo
	areaID string
	view   *keytree.MemberView
	// kuKey is the MAC key the parent tags our KeyUpdates under, derived
	// from view's leaf key.
	kuKey wire.KeyUpdateKey
	// suite is the parent area's negotiated cipher suite: it opens
	// parent-relayed EncKeys and seals up-forwarded ones.
	suite    crypt.Suite
	lastRecv time.Time
	lastSent time.Time
	// pathAskedEpoch and pathRetryAt rate-limit PathRequests to the
	// parent (requestParentPath), as a member's do.
	pathAskedEpoch uint64
	pathRetryAt    time.Time
}

// Controller is one Mykil area controller. All state is owned by the run
// loop; external accessors go through the command channel.
type Controller struct {
	cfg Config
	clk clock.Clock
	// suite is cfg.Suite resolved; it seals key-tree ciphertexts,
	// welcomes' tickets stay legacy (K_shared interop), and data-key
	// hops within the area.
	suite crypt.Suite

	tree    *keytree.Tree
	members map[string]*memberEntry
	// memberAddrs snapshots every member's address for the data relay
	// (relayAddrs); nil after a membership change (membersChanged).
	memberAddrs []string

	// multicastKeyUpdate's scratch, reused by every flush: the receivers,
	// their addresses, and the cut.
	kuIDs   []keytree.MemberID
	kuAddrs []string
	kuCut   keytree.Cut

	joinSessions   map[string]*joinSession
	rejoinSessions map[string]*rejoinSession
	parkedStep6    map[string]*parkedJoin

	// Batching state (§III-E).
	pendingJoins  []pendingAdmission
	pendingLeaves []string
	updateNeeded  bool
	lastRekey     time.Time

	parent *parentState
	// reparenting holds the candidate being tried, empty when not
	// re-parenting.
	reparentTarget   string
	reparentDeadline time.Time
	orphanRetryAt    time.Time

	lastAreaSend time.Time

	// areaKeyHistory holds recently rotated-out area keys (newest
	// first). Data sealed under a key a sender had not yet replaced is
	// recovered and re-sealed to the current key instead of dropped.
	areaKeyHistory []crypt.SymKey

	// Data dedup: highest sequence seen per origin.
	seenSeq map[string]uint64

	// Replication: when the replicas last heard a heartbeat.
	lastHeartbeat time.Time

	// Dynamic topology: members vouched-for ahead of a migration rejoin
	// (steps 4-5 skipped once), and the watermark edge latches. The merge
	// latch starts fired: a controller born under the low watermark (a
	// split sibling whose migrants are still in flight) must first climb
	// to MergeBelow before a later dip can retire it.
	prevouched map[string]bool
	splitFired bool
	mergeFired bool

	// Durability: the seeded key generator active during a journaled
	// rekey (live or replayed), and the snapshot cadence counter.
	detKG         replayKeyGen
	recsSinceSnap int

	metrics *obs.Registry
	trace   *obs.Tracer

	// Typed handles into metrics, registered at construction.
	cJoins         *obs.Counter
	cRejoins       *obs.Counter
	cLeaves        *obs.Counter
	cLeaveForged   *obs.Counter
	cEvictions     *obs.Counter
	cRekeys        *obs.Counter
	cRekeyEntries  *obs.Counter
	cRekeyParts    *obs.Counter
	cRekeyBytes    *obs.Counter
	cDataRelayed   *obs.Counter
	cDataForwarded *obs.Counter
	cRejoinDenied  *obs.Counter
	cVerifyReqs    *obs.Counter
	cAreaSplits    *obs.Counter
	cReplBytes     *obs.Counter
	hRekeySeconds  *obs.Histogram

	// Control plane: the event loop that owns all state above.
	loop *node.Loop
	// Data plane: bounded workers for packet re-encryption and rekey
	// crypto, with an ordered pipeline sequencing sends back to the wire.
	pool      *node.Pool
	dp        *node.Pipeline[dataOut]
	closeOnce sync.Once
}

// Counter names in a controller's stats registry.
const (
	StatJoins         = "ac.joins"          // members admitted via the join protocol
	StatRejoins       = "ac.rejoins"        // members admitted via tickets
	StatLeaves        = "ac.leaves"         // voluntary departures processed
	StatLeaveForged   = "ac.leave.bad_mac"  // leave notices dropped: not tagged under the named member's leaf key
	StatEvictions     = "ac.evictions"      // silent members terminated (§IV-A)
	StatRekeys        = "ac.rekeys"         // rekey operations performed
	StatRekeyEntries  = "ac.rekey.entries"  // encrypted keys across all rekeys
	StatRekeyParts    = "ac.rekey.parts"    // KeyUpdate frames sent, one per receiver of each rekey
	StatRekeyBytes    = "ac.rekey.bytes"    // KeyUpdate body bytes handed to the transport, all receivers
	StatDataRelayed   = "ac.data.relayed"   // data frames relayed within the area
	StatDataForwarded = "ac.data.forwarded" // data frames forwarded to the parent
	StatRejoinDenied  = "ac.rejoin.denied"  // rejoins refused
	StatVerifyReqs    = "ac.verify.reqs"    // §IV-B steps 4-5 checks answered
)

// pendingAdmission is a join or rejoin waiting for the next batch flush.
type pendingAdmission struct {
	entry   *memberEntry
	rejoin  bool
	nonceCA uint64 // join protocol: NonceCA to echo +1 in step 7
}

// New builds a controller. Call Start to begin serving.
func New(cfg Config) (*Controller, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	suite, err := crypt.SuiteByName(cfg.Suite)
	if err != nil {
		return nil, fmt.Errorf("area: %w", err)
	}
	c := &Controller{
		cfg:            cfg,
		clk:            cfg.Clock,
		suite:          suite,
		members:        make(map[string]*memberEntry),
		joinSessions:   make(map[string]*joinSession),
		rejoinSessions: make(map[string]*rejoinSession),
		parkedStep6:    make(map[string]*parkedJoin),
		seenSeq:        make(map[string]uint64),
		prevouched:     make(map[string]bool),
		mergeFired:     true,
		metrics:        obs.NewRegistry(obs.L("node", cfg.ID)),
	}
	c.trace = obs.NewTracer(cfg.ID, cfg.Clock, cfg.Observer)
	c.cJoins = c.metrics.Counter(StatJoins, "Members admitted via the 7-step join protocol.")
	c.cRejoins = c.metrics.Counter(StatRejoins, "Members admitted via ticket rejoin.")
	c.cLeaves = c.metrics.Counter(StatLeaves, "Voluntary departures processed.")
	c.cLeaveForged = c.metrics.Counter(StatLeaveForged, "Leave notices dropped because they are not tagged under the leaf key of the member they name.")
	c.cEvictions = c.metrics.Counter(StatEvictions, "Silent members terminated (T_idle policy).")
	c.cRekeys = c.metrics.Counter(StatRekeys, "Rekey operations performed.")
	c.cRekeyEntries = c.metrics.Counter(StatRekeyEntries, "Encrypted key entries across all rekeys.")
	c.cRekeyParts = c.metrics.Counter(StatRekeyParts, "KeyUpdate frames sent: one per receiver of a rekey, each its own part under its own tag.")
	c.cRekeyBytes = c.metrics.Counter(StatRekeyBytes, "KeyUpdate body bytes handed to the transport, summed over receivers.")
	c.cDataRelayed = c.metrics.Counter(StatDataRelayed, "Data frames relayed within the area.")
	c.cDataForwarded = c.metrics.Counter(StatDataForwarded, "Data frames forwarded to the parent area.")
	c.cRejoinDenied = c.metrics.Counter(StatRejoinDenied, "Rejoins refused.")
	c.cVerifyReqs = c.metrics.Counter(StatVerifyReqs, "Anti-cohort verification checks answered.")
	c.cAreaSplits = c.metrics.Counter(obs.MetricAreaSplits, obs.HelpAreaSplits)
	c.cReplBytes = c.metrics.Counter(obs.MetricReplBytes, obs.HelpReplBytes)
	c.hRekeySeconds = c.metrics.Histogram(obs.MetricRekeySeconds, obs.HelpRekeySeconds, nil)
	c.pool = node.NewPool(cfg.DataWorkers)
	c.dp = node.NewPipeline(c.pool, 0, c.deliver)
	c.tree = keytree.New(c.treeConfig())
	c.loop = node.New(node.Config{
		Name:          cfg.ID,
		Transport:     cfg.Transport,
		Clock:         c.clk,
		TickEvery:     c.minTick(),
		OnFrame:       c.handleFrame,
		OnTick:        c.housekeeping,
		Stats:         c.metrics,
		CommandBuffer: 64,
		Logf:          cfg.Logf,
	})
	now := c.clk.Now()
	c.lastAreaSend = now
	c.lastRekey = now
	return c, nil
}

// suiteSupported reports whether a peer advertising the given suite
// bitmask can speak this area's configured suite. A zero mask means a
// pre-negotiation peer that only speaks legacy.
func (c *Controller) suiteSupported(mask uint64) bool {
	return crypt.NormalizeSuiteMask(mask)&c.suite.ID().Mask() != 0
}

// Start launches the controller loop and, if a parent is configured,
// initiates the area join toward it. A controller restored with a live
// parent link (NewFromJournal replayed a recParentSet) skips the request:
// it is already a member of the parent area under the same identity.
func (c *Controller) Start() {
	c.loop.Start()
	if c.cfg.Parent != nil {
		parent := *c.cfg.Parent
		c.enqueue(func() {
			if c.parent == nil {
				c.requestParent(parent)
			}
		})
	}
}

// Close stops the controller loop, then drains and stops the data plane.
// The transport is the caller's to close.
func (c *Controller) Close() {
	c.loop.Close()
	c.closeOnce.Do(func() {
		c.dp.Close()
		c.pool.Close()
	})
}

// enqueue hands fn to the run loop. Commands lost because the controller
// has stopped are counted under node.StatDrops and logged.
func (c *Controller) enqueue(fn func()) {
	_ = c.loop.Enqueue(fn)
}

// call runs fn on the loop and waits for completion.
func (c *Controller) call(fn func()) error {
	if err := c.loop.Call(fn); err != nil {
		return ErrStopped
	}
	return nil
}

// NumMembers reports the current area membership count.
func (c *Controller) NumMembers() int {
	var n int
	if err := c.call(func() { n = c.tree.NumMembers() }); err != nil {
		return 0
	}
	return n
}

// Epoch reports the current key epoch of the area.
func (c *Controller) Epoch() uint64 {
	var e uint64
	if err := c.call(func() { e = c.tree.Epoch() }); err != nil {
		return 0
	}
	return e
}

// TreeNodes reports the auxiliary key tree's node count — the
// controller-side storage figure of §V-A.
func (c *Controller) TreeNodes() int {
	var n int
	if err := c.call(func() { n = c.tree.NumNodes() }); err != nil {
		return 0
	}
	return n
}

// ParentID reports the current parent controller ID ("" when the area is
// the root or orphaned).
func (c *Controller) ParentID() string {
	var id string
	if err := c.call(func() {
		if c.parent != nil {
			id = c.parent.info.ID
		}
	}); err != nil {
		return ""
	}
	return id
}

// HasMember reports whether the given client is currently in the area.
func (c *Controller) HasMember(id string) bool {
	var ok bool
	if err := c.call(func() { _, ok = c.members[id] }); err != nil {
		return false
	}
	return ok
}

// JournalLSN reports the LSN the controller's next journal record will
// take (0 when unjournaled). A replica whose AppliedLSN equals it holds
// the whole log.
func (c *Controller) JournalLSN() uint64 {
	if c.cfg.Journal == nil {
		return 0
	}
	return c.cfg.Journal.NextLSN()
}

// FlushBatch forces an immediate rekey flush of pending join/leave events.
func (c *Controller) FlushBatch() {
	_ = c.call(func() { c.flush() })
}

// PendingEvents reports how many join/leave events await the next flush.
func (c *Controller) PendingEvents() int {
	var n int
	_ = c.call(func() { n = len(c.pendingJoins) + len(c.pendingLeaves) })
	return n
}

// Stats exposes the controller's operation counters (concurrency-safe).
// Besides the ac.* protocol counters it carries the node.* loop counters,
// including node.drops: commands lost because the controller had stopped.
func (c *Controller) Stats() *obs.Registry { return c.metrics }

// minTick picks the housekeeping granularity: fine enough to honor the
// shortest configured period.
func (c *Controller) minTick() time.Duration {
	d := c.cfg.TIdle
	if c.cfg.HeartbeatEvery < d {
		d = c.cfg.HeartbeatEvery
	}
	if d > time.Second {
		return d / 2
	}
	return d
}

func (c *Controller) handleFrame(f *wire.Frame) {
	switch f.Kind {
	case wire.KindJoinRefer:
		c.handleJoinRefer(f)
	case wire.KindJoinToAC:
		c.handleJoinToAC(f)
	case wire.KindRejoinRequest:
		c.handleRejoinRequest(f)
	case wire.KindRejoinResponse:
		c.handleRejoinResponse(f)
	case wire.KindRejoinVerifyReq:
		c.handleRejoinVerifyReq(f)
	case wire.KindRejoinVerifyResp:
		c.handleRejoinVerifyResp(f)
	case wire.KindData:
		c.handleData(f)
	case wire.KindKeyUpdate:
		c.handleParentKeyUpdate(f)
	case wire.KindPathUpdate:
		c.handleParentPathUpdate(f)
	case wire.KindMemberAlive:
		c.handleMemberAlive(f)
	case wire.KindLeaveNotice:
		c.handleLeaveNotice(f)
	case wire.KindPathRequest:
		c.handlePathRequest(f)
	case wire.KindACAlive:
		c.handleACAlive(f)
	case wire.KindAreaJoinReq:
		c.handleAreaJoinReq(f)
	case wire.KindAreaJoinAck:
		c.handleAreaJoinAck(f)
	case wire.KindAreaJoinDenied:
		c.handleAreaJoinDenied(f)
	case wire.KindSegmentPull:
		c.handleSegmentPull(f)
	default:
		c.cfg.Logf("%s: ignoring frame kind %v from %s", c.cfg.ID, f.Kind, f.From)
	}
}

// housekeeping runs the periodic §IV-A and §III-E duties.
func (c *Controller) housekeeping() {
	now := c.clk.Now()

	// §IV-A: multicast an alive message after an idle period.
	if now.Sub(c.lastAreaSend) >= c.cfg.TIdle && c.tree.NumMembers() > 0 {
		c.multicastAlive()
	}

	// §IV-A: evict members silent for 5×T_active.
	c.evictSilentMembers(now)

	// §III-E: rekey if the interval elapsed with a pending batch.
	if c.updateNeeded && now.Sub(c.lastRekey) >= c.cfg.RekeyInterval {
		c.flush()
	}

	// §III-E condition 2: rotate the area key unconditionally when the
	// freshness interval elapses.
	if c.cfg.FreshnessInterval > 0 && now.Sub(c.lastRekey) >= c.cfg.FreshnessInterval &&
		c.tree.NumMembers() > 0 {
		c.freshnessRekey()
	}

	// Expire stale handshake sessions and verify timeouts.
	c.expireSessions(now)

	// §IV-A: send an alive to the parent if we have been quiet, and
	// detect parent silence.
	c.parentHousekeeping(now)

	// §IV-C: replica heartbeat.
	c.replicaHousekeeping(now)

	// Dynamic topology: fire split/merge watermark callbacks.
	c.topologyHousekeeping()
}

// send transmits a frame, logging failures; protocol recovery happens via
// timeouts, not send errors.
func (c *Controller) send(addr string, f *wire.Frame) {
	if err := c.cfg.Transport.Send(addr, f); err != nil {
		c.cfg.Logf("%s: send %v to %s: %v", c.cfg.ID, f.Kind, addr, err)
	}
}

// sendSealed seals body to a recipient key and sends, optionally signing.
func (c *Controller) sendSealed(addr string, to crypt.PublicKey, kind wire.Kind, body wire.Marshaler, sign bool) {
	switch kind {
	case wire.KindRejoinDenied:
		c.cRejoinDenied.Inc()
	case wire.KindRejoinVerifyResp:
		c.cVerifyReqs.Inc()
	default:
		// Only the rejoin kinds are counted; everything else passes
		// through unstatted.
	}
	blob, err := wire.SealBody(to, body)
	if err != nil {
		c.cfg.Logf("%s: sealing %v: %v", c.cfg.ID, kind, err)
		return
	}
	f := &wire.Frame{Kind: kind, From: c.cfg.Transport.Addr(), Body: blob}
	if sign {
		f.Sig = c.cfg.Keys.Sign(blob)
	}
	c.send(addr, f)
}

// sendPlain sends an unencrypted body, optionally signed.
func (c *Controller) sendPlain(addr string, kind wire.Kind, body wire.Marshaler, sign bool) {
	blob, err := wire.PlainBody(body)
	if err != nil {
		c.cfg.Logf("%s: encoding %v: %v", c.cfg.ID, kind, err)
		return
	}
	f := &wire.Frame{Kind: kind, From: c.cfg.Transport.Addr(), Body: blob}
	if sign {
		f.Sig = c.cfg.Keys.Sign(blob)
	}
	c.send(addr, f)
}

// directoryByID finds a controller's directory entry.
func (c *Controller) directoryByID(id string) (wire.ACInfo, bool) {
	for _, e := range c.cfg.Directory {
		if e.ID == id {
			return e, true
		}
	}
	return wire.ACInfo{}, false
}

// directoryByAddr finds a controller's directory entry by address.
func (c *Controller) directoryByAddr(addr string) (wire.ACInfo, bool) {
	for _, e := range c.cfg.Directory {
		if e.Addr == addr {
			return e, true
		}
	}
	return wire.ACInfo{}, false
}

// peerPub parses a directory entry's public key.
func peerPub(e wire.ACInfo) (crypt.PublicKey, error) {
	return crypt.ParsePublicKey(e.PubDER)
}
