// Package replica implements Mykil's fault-tolerance layer past the
// paper's single passive backup (§IV-C): an area controller ships its
// journal — segment records rather than full state snapshots — to N
// replicas, and when the primary's heartbeats stop the replicas run a
// Bully-style quorum leader election. Candidates are ordered by applied
// journal LSN (ties broken by ID), so the winner always holds the
// longest log; it installs that log as its own journal, rebuilds the
// controller from it with area.NewFromJournal — which regenerates
// byte-identical tree keys — and takes over with zero member rejoins.
// The promoted controller appends to the installed journal under the dead
// primary's LSN numbering, so the losers re-point their monitoring at the
// new leader and keep pulling the same log — the replica set heals itself,
// and a second failover restores everything the first winner did.
//
// With no peers configured the machinery degenerates to the paper's
// passive backup: a quorum of one promotes immediately after the
// takeover window of silence.
package replica

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mykil/internal/area"
	"mykil/internal/clock"
	"mykil/internal/crypt"
	"mykil/internal/journal"
	"mykil/internal/node"
	"mykil/internal/obs"
	"mykil/internal/transport"
	"mykil/internal/wire"
)

// DefaultTakeoverFactor declares the primary dead after this many missed
// heartbeat intervals.
const DefaultTakeoverFactor = 5

// DefaultHeartbeatEvery seeds the monitor cadence until the first
// segment sync carries the primary's configured interval.
const DefaultHeartbeatEvery = 500 * time.Millisecond

// ErrNotPromoted reports that no takeover has happened yet.
var ErrNotPromoted = errors.New("replica: not promoted")

// Peer identifies a fellow replica in the same replica set.
type Peer struct {
	ID   string
	Addr string
	Pub  crypt.PublicKey
}

// Config parameterizes a replica.
type Config struct {
	// ID is the replica's identity. Required.
	ID string
	// Transport carries frames; Keys is the replica's own key pair. Both
	// required. Members learn the advertised replica's public key at join
	// and use it to verify the takeover announcement.
	Transport transport.Transport
	Keys      *crypt.KeyPair
	// Clock drives the heartbeat monitor; nil means clock.Real.
	Clock clock.Clock
	// PrimaryID and PrimaryPub identify and authenticate the watched
	// primary. Required. Both are re-pointed at the winner after an
	// election this replica loses.
	PrimaryID  string
	PrimaryPub crypt.PublicKey
	// HeartbeatEvery bootstraps the monitor cadence; zero means
	// DefaultHeartbeatEvery. The authoritative value is the one the
	// primary carries in every SegmentPush, so a drifting config cannot
	// skew the takeover window once the first sync arrives.
	HeartbeatEvery time.Duration
	// TakeoverAfter overrides the silence window; zero means
	// DefaultTakeoverFactor × the current heartbeat interval.
	TakeoverAfter time.Duration
	// Peers lists the other replicas of the same primary. Empty recovers
	// the paper's passive single-backup behaviour.
	Peers []Peer
	// Announcer marks the replica whose address and key were advertised
	// to members in their welcomes. Members only trust ACFailover frames
	// signed by that key, so when a different replica wins the election,
	// the announcer relays the takeover notice on the winner's behalf.
	Announcer bool
	// ControllerConfig seeds the promoted controller (KShared, RSPub,
	// Directory, timing...). Transport, Keys, ID, Clock, and Journal are
	// overridden with the replica's own.
	ControllerConfig area.Config
	// Journal locates the replica's own journal; Dir is required. Nothing
	// is written there until this replica wins an election: the winner
	// installs the log it replicated, and the promoted controller keeps
	// appending to it for the surviving replicas to pull.
	Journal journal.Options
	// Seed, if set, is what the primary's journal held when it booted.
	// The replica starts its log from it, so it can take over even when
	// the primary dies before answering a single pull — after a takeover
	// window of silence measured from Start.
	Seed *journal.Recovery
	// Observer, if set, receives election and failover trace events. It
	// is also handed to the promoted controller.
	Observer obs.Sink
	// Logf, if set, receives debug logging.
	Logf func(format string, args ...any)
}

// Replica watches a primary area controller, replicates its journal, and
// takes part in leader election when the primary fails.
type Replica struct {
	cfg Config
	clk clock.Clock

	// mu guards the replicated log and promotion result: accessors stay
	// readable after the loop exits at promotion.
	mu sync.Mutex
	// The replicated log: a baseline snapshot plus the record tail —
	// exactly the shape of a journal.Recovery.
	base    []byte
	baseLSN uint64
	recs    [][]byte
	nextLSN uint64 // next LSN needed; 0 while the log is unknown

	hbEvery  time.Duration
	takeover time.Duration

	primaryID  string
	primaryPub crypt.PublicKey

	// lastHB is when the primary last showed life; Start sets it, so a
	// primary never heard from gets one full window before it is declared
	// dead.
	lastHB   time.Time
	lastPull time.Time

	electing      bool
	votes         map[string]bool
	electionEnds  time.Time
	suppressUntil time.Time
	votedFor      string
	votedUntil    time.Time
	// rank counts the peers that beat this replica's ID in the bully
	// order: 0 for the strongest candidate. Silence detection and
	// election retries are staggered by rank so the replica that would
	// win a tie campaigns first and the others arrive as voters, not as
	// rival candidates.
	rank int

	trace      *obs.Tracer
	metrics    *obs.Registry
	cElections *obs.Counter
	promoted   *area.Controller
	journal    *journal.Journal // the promoted controller's; closed with it

	loop *node.Loop
}

// New validates the config and builds a replica.
func New(cfg Config) (*Replica, error) {
	if cfg.ID == "" || cfg.Transport == nil || cfg.Keys == nil {
		return nil, fmt.Errorf("replica: ID, Transport, and Keys are required")
	}
	if cfg.PrimaryID == "" || cfg.PrimaryPub.IsZero() {
		return nil, fmt.Errorf("replica: PrimaryID and PrimaryPub are required")
	}
	if cfg.Journal.Dir == "" {
		return nil, fmt.Errorf("replica: Journal.Dir is required: a winner continues the replicated log there")
	}
	for _, p := range cfg.Peers {
		if p.ID == "" || p.Addr == "" || p.Pub.IsZero() {
			return nil, fmt.Errorf("replica: peer %q needs ID, Addr, and Pub", p.ID)
		}
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = DefaultHeartbeatEvery
	}
	r := &Replica{
		cfg:        cfg,
		clk:        cfg.Clock,
		hbEvery:    cfg.HeartbeatEvery,
		primaryID:  cfg.PrimaryID,
		primaryPub: cfg.PrimaryPub,
	}
	r.takeover = r.takeoverWindow()
	if rec := cfg.Seed; rec != nil {
		// The seed is shared with the primary and the peer replicas: cap
		// the tail so appending to it reallocates.
		r.base, r.baseLSN, r.recs = rec.Snapshot, rec.SnapshotLSN, rec.Records[:len(rec.Records):len(rec.Records)]
		r.nextLSN = rec.SnapshotLSN + uint64(len(rec.Records)) + 1
	}
	for _, p := range cfg.Peers {
		if p.ID > cfg.ID {
			r.rank++
		}
	}
	r.trace = obs.NewTracer(cfg.ID, cfg.Clock, cfg.Observer)
	r.metrics = obs.NewRegistry(obs.L("node", cfg.ID))
	r.cElections = r.metrics.Counter(obs.MetricElections, obs.HelpElections)
	r.loop = node.New(node.Config{
		Name:      cfg.ID,
		Transport: cfg.Transport,
		Clock:     cfg.Clock,
		TickEvery: cfg.HeartbeatEvery,
		OnFrame:   r.handleFrame,
		OnTick:    r.tick,
		Logf:      cfg.Logf,
	})
	return r, nil
}

// takeoverWindow computes the silence window from the current heartbeat
// interval. Callers hold mu or own the replica single-threadedly.
func (r *Replica) takeoverWindow() time.Duration {
	if r.cfg.TakeoverAfter != 0 {
		return r.cfg.TakeoverAfter
	}
	return DefaultTakeoverFactor * r.hbEvery
}

// quorum is the majority of the replica set (peers plus self).
func (r *Replica) quorum() int { return (len(r.cfg.Peers)+1)/2 + 1 }

// staggerLocked is the extra silence this replica waits beyond the
// takeover window before campaigning, a quarter-window per bully rank.
// Callers hold mu.
func (r *Replica) staggerLocked() time.Duration {
	return time.Duration(r.rank) * r.takeover / 4
}

// areaID returns the configured area, "" when unknown pre-sync.
func (r *Replica) areaID() string { return r.cfg.ControllerConfig.AreaID }

// Start launches the monitoring loop.
func (r *Replica) Start() {
	r.mu.Lock()
	r.lastHB = r.clk.Now()
	r.mu.Unlock()
	r.loop.Start()
}

// Close stops the monitoring loop and, after a promotion, the promoted
// controller and the journal it appends to.
func (r *Replica) Close() {
	r.loop.Close()
	r.mu.Lock()
	ctrl, j := r.promoted, r.journal
	r.mu.Unlock()
	if ctrl != nil {
		ctrl.Close()
		if err := j.Close(); err != nil {
			r.cfg.Logf("%s: closing journal: %v", r.cfg.ID, err)
		}
	}
}

// Promoted returns the controller this replica promoted, if any.
func (r *Replica) Promoted() (*area.Controller, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.promoted == nil {
		return nil, ErrNotPromoted
	}
	return r.promoted, nil
}

// AppliedLSN reports one past the last journal record held — the one
// position the replica pulls from and campaigns on (0 while the log is
// unknown).
func (r *Replica) AppliedLSN() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nextLSN
}

// Stats exposes the replica's metrics registry (elections won).
func (r *Replica) Stats() *obs.Registry { return r.metrics }

// tick runs the heartbeat monitor and the election timer (loop context).
func (r *Replica) tick() {
	r.mu.Lock()
	if r.promoted != nil {
		r.mu.Unlock()
		return
	}
	now := r.clk.Now()
	if r.electing {
		retry := now.After(r.electionEnds)
		r.mu.Unlock()
		if retry {
			// No quorum and no Coordinator inside the window: the peers
			// we needed may themselves have been restarting. Re-campaign.
			r.startElection("retry")
		}
		return
	}
	silence := now.Sub(r.lastHB)
	if silence <= r.takeover+r.staggerLocked() || now.Before(r.suppressUntil) || r.nextLSN == 0 {
		r.mu.Unlock()
		return
	}
	primary := r.primaryID
	r.mu.Unlock()
	r.cfg.Logf("%s: primary %s silent for %v; starting election", r.cfg.ID, primary, silence)
	r.startElection("silence")
}

// startElection opens (or re-opens) a candidacy: broadcast Election to
// every peer and wait for a quorum of acks. With no peers the quorum is
// one and the candidacy wins immediately — the passive-backup case.
func (r *Replica) startElection(reason string) {
	r.mu.Lock()
	if r.promoted != nil {
		r.mu.Unlock()
		return
	}
	now := r.clk.Now()
	// A campaign is itself a vote: self-pledge through the same
	// single-vote window the stand-down path uses, so a replica that
	// already backed a peer cannot turn around and assemble a rival
	// quorum (e.g. when a stale third candidate's Election trips the
	// bully branch after we acked the eventual winner).
	if r.votedFor != "" && r.votedFor != r.cfg.ID && now.Before(r.votedUntil) {
		r.mu.Unlock()
		return
	}
	r.votedFor = r.cfg.ID
	r.votedUntil = now.Add(r.takeover)
	r.electing = true
	r.votes = make(map[string]bool)
	r.electionEnds = now.Add(r.takeover + r.staggerLocked())
	lsn := r.nextLSN
	primary := r.primaryID
	r.mu.Unlock()
	r.trace.Event(obs.ProtoElection, primary, "candidate",
		obs.String("reason", reason), obs.Uint("lsn", lsn))
	for _, p := range r.cfg.Peers {
		r.sendPlain(p.Addr, wire.KindElection, wire.Election{
			AreaID: r.areaID(), CandidateID: r.cfg.ID, LSN: lsn,
		})
	}
	r.maybeWin()
}

func (r *Replica) handleFrame(f *wire.Frame) {
	switch f.Kind {
	case wire.KindReplicaHeartbeat:
		r.handleHeartbeat(f)
	case wire.KindSegmentPush:
		r.handleSegmentPush(f)
	case wire.KindElection:
		r.handleElection(f)
	case wire.KindElectionOK:
		r.handleElectionOK(f)
	case wire.KindCoordinator:
		r.handleCoordinator(f)
	default:
		// Frames for the promoted controller arrive on its own
		// transport; anything else here is noise.
	}
}

// peer finds a configured peer by ID.
func (r *Replica) peer(id string) (Peer, bool) {
	for _, p := range r.cfg.Peers {
		if p.ID == id {
			return p, true
		}
	}
	return Peer{}, false
}

// verifyPrimary checks a frame signature against the current primary key.
func (r *Replica) verifyPrimary(f *wire.Frame) bool {
	r.mu.Lock()
	pub := r.primaryPub
	r.mu.Unlock()
	return pub.Verify(f.Body, f.Sig) == nil
}

// handleHeartbeat notes primary liveness and pulls the journal tail when
// the advertised position is ahead of ours.
func (r *Replica) handleHeartbeat(f *wire.Frame) {
	if !r.verifyPrimary(f) {
		return
	}
	var hb wire.ReplicaHeartbeat
	if err := wire.DecodePlain(f.Body, &hb); err != nil {
		return
	}
	r.mu.Lock()
	now := r.clk.Now()
	r.lastHB = now
	// The heartbeat advertises the primary's last journal LSN; pull when
	// it reaches the first one we lack.
	need := r.nextLSN
	if need == 0 {
		need = 1
	}
	var fromLSN uint64
	if hb.Seq >= need && now.Sub(r.lastPull) >= r.hbEvery {
		r.lastPull = now
		fromLSN = need
	}
	r.mu.Unlock()
	if fromLSN > 0 {
		r.sendPlain(f.From, wire.KindSegmentPull, wire.SegmentPull{
			AreaID: hb.AreaID, FromLSN: fromLSN,
		})
	}
}

// handleSegmentPush absorbs journal records (and possibly a baseline
// snapshot) shipped by the primary, and adopts the heartbeat cadence the
// stream carries — the config value is only a bootstrap.
func (r *Replica) handleSegmentPush(f *wire.Frame) {
	if !r.verifyPrimary(f) {
		r.cfg.Logf("%s: segment push with bad signature dropped", r.cfg.ID)
		return
	}
	var push wire.SegmentPush
	if err := wire.OpenBody(r.cfg.Keys, f.Body, &push); err != nil {
		r.cfg.Logf("%s: segment push body: %v", r.cfg.ID, err)
		return
	}
	r.mu.Lock()
	now := r.clk.Now()
	r.lastHB = now
	if push.HeartbeatEvery > 0 && push.HeartbeatEvery != r.hbEvery {
		r.hbEvery = push.HeartbeatEvery
		r.takeover = r.takeoverWindow()
	}
	need := r.nextLSN
	if need == 0 {
		need = 1
	}
	if push.Snapshot != nil && push.SnapshotLSN+1 > need {
		r.base, r.baseLSN, r.recs = push.Snapshot, push.SnapshotLSN, nil
		need = push.SnapshotLSN + 1
		r.nextLSN = need
	}
	if push.FromLSN > need {
		// A gap: this push starts past what we hold. Re-pull from our
		// actual position; the primary will include a baseline if the
		// tail below it was compacted away.
		r.lastPull = now
		r.mu.Unlock()
		r.sendPlain(f.From, wire.KindSegmentPull, wire.SegmentPull{
			AreaID: push.AreaID, FromLSN: need,
		})
		return
	}
	if push.NextLSN > need {
		skip := need - push.FromLSN
		r.recs = append(r.recs, push.Records[skip:]...)
		r.nextLSN = push.NextLSN
	}
	r.mu.Unlock()
}

// handleElection is the voter side: acknowledge a candidate at least as
// durable as ourselves; bully an inferior one by campaigning.
func (r *Replica) handleElection(f *wire.Frame) {
	var e wire.Election
	if err := wire.DecodePlain(f.Body, &e); err != nil {
		return
	}
	p, ok := r.peer(e.CandidateID)
	if !ok {
		r.cfg.Logf("%s: election from unknown candidate %q", r.cfg.ID, e.CandidateID)
		return
	}
	if p.Pub.Verify(f.Body, f.Sig) != nil {
		return
	}
	if id := r.areaID(); id != "" && e.AreaID != "" && e.AreaID != id {
		return
	}
	r.mu.Lock()
	if r.promoted != nil {
		r.mu.Unlock()
		return
	}
	mine := r.nextLSN
	if e.LSN > mine || (e.LSN == mine && e.CandidateID >= r.cfg.ID) {
		// The candidate is at least as durable: stand down and let it
		// collect the quorum. If no Coordinator emerges within the
		// suppression window, our own silence timer re-fires.
		//
		// One vote per window: two candidates racing the same silence must
		// never both assemble a quorum through a shared voter, so once we
		// back a candidate (ourselves included — campaigning self-pledges)
		// we only re-ack that same candidate until the window expires. The
		// lone exception is a candidate holding a strictly longer log than
		// ours: refusing it could wedge a two-replica set whose weaker
		// member self-pledged first.
		now := r.clk.Now()
		if r.votedFor != "" && now.Before(r.votedUntil) && r.votedFor != e.CandidateID && e.LSN <= mine {
			r.mu.Unlock()
			return
		}
		r.votedFor = e.CandidateID
		r.votedUntil = now.Add(r.takeover)
		r.electing = false
		r.suppressUntil = now.Add(r.takeover)
		r.mu.Unlock()
		r.trace.Event(obs.ProtoElection, e.CandidateID, "ack",
			obs.Uint("candidate_lsn", e.LSN), obs.Uint("own_lsn", mine))
		r.sendPlain(p.Addr, wire.KindElectionOK, wire.ElectionOK{
			AreaID: e.AreaID, VoterID: r.cfg.ID, LSN: mine,
		})
		return
	}
	// We hold a longer log than the candidate: bully it.
	alreadyElecting := r.electing
	r.mu.Unlock()
	if !alreadyElecting && mine > 0 {
		r.startElection("bully")
	}
}

// handleElectionOK is the candidate side: count the vote and promote at
// quorum.
func (r *Replica) handleElectionOK(f *wire.Frame) {
	var ok wire.ElectionOK
	if err := wire.DecodePlain(f.Body, &ok); err != nil {
		return
	}
	p, found := r.peer(ok.VoterID)
	if !found || p.Pub.Verify(f.Body, f.Sig) != nil {
		return
	}
	r.mu.Lock()
	if !r.electing || r.promoted != nil {
		r.mu.Unlock()
		return
	}
	r.votes[ok.VoterID] = true
	r.mu.Unlock()
	r.maybeWin()
}

// handleCoordinator is the loser side: adopt the winner as the new
// primary and, when we are the member-advertised replica, relay the
// takeover notice to the area.
func (r *Replica) handleCoordinator(f *wire.Frame) {
	var co wire.Coordinator
	if err := wire.DecodePlain(f.Body, &co); err != nil {
		return
	}
	p, found := r.peer(co.LeaderID)
	if !found || p.Pub.Verify(f.Body, f.Sig) != nil {
		return
	}
	pub, err := crypt.ParsePublicKey(co.PubDER)
	if err != nil {
		return
	}
	r.mu.Lock()
	if r.promoted != nil {
		r.mu.Unlock()
		return
	}
	r.electing = false
	r.suppressUntil = time.Time{}
	r.votedFor = ""
	r.primaryID = co.LeaderID
	r.primaryPub = pub
	r.lastHB = r.clk.Now()
	announcer := r.cfg.Announcer
	r.mu.Unlock()
	r.trace.Event(obs.ProtoElection, co.LeaderID, "coordinator",
		obs.String("voter", r.cfg.ID))
	if announcer && co.LeaderID != r.cfg.ID {
		// Members verify ACFailover signatures against OUR key (it was
		// advertised in their welcomes); vouch for the winner.
		fo := wire.ACFailover{
			AreaID: co.AreaID, NewAddr: co.Addr, NewPub: co.PubDER, Epoch: co.Epoch,
		}
		for _, addr := range co.MemberAddrs {
			r.sendPlain(addr, wire.KindACFailover, fo)
		}
	}
}

// maybeWin promotes when the candidacy holds a quorum of the replica set.
func (r *Replica) maybeWin() {
	r.mu.Lock()
	if !r.electing || r.promoted != nil || len(r.votes)+1 < r.quorum() {
		r.mu.Unlock()
		return
	}
	r.electing = false
	votes := len(r.votes) + 1
	r.mu.Unlock()
	r.win(votes)
}

// win takes over the area with the controller rebuilt from the
// replicated log.
func (r *Replica) win(votes int) {
	ctrl, j, err := r.restore()
	if err != nil {
		r.cfg.Logf("%s: promotion failed: %v", r.cfg.ID, err)
		r.mu.Lock()
		r.suppressUntil = r.clk.Now().Add(r.takeover)
		r.mu.Unlock()
		return
	}
	memberAddrs := ctrl.BootMemberAddrs()
	epoch := ctrl.BootEpoch()

	// Exit the loop so the replica stops consuming the shared transport —
	// every subsequent frame then reaches the promoted controller.
	r.loop.Exit()
	r.mu.Lock()
	lsn := r.nextLSN
	primary := r.primaryID
	r.mu.Unlock()
	r.cElections.Inc()
	r.trace.Event(obs.ProtoElection, primary, "won",
		obs.Int("votes", int64(votes)), obs.Uint("lsn", lsn))
	r.trace.Event(obs.ProtoFailover, primary, "promoted",
		obs.String("backup", r.cfg.ID))

	co := wire.Coordinator{
		AreaID:      r.areaID(),
		LeaderID:    r.cfg.ID,
		Addr:        r.cfg.Transport.Addr(),
		PubDER:      r.cfg.Keys.Public().Marshal(),
		Epoch:       epoch,
		MemberAddrs: memberAddrs,
	}
	for _, p := range r.cfg.Peers {
		r.sendPlain(p.Addr, wire.KindCoordinator, co)
	}

	ctrl.Start()
	ctrl.AnnounceFailover()
	r.mu.Lock()
	r.promoted, r.journal = ctrl, j
	r.mu.Unlock()
}

// restore rebuilds the area controller from the replicated log. The log
// is first installed as this replica's own journal and recovered from
// there, so the controller resumes appending at the dead primary's next
// LSN and the surviving replicas pull the continuation exactly as they
// pulled the original. The disk work runs without mu held.
func (r *Replica) restore() (*area.Controller, *journal.Journal, error) {
	r.mu.Lock()
	rec := &journal.Recovery{Snapshot: r.base, SnapshotLSN: r.baseLSN, Records: r.recs}
	r.mu.Unlock()
	if err := journal.Install(r.cfg.Journal, rec); err != nil {
		return nil, nil, err
	}
	j, rec, err := journal.Open(r.cfg.Journal)
	if err != nil {
		return nil, nil, err
	}
	cfg := r.cfg.ControllerConfig
	cfg.ID = r.cfg.ID
	cfg.Transport = r.cfg.Transport
	cfg.Keys = r.cfg.Keys
	cfg.Clock = r.cfg.Clock
	cfg.Logf = r.cfg.Logf
	cfg.Journal = j
	if cfg.Observer == nil {
		cfg.Observer = r.cfg.Observer
	}
	ctrl, err := area.NewFromJournal(cfg, rec)
	if err != nil {
		_ = j.Close() // the replay error is the one worth reporting
		return nil, nil, err
	}
	return ctrl, j, nil
}

// sendPlain sends a signed plain-body frame; election traffic carries no
// secrets, and signatures are what peers and members verify.
func (r *Replica) sendPlain(addr string, kind wire.Kind, body wire.Marshaler) {
	blob, err := wire.PlainBody(body)
	if err != nil {
		return
	}
	f := &wire.Frame{
		Kind: kind,
		From: r.cfg.Transport.Addr(),
		Body: blob,
		Sig:  r.cfg.Keys.Sign(blob),
	}
	if err := r.cfg.Transport.Send(addr, f); err != nil {
		r.cfg.Logf("%s: send %v to %s: %v", r.cfg.ID, kind, addr, err)
	}
}
