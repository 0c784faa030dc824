// Package core assembles complete Mykil deployments: a registration
// server, a tree of area controllers (optionally each with a replica set
// following its journal), and any number of members, all wired over the
// simulated network. It is the facade the examples, integration tests,
// and benchmarks use; the underlying pieces live in internal/regserver,
// internal/area, internal/member, and internal/replica.
package core

import (
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"mykil/internal/area"
	"mykil/internal/clock"
	"mykil/internal/crypt"
	"mykil/internal/journal"
	"mykil/internal/member"
	"mykil/internal/node"
	"mykil/internal/obs"
	"mykil/internal/regserver"
	"mykil/internal/replica"
	"mykil/internal/simnet"
	"mykil/internal/transport"
	"mykil/internal/wire"
)

// DefaultRSABits keeps in-process experiments fast; the paper's 2048-bit
// keys are selected with WithRSABits.
const DefaultRSABits = 1024

// config describes a deployment. It is the With* option functions'
// private target: core.New(core.WithAreas(2), ...) is the one way to
// fill it.
type config struct {
	// NumAreas is the number of areas (and controllers). Controllers
	// form a binary tree: controller i's parent is controller (i-1)/2.
	NumAreas int
	// RSABits sets every principal's key size; 0 means DefaultRSABits.
	RSABits int
	// Batching enables §III-E aggregation at every controller.
	Batching bool
	// TreeArity sets auxiliary-key-tree fan-out (0 = paper's 4).
	TreeArity int
	// CipherSuite names the symmetric suite every area runs — key-tree
	// ciphertexts, hop-by-hop data-key sealing and its members' data
	// payloads: "legacy" (the default, and the paper's HMAC+stream
	// construction), "aes-gcm", or "chacha20-poly1305". Members
	// advertise what they speak at join/rejoin and controllers deny
	// joiners that cannot follow the area's suite.
	CipherSuite string
	// NumReplicas gives every controller n replicas running quorum leader
	// election over journal-segment replication (internal/replica); one
	// replica is the paper's §IV-C passive backup. The first replica of
	// each controller is the announcer whose key members learn at join; it
	// relays the election winner's failover announcement. Replicas follow
	// the controller's journal, so JournalDir is required with them; an
	// election winner continues the log under <JournalDir>/<replicaID>.
	NumReplicas int
	// SplitAbove, when > 0, makes every controller shed the upper half of
	// its sorted membership to a freshly spawned sibling once its live
	// membership exceeds the watermark (dynamic area split). The group
	// orchestrates the spawn, registers the sibling with the registration
	// server, and migrates members via prevouched ticket rejoins.
	SplitAbove int
	// MergeBelow, when > 0, makes a controller whose live membership sinks
	// under the watermark (but stays above zero) fold its members into its
	// parent area and retire. The root controller never auto-merges.
	MergeBelow int
	// Policy selects rejoin behaviour under partition.
	Policy area.PartitionPolicy
	// SkipRejoinVerify omits rejoin steps 4-5 at every controller
	// (§V-D's option-2 latency variant).
	SkipRejoinVerify bool
	// DataWorkers sizes each controller's data-plane worker pool (rekey
	// entry encryption, welcome sealing, Iolus-style data re-encryption);
	// zero means one worker per CPU, 1 is effectively serial.
	DataWorkers int
	// Clock drives all timers; nil means clock.Real. Use a clock.Fake
	// to step failure detection deterministically.
	Clock clock.Clock
	// Net, if set, is used instead of a fresh lossless network.
	Net *simnet.Network
	// NewTransport, if set, overrides how component transports are
	// created (e.g. transport.NewTCP for a real-network deployment); the
	// name parameter is the component's identity ("rs", "ac-0", member
	// ID). When nil, simnet transports named after the identity are
	// used. Addresses always come from Transport.Addr().
	NewTransport func(name string) (transport.Transport, error)
	// AuthDB maps acceptable auth-info strings to membership durations.
	// Nil installs {"valid": 24h}.
	AuthDB map[string]time.Duration
	// Timing overrides passed to every controller and member.
	TIdle          time.Duration
	TActive        time.Duration
	RekeyInterval  time.Duration
	VerifyTimeout  time.Duration
	HeartbeatEvery time.Duration
	OpTimeout      time.Duration
	// JournalDir and FsyncPolicy: see WithJournal.
	JournalDir  string
	FsyncPolicy string
	// SegmentBytes overrides the journal segment rotation threshold;
	// zero means the journal default.
	SegmentBytes int64
	// KeyPool: see WithTestKeyPool. Production deployments leave it nil.
	KeyPool *crypt.KeyPool
	// Observer, if set, receives structured protocol trace events from
	// every component (handshake steps, rekeys, alive rounds,
	// re-parenting, journal recovery). See internal/obs.
	Observer obs.Sink
	// Logf, if set, receives debug logging from every component.
	Logf func(format string, args ...any)
}

// Group is a running deployment.
type Group struct {
	Net   *simnet.Network
	Clock clock.Clock
	RS    *regserver.Server

	cfg         config
	ownsNet     bool
	rsTransport transport.Transport
	controllers []*area.Controller
	ctrlInfo    []wire.ACInfo
	replicas    []*replica.Replica
	pool        crypt.KeySource
	rsKeys      *crypt.KeyPair
	kShared     crypt.SymKey
	metrics     *obs.Registry
	trace       *obs.Tracer

	// Durability (only populated when cfg.JournalDir is set).
	acCfgs     []area.Config
	fsync      journal.FsyncPolicy // WithJournal's fsync policy, parsed
	acJournals []*journal.Journal
	rsJournal  *journal.Journal
	recovered  []string

	mu         sync.Mutex
	members    map[string]*member.Member
	transports []transport.Transport
	closed     bool
}

// ACAddr returns controller i's transport address.
func ACAddr(i int) string { return fmt.Sprintf("ac-%d", i) }

// ACID returns controller i's identity.
func ACID(i int) string { return ACAddr(i) }

// ReplicaAddr returns the address of controller i's r-th replica. Replica
// 0 keeps the historical "backup-i" name; later replicas append their
// index.
func ReplicaAddr(i, r int) string {
	if r == 0 {
		return fmt.Sprintf("backup-%d", i)
	}
	return fmt.Sprintf("backup-%d-%d", i, r)
}

// RSAddr is the registration server's address.
const RSAddr = "rs"

// build constructs and starts a deployment from the config New assembled.
func build(cfg config) (*Group, error) {
	if cfg.NumAreas <= 0 {
		cfg.NumAreas = 1
	}
	if cfg.RSABits == 0 {
		cfg.RSABits = DefaultRSABits
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.AuthDB == nil {
		cfg.AuthDB = map[string]time.Duration{"valid": 24 * time.Hour}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.NumReplicas > 0 && cfg.JournalDir == "" {
		return nil, fmt.Errorf("core: replicas follow their controller's journal: WithReplicas needs WithJournal")
	}

	g := &Group{
		Clock:   cfg.Clock,
		cfg:     cfg,
		kShared: crypt.NewSymKey(),
		members: make(map[string]*member.Member),
		metrics: obs.NewRegistry(),
	}
	if cfg.KeyPool != nil {
		g.pool = cfg.KeyPool
	} else {
		g.pool = crypt.NewPool(cfg.RSABits)
	}
	g.trace = obs.NewTracer("core", cfg.Clock, cfg.Observer)
	if cfg.NewTransport == nil {
		if cfg.Net != nil {
			g.Net = cfg.Net
		} else {
			g.Net = simnet.New(simnet.Config{})
			g.ownsNet = true
		}
		net := g.Net
		cfg.NewTransport = func(name string) (transport.Transport, error) {
			return transport.NewSim(net, name)
		}
		g.cfg.NewTransport = cfg.NewTransport
	}

	// Pre-generate every controller-side key pair in parallel.
	nKeys := 1 + cfg.NumAreas + cfg.NumAreas*cfg.NumReplicas
	if err := g.pool.Warm(nKeys); err != nil {
		return nil, fmt.Errorf("core: warming key pool: %w", err)
	}

	g.rsKeys = g.pool.Next()

	// All component transports first: with a real-network factory the
	// directory must carry listener-assigned addresses.
	var err error
	acTrs := make([]transport.Transport, cfg.NumAreas)
	for i := range acTrs {
		if acTrs[i], err = cfg.NewTransport(ACAddr(i)); err != nil {
			return nil, err
		}
		g.transports = append(g.transports, acTrs[i])
	}
	repTrs := make([][]transport.Transport, cfg.NumAreas)
	for i := range repTrs {
		repTrs[i] = make([]transport.Transport, cfg.NumReplicas)
		for r := range repTrs[i] {
			if repTrs[i][r], err = cfg.NewTransport(ReplicaAddr(i, r)); err != nil {
				return nil, err
			}
			g.transports = append(g.transports, repTrs[i][r])
		}
	}
	rsTr, err := cfg.NewTransport(RSAddr)
	if err != nil {
		return nil, err
	}
	g.rsTransport = rsTr
	g.transports = append(g.transports, rsTr)

	// Controller key pairs and the directory.
	ctrlKeys := make([]*crypt.KeyPair, cfg.NumAreas)
	g.ctrlInfo = make([]wire.ACInfo, cfg.NumAreas)
	for i := 0; i < cfg.NumAreas; i++ {
		ctrlKeys[i] = g.pool.Next()
		g.ctrlInfo[i] = wire.ACInfo{
			ID:     ACID(i),
			Addr:   acTrs[i].Addr(),
			PubDER: ctrlKeys[i].Public().Marshal(),
		}
	}

	// Replica key pairs.
	repKeys := make([][]*crypt.KeyPair, cfg.NumAreas)
	for i := range repKeys {
		repKeys[i] = make([]*crypt.KeyPair, cfg.NumReplicas)
		for r := range repKeys[i] {
			repKeys[i][r] = g.pool.Next()
		}
	}

	// Journal sync discipline and cipher suite, validated once up front.
	if g.fsync, err = journal.ParseFsyncPolicy(cfg.FsyncPolicy); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if _, err := crypt.SuiteByName(cfg.CipherSuite); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// Controllers, root first so parents exist before children join.
	// bootRecs keeps what each journal held at boot, to seed the replicas.
	bootRecs := make([]*journal.Recovery, cfg.NumAreas)
	for i := 0; i < cfg.NumAreas; i++ {
		acCfg := g.controllerConfig(i, g.ctrlInfo)
		acCfg.ID = ACID(i)
		acCfg.Transport = acTrs[i]
		acCfg.Keys = ctrlKeys[i]
		if i > 0 {
			const areaFanout = 2 // children per controller in the area tree
			parentIdx := (i - 1) / areaFanout
			acCfg.Parent = &area.PeerInfo{
				ID:   ACID(parentIdx),
				Addr: acTrs[parentIdx].Addr(),
				Pub:  ctrlKeys[parentIdx].Public(),
			}
			// Preferred fallback parents: every other controller,
			// nearest indices first.
			for j := 0; j < cfg.NumAreas; j++ {
				if j != i && j != parentIdx {
					acCfg.PreferredParents = append(acCfg.PreferredParents, ACID(j))
				}
			}
		}
		if cfg.NumReplicas > 0 {
			reps := make([]area.PeerInfo, cfg.NumReplicas)
			for r := range reps {
				reps[r] = area.PeerInfo{
					ID:   ReplicaAddr(i, r),
					Addr: repTrs[i][r].Addr(),
					Pub:  repKeys[i][r].Public(),
				}
			}
			acCfg.Replicas = reps
		}
		acCfg.SplitAbove = cfg.SplitAbove
		acCfg.MergeBelow = cfg.MergeBelow
		if cfg.SplitAbove > 0 {
			idx := i
			acCfg.OnSplit = func(ids []string) { g.autoSplit(idx, ids) }
		}
		if cfg.MergeBelow > 0 && i > 0 {
			idx := i
			acCfg.OnMerge = func() { g.autoMerge(idx) }
		}
		var ctrl *area.Controller
		if cfg.JournalDir != "" {
			j, rec, jerr := g.openJournal(ACID(i))
			if jerr != nil {
				return nil, jerr
			}
			acCfg.Journal = j
			g.acJournals = append(g.acJournals, j)
			bootRecs[i] = rec
			ctrl, err = area.NewFromJournal(acCfg, rec)
		} else {
			ctrl, err = area.New(acCfg)
		}
		if err != nil {
			return nil, err
		}
		g.acCfgs = append(g.acCfgs, acCfg)
		g.controllers = append(g.controllers, ctrl)
	}

	// Replicas watch their primaries and, with more than one per area,
	// each other: on primary silence they hold a quorum leader election
	// and the winner rebuilds the controller from the journal segments it
	// replicated.
	for i := 0; i < cfg.NumAreas; i++ {
		if cfg.NumReplicas == 0 {
			break
		}
		hb := cfg.HeartbeatEvery
		if hb == 0 {
			hb = cfg.TIdle
		}
		if hb == 0 {
			hb = area.DefaultTIdle
		}
		peers := make([]replica.Peer, cfg.NumReplicas)
		for r := range peers {
			peers[r] = replica.Peer{
				ID:   ReplicaAddr(i, r),
				Addr: repTrs[i][r].Addr(),
				Pub:  repKeys[i][r].Public(),
			}
		}
		for r := 0; r < cfg.NumReplicas; r++ {
			others := make([]replica.Peer, 0, cfg.NumReplicas-1)
			var survivors []area.PeerInfo
			for o := range peers {
				if o == r {
					continue
				}
				others = append(others, peers[o])
				survivors = append(survivors, area.PeerInfo{
					ID: peers[o].ID, Addr: peers[o].Addr, Pub: peers[o].Pub,
				})
			}
			// A promoted winner serves the primary's area and keeps
			// replicating to the surviving replicas.
			promoted := g.controllerConfig(i, g.ctrlInfo)
			promoted.Replicas = survivors
			b, err := replica.New(replica.Config{
				ID:         ReplicaAddr(i, r),
				Transport:  repTrs[i][r],
				Keys:       repKeys[i][r],
				Clock:      cfg.Clock,
				PrimaryID:  ACID(i),
				PrimaryPub: ctrlKeys[i].Public(),
				// Bootstrap cadence only: every SegmentPush carries the
				// primary's authoritative HeartbeatEvery, which overrides
				// this on adoption.
				HeartbeatEvery: hb,
				Peers:          others,
				Announcer:      r == 0,
				Journal:        g.journalOptions(ReplicaAddr(i, r)),
				// If the primary dies before answering a single pull, the
				// election winner still restores what its disk held at boot.
				Seed:             bootRecs[i],
				ControllerConfig: promoted,
				Observer:         cfg.Observer,
				Logf:             cfg.Logf,
			})
			if err != nil {
				return nil, err
			}
			g.replicas = append(g.replicas, b)
		}
	}
	rsCfg := regserver.Config{
		Transport:   rsTr,
		Keys:        g.rsKeys,
		Clock:       cfg.Clock,
		Auth:        regserver.StaticAuthorizer(cfg.AuthDB),
		Controllers: g.ctrlInfo,
		Observer:    cfg.Observer,
		Logf:        cfg.Logf,
	}
	if cfg.JournalDir != "" {
		j, rec, jerr := g.openJournal("rs")
		if jerr != nil {
			return nil, jerr
		}
		g.rsJournal = j
		rsCfg.Journal = j
		rsCfg.Recovery = rec
	}
	rs, err := regserver.New(rsCfg)
	if err != nil {
		return nil, err
	}
	g.RS = rs

	// Start everything: controllers root-first, then replicas, then RS.
	for _, c := range g.controllers {
		c.Start()
	}
	for _, b := range g.replicas {
		b.Start()
	}
	rs.Start()
	return g, nil
}

// controllerConfig is the configuration every controller of area i starts
// from — the one built at New, a split sibling, a controller an election
// winner promotes — before its identity and topology links are filled in.
func (g *Group) controllerConfig(i int, directory []wire.ACInfo) area.Config {
	return area.Config{
		AreaID:           fmt.Sprintf("area-%d", i),
		Clock:            g.cfg.Clock,
		KShared:          g.kShared,
		RSPub:            g.rsKeys.Public(),
		Directory:        directory,
		Batching:         g.cfg.Batching,
		TreeArity:        g.cfg.TreeArity,
		Suite:            g.cfg.CipherSuite,
		Policy:           g.cfg.Policy,
		SkipRejoinVerify: g.cfg.SkipRejoinVerify,
		DataWorkers:      g.cfg.DataWorkers,
		TIdle:            g.cfg.TIdle,
		TActive:          g.cfg.TActive,
		RekeyInterval:    g.cfg.RekeyInterval,
		VerifyTimeout:    g.cfg.VerifyTimeout,
		HeartbeatEvery:   g.cfg.HeartbeatEvery,
		Observer:         g.cfg.Observer,
		Logf:             g.cfg.Logf,
	}
}

// journalOptions locates and parameterizes one named component's journal
// under the WithJournal directory.
func (g *Group) journalOptions(name string) journal.Options {
	return journal.Options{
		Dir:          filepath.Join(g.cfg.JournalDir, name),
		Fsync:        g.fsync,
		SegmentBytes: g.cfg.SegmentBytes,
		Logf:         g.cfg.Logf,
		Clock:        g.cfg.Clock,
	}
}

// openJournal opens (or recovers) the journal for one named component,
// recording anything it restored.
func (g *Group) openJournal(name string) (*journal.Journal, *journal.Recovery, error) {
	j, rec, err := journal.Open(g.journalOptions(name))
	if err != nil {
		return nil, nil, fmt.Errorf("core: opening journal for %s: %w", name, err)
	}
	if !rec.Empty() {
		g.mu.Lock()
		g.recovered = append(g.recovered, fmt.Sprintf(
			"%s: recovered snapshot@%d + %d records (truncated %d torn bytes)",
			name, rec.SnapshotLSN, len(rec.Records), rec.TruncatedBytes))
		g.mu.Unlock()
		g.trace.Event(obs.ProtoRecovery, name, "recovered",
			obs.Int("records", int64(len(rec.Records))),
			obs.Uint("snapshot_lsn", uint64(rec.SnapshotLSN)),
			obs.Int("truncated_bytes", int64(rec.TruncatedBytes)))
	}
	return j, rec, nil
}

// Controller returns controller i.
func (g *Group) Controller(i int) *area.Controller {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.controllers[i]
}

// RestartController kills controller i without a clean shutdown and
// rebuilds it from its journal: the loop stops, the journal's file
// descriptors are abandoned un-synced (a crash, as far as disk state is
// concerned), and a fresh controller recovers from whatever the chosen
// FsyncPolicy made durable. The restarted controller reuses the same
// transport, so members keep talking to the same address. Requires
// WithJournal.
func (g *Group) RestartController(i int) error {
	if g.cfg.JournalDir == "" {
		return fmt.Errorf("core: RestartController requires JournalDir")
	}
	g.mu.Lock()
	old := g.controllers[i]
	g.mu.Unlock()

	old.Close()
	g.acJournals[i].Abandon()

	j, rec, err := g.openJournal(ACID(i))
	if err != nil {
		return err
	}
	acCfg := g.acCfgs[i]
	acCfg.Journal = j
	ctrl, err := area.NewFromJournal(acCfg, rec)
	if err != nil {
		_ = j.Close()
		return fmt.Errorf("core: recovering %s: %w", ACID(i), err)
	}
	g.mu.Lock()
	g.acJournals[i] = j
	g.controllers[i] = ctrl
	g.mu.Unlock()
	ctrl.Start()
	return nil
}

// RecoverySummary reports, one line per component, what was restored
// from journals — both at New over an existing JournalDir and by
// RestartController calls since.
func (g *Group) RecoverySummary() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.recovered...)
}

// NumAreas returns the configured number of areas.
func (g *Group) NumAreas() int { return len(g.controllers) }

// Replica returns controller i's r-th replica, or nil when out of range.
// Only the controllers present at New have replicas; siblings spawned by
// an area split run unreplicated until restarted into a replicated
// deployment.
func (g *Group) Replica(i, r int) *replica.Replica {
	n := g.cfg.NumReplicas
	if n == 0 || i < 0 || r < 0 || r >= n || i >= g.cfg.NumAreas {
		return nil
	}
	return g.replicas[i*n+r]
}

// ReplicasPerArea reports the configured replica count per controller.
func (g *Group) ReplicasPerArea() int { return g.cfg.NumReplicas }

// Directory returns the live controller directory (splits append to it,
// merges remove from it).
func (g *Group) Directory() []wire.ACInfo {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]wire.ACInfo(nil), g.ctrlInfo...)
}

// SplitArea splits controller i by hand: the upper half of its sorted
// live membership migrates to a freshly spawned sibling controller, which
// is registered with the registration server and parented under the
// source so data keeps routing. Returns the new controller's ID and the
// number of members actually reassigned. With WithAreaWatermarks'
// splitAbove set the same machinery runs automatically on the watermark
// crossing.
func (g *Group) SplitArea(i int) (string, int, error) {
	g.mu.Lock()
	if i < 0 || i >= len(g.controllers) {
		g.mu.Unlock()
		return "", 0, fmt.Errorf("core: SplitArea(%d): no such controller", i)
	}
	src := g.controllers[i]
	g.mu.Unlock()
	ids := src.MemberIDs()
	return g.splitFrom(i, ids[len(ids)/2+len(ids)%2:])
}

// splitFrom spawns a sibling for controller i and migrates the given
// members into it. The spawn order matters: the sibling must be running
// and registered (directory, registration server, prevouch) before the
// source reassigns anyone, so a migrant's ticket rejoin cannot arrive
// ahead of the controller that must admit it.
func (g *Group) splitFrom(i int, migrate []string) (string, int, error) {
	if len(migrate) == 0 {
		return "", 0, fmt.Errorf("core: split of %s: no migratable members", ACID(i))
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return "", 0, fmt.Errorf("core: split of %s: group closed", ACID(i))
	}
	src := g.controllers[i]
	srcCfg := g.acCfgs[i]
	newIdx := len(g.controllers)
	g.mu.Unlock()
	newID := ACID(newIdx)

	tr, err := g.cfg.NewTransport(newID)
	if err != nil {
		return "", 0, fmt.Errorf("core: split of %s: %w", ACID(i), err)
	}
	keys := g.pool.Next()
	info := wire.ACInfo{ID: newID, Addr: tr.Addr(), PubDER: keys.Public().Marshal()}

	acCfg := g.controllerConfig(newIdx, append(g.Directory(), info))
	acCfg.ID = newID
	acCfg.Transport = tr
	acCfg.Keys = keys
	// The sibling hangs under the source controller, so its area's data
	// still routes through the tree it split from.
	acCfg.Parent = &area.PeerInfo{
		ID:   srcCfg.ID,
		Addr: srcCfg.Transport.Addr(),
		Pub:  srcCfg.Keys.Public(),
	}
	acCfg.SplitAbove = g.cfg.SplitAbove
	acCfg.MergeBelow = g.cfg.MergeBelow
	if g.cfg.SplitAbove > 0 {
		acCfg.OnSplit = func(ids []string) { g.autoSplit(newIdx, ids) }
	}
	if g.cfg.MergeBelow > 0 {
		acCfg.OnMerge = func() { g.autoMerge(newIdx) }
	}
	var ctrl *area.Controller
	var j *journal.Journal
	if g.cfg.JournalDir != "" {
		var rec *journal.Recovery
		j, rec, err = g.openJournal(newID)
		if err != nil {
			_ = tr.Close()
			return "", 0, err
		}
		acCfg.Journal = j
		ctrl, err = area.NewFromJournal(acCfg, rec)
	} else {
		ctrl, err = area.New(acCfg)
	}
	if err != nil {
		if j != nil {
			_ = j.Close()
		}
		_ = tr.Close()
		return "", 0, fmt.Errorf("core: split of %s: spawning %s: %w", ACID(i), newID, err)
	}

	g.mu.Lock()
	g.controllers = append(g.controllers, ctrl)
	g.acCfgs = append(g.acCfgs, acCfg)
	if j != nil {
		g.acJournals = append(g.acJournals, j)
	}
	g.transports = append(g.transports, tr)
	g.ctrlInfo = append(g.ctrlInfo, info)
	peers := make([]*area.Controller, 0, len(g.controllers)-1)
	for k, c := range g.controllers {
		if k != newIdx {
			peers = append(peers, c)
		}
	}
	g.mu.Unlock()

	// Introduce the sibling to the controllers that predate it — above
	// all its parent, which would otherwise refuse the area-join request
	// of an unknown controller.
	for _, c := range peers {
		c.UpsertDirectory(info)
	}
	ctrl.Start()
	if err := g.RS.AddController(info); err != nil {
		return newID, 0, fmt.Errorf("core: split of %s: registering %s: %w", ACID(i), newID, err)
	}
	ctrl.Prevouch(migrate)
	n, err := src.Reassign(migrate, area.PeerInfo{ID: newID, Addr: tr.Addr(), Pub: keys.Public()}, "split")
	if err != nil {
		return newID, n, fmt.Errorf("core: split of %s: reassigning to %s: %w", ACID(i), newID, err)
	}
	g.trace.Event(obs.ProtoSplit, ACID(i), "split",
		obs.String("sibling", newID), obs.Int("migrated", int64(n)))
	return newID, n, nil
}

// autoSplit is the splitAbove watermark callback for controller i.
func (g *Group) autoSplit(i int, migrate []string) {
	newID, n, err := g.splitFrom(i, migrate)
	if err != nil {
		g.cfg.Logf("core: auto split of %s: %v", ACID(i), err)
		return
	}
	g.cfg.Logf("core: split %s: %d members migrated to %s", ACID(i), n, newID)
}

// MergeArea drains controller i into controller `into` and retires it:
// the registration server drops it from the directory first (no new
// joins land on it), the survivor prevouches the migration set, every
// member is reassigned, and the drained controller shuts down. Its slot
// in the controller list remains (indices stay stable) but it serves
// nothing. With WithAreaWatermarks' mergeBelow set, an underpopulated
// non-root controller merges into its parent automatically.
func (g *Group) MergeArea(i, into int) (int, error) {
	g.mu.Lock()
	if i < 0 || i >= len(g.controllers) || into < 0 || into >= len(g.controllers) || i == into {
		g.mu.Unlock()
		return 0, fmt.Errorf("core: MergeArea(%d, %d): bad controller pair", i, into)
	}
	live := false
	for _, ac := range g.ctrlInfo {
		if ac.ID == ACID(i) {
			live = true
		}
	}
	if !live {
		g.mu.Unlock()
		return 0, fmt.Errorf("core: MergeArea: %s already retired", ACID(i))
	}
	dying := g.controllers[i]
	survivor := g.controllers[into]
	survivorCfg := g.acCfgs[into]
	g.mu.Unlock()

	if err := g.RS.RemoveController(ACID(i)); err != nil {
		return 0, fmt.Errorf("core: merge of %s: %w", ACID(i), err)
	}
	ids := dying.MemberIDs()
	survivor.Prevouch(ids)
	target := area.PeerInfo{
		ID:   survivorCfg.ID,
		Addr: survivorCfg.Transport.Addr(),
		Pub:  survivorCfg.Keys.Public(),
	}
	n, err := dying.Reassign(ids, target, "merge")
	if err != nil {
		return n, fmt.Errorf("core: merge of %s: %w", ACID(i), err)
	}

	g.mu.Lock()
	for k := range g.ctrlInfo {
		if g.ctrlInfo[k].ID == ACID(i) {
			g.ctrlInfo = append(g.ctrlInfo[:k], g.ctrlInfo[k+1:]...)
			break
		}
	}
	survivors := make([]*area.Controller, 0, len(g.controllers)-1)
	for k, c := range g.controllers {
		if k != i {
			survivors = append(survivors, c)
		}
	}
	g.mu.Unlock()
	for _, c := range survivors {
		c.RemoveDirectory(ACID(i))
	}
	dying.Close()
	if g.cfg.JournalDir != "" {
		_ = g.acJournals[i].Close()
	}
	g.trace.Event(obs.ProtoSplit, ACID(i), "merged",
		obs.String("survivor", ACID(into)), obs.Int("migrated", int64(n)))
	return n, nil
}

// autoMerge is the mergeBelow watermark callback for controller i:
// it folds the controller into its (still live) parent.
func (g *Group) autoMerge(i int) {
	g.mu.Lock()
	into := -1
	if parent := g.acCfgs[i].Parent; parent != nil {
		for k := range g.acCfgs {
			if g.acCfgs[k].ID != parent.ID {
				continue
			}
			for _, ac := range g.ctrlInfo {
				if ac.ID == parent.ID {
					into = k
				}
			}
			break
		}
	}
	g.mu.Unlock()
	if into < 0 {
		g.cfg.Logf("core: auto merge of %s: no live parent to merge into", ACID(i))
		return
	}
	n, err := g.MergeArea(i, into)
	if err != nil {
		g.cfg.Logf("core: auto merge of %s: %v", ACID(i), err)
		return
	}
	g.cfg.Logf("core: merge %s: %d members folded into %s", ACID(i), n, ACID(into))
}

// KShared exposes the shared ticket key, for tests that forge tickets.
func (g *Group) KShared() crypt.SymKey { return g.kShared }

// MemberConfig tweaks one member.
type MemberConfig struct {
	// AuthInfo defaults to "valid".
	AuthInfo string
	// OnData receives decrypted payloads on the member's loop. The payload
	// is borrowed and valid only until OnData returns: copy what you keep.
	OnData func(payload []byte, origin string)
	// AutoRejoin enables §IV-B automatic recovery.
	AutoRejoin bool
	// Suites is the cipher-suite bitmask (1<<crypt.SuiteID) the member
	// advertises at join/rejoin; zero means every registered suite. A
	// controller whose area suite falls outside the mask denies the
	// join explicitly.
	Suites uint64
}

// NewMember creates (but does not join) a member with the given ID. On
// the default simnet factory the member's transport address equals its
// ID.
func (g *Group) NewMember(id string, mc MemberConfig) (*member.Member, error) {
	if mc.AuthInfo == "" {
		mc.AuthInfo = "valid"
	}
	tr, err := g.cfg.NewTransport(id)
	if err != nil {
		return nil, err
	}
	keys := g.pool.Next()
	m, err := member.New(member.Config{
		ID:         id,
		Transport:  tr,
		Keys:       keys,
		Clock:      g.cfg.Clock,
		RSAddr:     g.rsTransport.Addr(),
		RSPub:      g.rsKeys.Public(),
		AuthInfo:   mc.AuthInfo,
		OnData:     mc.OnData,
		AutoRejoin: mc.AutoRejoin,
		Suites:     mc.Suites,
		TActive:    g.cfg.TActive,
		TIdle:      g.cfg.TIdle,
		OpTimeout:  g.cfg.OpTimeout,
		Observer:   g.cfg.Observer,
		Metrics:    g.metrics,
		Logf:       g.cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	m.Start()
	g.mu.Lock()
	g.members[id] = m
	g.transports = append(g.transports, tr)
	g.mu.Unlock()
	return m, nil
}

// AddMember creates a member and runs the full join protocol.
func (g *Group) AddMember(id string, mc MemberConfig) (*member.Member, error) {
	m, err := g.NewMember(id, mc)
	if err != nil {
		return nil, err
	}
	if err := m.Join(); err != nil {
		return nil, fmt.Errorf("core: member %s join: %w", id, err)
	}
	return m, nil
}

// Member returns the member with the given ID, or nil.
func (g *Group) Member(id string) *member.Member {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.members[id]
}

// WarmMemberKeys pre-generates n member key pairs in parallel.
func (g *Group) WarmMemberKeys(n int) error { return g.pool.Warm(n) }

// Metrics returns the group-level registry holding the member join and
// rejoin latency histograms (shared across all members of the group).
func (g *Group) Metrics() *obs.Registry { return g.metrics }

// metricRegistries snapshots every registry in the deployment: the
// group-level histograms, each controller, the registration server,
// every member's loop counters, and the simulated network (when owned).
func (g *Group) metricRegistries() []*obs.Registry {
	regs := []*obs.Registry{g.metrics}
	g.mu.Lock()
	for _, c := range g.controllers {
		regs = append(regs, c.Stats())
	}
	for _, m := range g.members {
		regs = append(regs, m.Stats())
	}
	g.mu.Unlock()
	if g.RS != nil {
		regs = append(regs, g.RS.Stats())
	}
	if g.Net != nil {
		regs = append(regs, g.Net.Stats())
	}
	return regs
}

// WriteMetrics writes every component's metrics as one merged
// Prometheus text exposition — the body mykilnet serves on /metrics.
func (g *Group) WriteMetrics(w io.Writer) error {
	return obs.WriteAll(w, g.metricRegistries()...)
}

// DropSummary reports, one line per component, the commands each node
// loop dropped after stopping (node.drops) plus the simulated network's
// five sim.dropped.* counters — the loss surface a shutdown summary
// should always show.
func (g *Group) DropSummary() []string {
	var out []string
	g.mu.Lock()
	controllers := append([]*area.Controller(nil), g.controllers...)
	var memberDrops int64
	nMembers := len(g.members)
	for _, m := range g.members {
		memberDrops += m.Stats().Value(node.StatDrops)
	}
	g.mu.Unlock()
	for i, c := range controllers {
		out = append(out, fmt.Sprintf("%s %s=%d", ACID(i), node.StatDrops, c.Stats().Value(node.StatDrops)))
	}
	if g.RS != nil {
		out = append(out, fmt.Sprintf("regserver %s=%d", node.StatDrops, g.RS.Stats().Value(node.StatDrops)))
	}
	out = append(out, fmt.Sprintf("members(%d) %s=%d", nMembers, node.StatDrops, memberDrops))
	if g.Net != nil {
		st := g.Net.Stats()
		for _, name := range []string{
			simnet.StatDroppedPartition, simnet.StatDroppedCrashed,
			simnet.StatDroppedRate, simnet.StatDroppedOverflow,
			simnet.StatDroppedClosed,
		} {
			out = append(out, fmt.Sprintf("net %s=%d", name, st.Value(name)))
		}
		// Per-lane breakdown: queued depth plus each lane's share of the
		// drops, so a hot or lossy delivery lane is visible at shutdown.
		for i := 0; i < g.Net.NumShards(); i++ {
			var dropped int64
			for _, name := range []string{
				simnet.StatDroppedPartition, simnet.StatDroppedCrashed,
				simnet.StatDroppedRate, simnet.StatDroppedOverflow,
				simnet.StatDroppedClosed,
			} {
				dropped += st.Value(fmt.Sprintf("%s.shard%02d", name, i))
			}
			out = append(out, fmt.Sprintf("net sim.shard%02d depth=%d dropped=%d",
				i, st.Value(fmt.Sprintf("sim.shard%02d.depth", i)), dropped))
		}
	}
	return out
}

// Close stops every component and, if the group owns it, the network.
func (g *Group) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	members := make([]*member.Member, 0, len(g.members))
	for _, m := range g.members {
		members = append(members, m)
	}
	transports := g.transports
	g.mu.Unlock()

	for _, m := range members {
		m.Close()
	}
	g.RS.Close()
	// A replica that won an election closes the controller it promoted
	// and that controller's journal with it.
	for _, b := range g.replicas {
		b.Close()
	}
	for _, c := range g.controllers {
		c.Close()
	}
	// Journals close after their owners stop appending.
	for _, j := range g.acJournals {
		_ = j.Close()
	}
	if g.rsJournal != nil {
		_ = g.rsJournal.Close()
	}
	for _, tr := range transports {
		_ = tr.Close()
	}
	if g.ownsNet {
		g.Net.Close()
	}
}
