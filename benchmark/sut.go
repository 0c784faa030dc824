package main

// sut.go is the only file of the benchmark that touches the program under
// test. Every deployment, member operation, registry read and layer call
// the workloads and the layer walk make goes through the small types
// below, and only through surfaces ROADMAP item 2 keeps (WithReplicas,
// the negotiated WithCipherSuite, journal segments — never WithBackups,
// MemberConfig.DataCipher or ReplicaSync), so an API collapse in the
// program is an edit to this one file.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mykil/internal/area"
	"mykil/internal/clock"
	"mykil/internal/core"
	"mykil/internal/crypt"
	"mykil/internal/journal"
	"mykil/internal/keytree"
	"mykil/internal/member"
	"mykil/internal/node"
	"mykil/internal/obs"
	"mykil/internal/simnet"
	"mykil/internal/ticket"
	"mykil/internal/transport"
	"mykil/internal/wire"
)

// ---- deployments ----

// keyPool is the seeded, shared RSA key pool every workload draws from.
type keyPool struct{ p *crypt.KeyPool }

func newKeyPool(n, bits int, seed int64) (*keyPool, error) {
	p, err := crypt.NewKeyPool(n, bits, seed)
	if err != nil {
		return nil, err
	}
	return &keyPool{p}, nil
}

// deployOpts describes one deployment in the benchmark's own terms.
type deployOpts struct {
	pool     *keyPool
	seed     int64
	areas    int
	replicas int
	batching bool
	suite    string
	// virtual runs every timer on a fake clock over the deterministic
	// single-lane network; the harness pump then owns time. Members get
	// 32-slot mailboxes and controllers deep ones, as E14 does, so
	// thousands of endpoints stay affordable.
	virtual        bool
	latency        time.Duration
	tIdle, tActive time.Duration
	rekeyInterval  time.Duration
	heartbeat      time.Duration
	opTimeout      time.Duration
	journalDir     string
	fsync          string
	// trace, when set, installs the counting transport decorator and the
	// in-memory event sink of a traced run.
	trace *traceCollector
}

// deployment is a running group plus the network and clock it runs on.
type deployment struct {
	opts    deployOpts
	g       *core.Group
	net     *simnet.Network
	fake    *clock.Fake
	start   time.Time // fake-clock origin
	buildS  float64
	mu      sync.Mutex
	trs     map[string]transport.Transport
	members []*sutMember
}

// treeArity is the auxiliary-key-tree fan-out of every workload: the
// paper's 4.
const treeArity = 4

// deploy builds and starts a group. The caller closes it.
func deploy(o deployOpts) (*deployment, error) {
	d := &deployment{opts: o, trs: make(map[string]transport.Transport)}
	nc := simnet.Config{DefaultLatency: o.latency, Seed: o.seed, Virtual: o.virtual}
	var clk clock.Clock = clock.Real{}
	if o.virtual {
		d.start = time.Unix(0, 0)
		d.fake = clock.NewFake(d.start)
		clk = d.fake
		nc.Clock = clk
		nc.InboxCapacity = 32
		nc.InboxCapacityFor = func(addr string) int {
			if roleOf(addr) != "member" {
				return 65536
			}
			return 0
		}
	}
	d.net = simnet.New(nc)
	opts := []core.Option{
		core.WithClock(clk),
		core.WithAreas(o.areas),
		core.WithTreeArity(treeArity),
		core.WithRSABits(o.pool.p.Bits()),
		core.WithTestKeyPool(o.pool.p),
		core.WithCipherSuite(o.suite),
		core.WithTIdle(o.tIdle),
		core.WithTActive(o.tActive),
		core.WithRekeyInterval(o.rekeyInterval),
		core.WithHeartbeatEvery(o.heartbeat),
		core.WithOpTimeout(o.opTimeout),
		// The factory keeps every transport by name so the harness can
		// close a departed session member's endpoint, and is where a
		// traced run installs its counting decorator.
		core.WithTransportFactory(d.newTransport),
	}
	if o.virtual {
		// One data-plane worker, as E14: the pump paces by live traffic.
		opts = append(opts, core.WithDataWorkers(1))
	}
	if o.batching {
		opts = append(opts, core.WithBatching())
	}
	if o.replicas > 0 {
		opts = append(opts, core.WithReplicas(o.replicas))
	}
	if o.journalDir != "" {
		opts = append(opts, core.WithJournal(o.journalDir, o.fsync))
	}
	if o.trace != nil {
		opts = append(opts, core.WithObserver(o.trace))
	}
	t0 := time.Now()
	g, err := core.New(opts...)
	if err != nil {
		d.net.Close()
		return nil, fmt.Errorf("deploy: %w", err)
	}
	d.buildS = time.Since(t0).Seconds()
	d.g = g
	return d, nil
}

func (d *deployment) newTransport(name string) (transport.Transport, error) {
	tr, err := transport.NewSim(d.net, name)
	if err != nil {
		return nil, err
	}
	var out transport.Transport = tr
	if d.opts.trace != nil {
		out = &countingTransport{Transport: tr, tc: d.opts.trace, role: roleOf(name)}
	}
	d.mu.Lock()
	d.trs[name] = out
	d.mu.Unlock()
	return out, nil
}

// Close stops the group and the network.
func (d *deployment) Close() {
	d.g.Close()
	d.net.Close()
}

// virtualElapsed is how far the deployment's clock has moved: fake-clock
// time for virtual deployments, zero otherwise.
func (d *deployment) virtualElapsed() time.Duration {
	if d.fake == nil {
		return 0
	}
	return d.fake.Now().Sub(d.start)
}

// now reads the deployment's clock: the fake one under virtual time.
func (d *deployment) now() time.Time {
	if d.fake != nil {
		return d.fake.Now()
	}
	return time.Now()
}

// Pump surface: the five idleness probes of the E14 clock pump.
func (d *deployment) netNextDue() (time.Time, bool) { return d.net.NextDue() }
func (d *deployment) netSentMsgs() int64            { return d.net.Stats().Value(simnet.StatSentMsgs) }
func (d *deployment) netBusy() bool {
	return d.net.QueuedInboxes() != 0 || transport.PendingFrames(d.net) != 0
}
func (d *deployment) clockNow() time.Time                  { return d.fake.Now() }
func (d *deployment) clockAdvance(by time.Duration)        { d.fake.Advance(by) }
func (d *deployment) clockNextDeadline() (time.Time, bool) { return d.fake.NextDeadline() }

// netCounters is the network's traffic and loss record.
type netCounters struct {
	sentMsgs, sentBytes, delivered int64
	dropped                        int64 // every cause
	droppedCrashed                 int64 // the share caused by Crash()
}

func (d *deployment) netCounters() netCounters {
	s := d.net.Stats()
	c := netCounters{
		sentMsgs:       s.Value(simnet.StatSentMsgs),
		sentBytes:      s.Value(simnet.StatSentBytes),
		delivered:      s.Value(simnet.StatDeliveredMsgs),
		droppedCrashed: s.Value(simnet.StatDroppedCrashed),
	}
	for _, name := range []string{
		simnet.StatDroppedPartition, simnet.StatDroppedCrashed, simnet.StatDroppedRate,
		simnet.StatDroppedOverflow, simnet.StatDroppedClosed,
	} {
		c.dropped += s.Value(name)
	}
	return c
}

// crashController makes controller i stop sending and receiving.
func (d *deployment) crashController(i int) { d.net.Crash(core.ACAddr(i)) }

func (d *deployment) numAreas() int             { return d.g.NumAreas() }
func (d *deployment) controllerID(i int) string { return core.ACID(i) }

// treeAssembled reports whether every non-root controller has joined its
// parent's area.
func (d *deployment) treeAssembled() bool {
	for i := 1; i < d.g.NumAreas(); i++ {
		if d.g.Controller(i).ParentID() == "" {
			return false
		}
	}
	return true
}

// controllerState is what verification reads from a controller.
type controllerState struct {
	id      string
	epoch   uint64
	members int // includes child controllers, which are area members
}

func (d *deployment) controllerState(i int) controllerState {
	c := d.g.Controller(i)
	return controllerState{id: core.ACID(i), epoch: c.Epoch(), members: c.NumMembers()}
}

// areaCounters sums the ac.* counters of the given controllers.
type areaCounters struct {
	joins, rejoins, leaves, rekeys, rekeyEntries int64
	dataRelayed, dataForwarded, verifyReqs       int64
	replBytes                                    int64
	rekeyMsP50                                   float64
}

func sumAreaCounters(ctrls ...*area.Controller) areaCounters {
	var a areaCounters
	for _, c := range ctrls {
		s := c.Stats()
		a.joins += s.Value(area.StatJoins)
		a.rejoins += s.Value(area.StatRejoins)
		a.leaves += s.Value(area.StatLeaves)
		a.rekeys += s.Value(area.StatRekeys)
		a.rekeyEntries += s.Value(area.StatRekeyEntries)
		a.dataRelayed += s.Value(area.StatDataRelayed)
		a.dataForwarded += s.Value(area.StatDataForwarded)
		a.verifyReqs += s.Value(area.StatVerifyReqs)
		a.replBytes += s.Value(obs.MetricReplBytes)
		// Controllers time their rekeys on the injected clock; report the
		// slowest controller's median.
		if q := s.GetHistogram(obs.MetricRekeySeconds).Quantile(0.5) * 1e3; q > a.rekeyMsP50 {
			a.rekeyMsP50 = q
		}
	}
	return a
}

func (d *deployment) areaCounters() areaCounters {
	ctrls := make([]*area.Controller, d.g.NumAreas())
	for i := range ctrls {
		ctrls[i] = d.g.Controller(i)
	}
	return sumAreaCounters(ctrls...)
}

// nodeCounters sums the node.* loop counters of every controller, the
// registration server and every member the harness created.
type nodeCounters struct{ frames, commands, ticks, drops int64 }

func (d *deployment) nodeCounters() nodeCounters {
	var n nodeCounters
	add := func(r *obs.Registry) {
		n.frames += r.Value(node.StatFrames)
		n.commands += r.Value(node.StatCommands)
		n.ticks += r.Value(node.StatTicks)
		n.drops += r.Value(node.StatDrops)
	}
	for i := 0; i < d.g.NumAreas(); i++ {
		add(d.g.Controller(i).Stats())
	}
	add(d.g.RS.Stats())
	d.mu.Lock()
	ms := append([]*sutMember(nil), d.members...)
	d.mu.Unlock()
	for _, m := range ms {
		add(m.m.Stats())
	}
	return n
}

func (d *deployment) rsJoins() int64 { return d.g.RS.Joins() }

// handshakeMeansMs reads the members' own join and rejoin latency
// histograms (injected clock), in milliseconds.
func (d *deployment) handshakeMeansMs() (join, rejoin float64) {
	reg := d.g.Metrics()
	hasJoin := false
	for _, n := range reg.Names() {
		hasJoin = hasJoin || n == obs.MetricJoinSeconds
	}
	if !hasJoin {
		return 0, 0 // no member was ever created
	}
	return reg.GetHistogram(obs.MetricJoinSeconds).Mean() * 1e3,
		reg.GetHistogram(obs.MetricRejoinSeconds).Mean() * 1e3
}

// replicaState is one replica's view of a failover round.
type replicaState struct {
	appliedLSN uint64
	promoted   bool
	// counters of the controller the replica became, when promoted.
	promotedCounters areaCounters
}

func (d *deployment) replicaState(areaIdx, r int) replicaState {
	rep := d.g.Replica(areaIdx, r)
	st := replicaState{appliedLSN: rep.AppliedLSN()}
	if c, err := rep.Promoted(); err == nil {
		st.promoted = true
		st.promotedCounters = sumAreaCounters(c)
	}
	return st
}

// ---- members ----

// sutMember is one group member and the endpoint it owns.
type sutMember struct {
	id string
	m  *member.Member
	d  *deployment
}

// newMember creates a member that has not joined. onData, when set,
// receives every decrypted payload on the member's own loop.
func (d *deployment) newMember(id string, onData func(payload []byte, origin string)) (*sutMember, error) {
	m, err := d.g.NewMember(id, core.MemberConfig{OnData: onData})
	if err != nil {
		return nil, err
	}
	sm := &sutMember{id: id, m: m, d: d}
	d.mu.Lock()
	d.members = append(d.members, sm)
	d.mu.Unlock()
	return sm, nil
}

func (m *sutMember) Join() error               { return m.m.Join() }
func (m *sutMember) Leave() error              { return m.m.Leave() }
func (m *sutMember) Rejoin(acID string) error  { return m.m.Rejoin(acID) }
func (m *sutMember) Send(payload []byte) error { return m.m.Send(payload) }
func (m *sutMember) Epoch() uint64             { return m.m.Epoch() }
func (m *sutMember) ControllerID() string      { return m.m.ControllerID() }
func (m *sutMember) Connected() bool           { return m.m.Connected() }

// Retire stops a departed member and releases its endpoint.
func (m *sutMember) Retire() {
	m.m.Close()
	m.d.mu.Lock()
	tr := m.d.trs[m.id]
	delete(m.d.trs, m.id)
	m.d.mu.Unlock()
	if tr != nil {
		_ = tr.Close() // simulated endpoint: Close cannot fail
	}
}

// ---- journal directories ----

// journalDirStats counts the records a controller's journal holds on disk.
type journalDirStats struct {
	records int
	bytes   int64
	sizes   []int // payload sizes, in LSN order
}

// segHeaderLen is the magic-plus-version prefix of every segment file.
const segHeaderLen = 5

// readJournalDir parses the seg-*.wal files of one component's journal.
func readJournalDir(dir string) (journalDirStats, error) {
	var st journalDirStats
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		return st, err
	}
	sort.Strings(segs)
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			return st, err
		}
		st.bytes += int64(len(b))
		if len(b) < segHeaderLen {
			continue
		}
		b = b[segHeaderLen:]
		for len(b) > 0 {
			payload, n, err := journal.ReadRecord(b)
			if err != nil {
				break // torn tail of an abandoned journal
			}
			st.records++
			st.sizes = append(st.sizes, len(payload))
			b = b[n:]
		}
	}
	return st, nil
}

func controllerJournalDir(root string, i int) string { return filepath.Join(root, core.ACID(i)) }

// sutJournal is an open journal of the layer walk.
type sutJournal struct{ j *journal.Journal }

// openJournal opens (or replays) a journal directory and reports how many
// records recovery read back.
func openJournal(dir, fsync string) (*sutJournal, int, error) {
	pol, err := journal.ParseFsyncPolicy(fsync)
	if err != nil {
		return nil, 0, err
	}
	j, rec, err := journal.Open(journal.Options{Dir: dir, Fsync: pol})
	if err != nil {
		return nil, 0, err
	}
	return &sutJournal{j}, len(rec.Records), nil
}

func (j *sutJournal) Append(p []byte) error { _, err := j.j.Append(p); return err }
func (j *sutJournal) Close() error          { return j.j.Close() }

// recordsPerFsync is the journal's own group-commit ratio.
func (j *sutJournal) recordsPerFsync() float64 {
	if s := j.j.Syncs(); s > 0 {
		return float64(j.j.Appends()) / float64(s)
	}
	return 0
}

// ---- layer functions of the walk ----

type symKey = crypt.SymKey

func newSymKey() symKey { return crypt.NewSymKey() }

// sutKeys is one RSA key pair of the pool.
type sutKeys struct{ kp *crypt.KeyPair }

func (p *keyPool) at(i int) sutKeys { return sutKeys{p.p.At(i)} }

func (k sutKeys) Sign(data []byte) []byte       { return k.kp.Sign(data) }
func (k sutKeys) Verify(data, sig []byte) error { return k.kp.Public().Verify(data, sig) }
func (k sutKeys) PublicDER() []byte             { return k.kp.Public().Marshal() }

// sealJoinToAC and openJoinToAC are the RSA-sealed body of join step 6:
// one hybrid public-key encryption, one private-key decryption.
func (k sutKeys) sealJoinToAC(id string) ([]byte, error) {
	return wire.SealBody(k.kp.Public(), wire.JoinToAC{
		ClientID: id, ClientAddr: id, NonceACPlus2: 2, NonceCA: 3, SuiteMask: crypt.AllSuitesMask(),
	})
}

func (k sutKeys) openJoinToAC(blob []byte) error {
	var msg wire.JoinToAC
	return wire.OpenBody(k.kp, blob, &msg)
}

// sutSuite is the area's negotiated symmetric suite.
type sutSuite struct{ s crypt.Suite }

func suiteByName(name string) (sutSuite, error) {
	s, err := crypt.SuiteByName(name)
	return sutSuite{s}, err
}

func (s sutSuite) SealKey(under, k symKey) []byte { return s.s.Seal(under, k[:]) }
func (s sutSuite) OpenKey(under symKey, blob []byte) error {
	_, err := s.s.Open(under, blob)
	return err
}

// Payload sealing is the member data path's default construction.
func sealPayload(k symKey, p []byte) []byte             { return crypt.Seal(k, p) }
func openPayload(k symKey, blob []byte) ([]byte, error) { return crypt.Open(k, blob) }

// sutFrame is one wire frame.
type sutFrame struct{ f *wire.Frame }

func (f sutFrame) Encode() []byte { b, _ := f.f.Encode(); return b } // Encode cannot fail
func (f sutFrame) Kind() string   { return f.f.Kind.String() }
func (f sutFrame) From() string   { return f.f.From }
func (f sutFrame) Body() []byte   { return f.f.Body }
func (f sutFrame) Sig() []byte    { return f.f.Sig }
func (f sutFrame) Signed() bool   { return len(f.f.Sig) > 0 }

func decodeFrame(b []byte) (sutFrame, error) {
	f, err := wire.DecodeFrame(b)
	return sutFrame{f}, err
}

// Frame kinds the harness names.
var (
	kindKeyUpdate = wire.KindKeyUpdate.String()
	kindData      = wire.KindData.String()
)

// sealedKinds are the frame kinds whose body is RSA-sealed: one public-key
// encryption at the sender, one private-key decryption at the receiver.
var sealedKinds = func() map[string]bool {
	m := make(map[string]bool)
	for _, k := range []wire.Kind{
		wire.KindJoinRequest, wire.KindJoinChallenge, wire.KindJoinResponse, wire.KindJoinRefer,
		wire.KindJoinGrant, wire.KindJoinToAC, wire.KindJoinWelcome, wire.KindJoinDenied,
		wire.KindRejoinRequest, wire.KindRejoinChallenge, wire.KindRejoinResponse,
		wire.KindRejoinVerifyReq, wire.KindRejoinVerifyResp, wire.KindRejoinWelcome,
		wire.KindRejoinDenied, wire.KindPathUpdate, wire.KindAreaJoinReq, wire.KindAreaJoinAck,
	} {
		m[k.String()] = true
	}
	return m
}()

// decodeKeyUpdateBody decodes a KeyUpdate body and reports its entries.
func decodeKeyUpdateBody(body []byte) (entries int, err error) {
	var u wire.KeyUpdate
	if err := wire.DecodePlain(body, &u); err != nil {
		return 0, err
	}
	return len(u.Entries), nil
}

func decodeDataBody(body []byte) error {
	var d wire.Data
	return wire.DecodePlain(body, &d)
}

// dataFrame builds the frame Member.Send puts on the wire.
func dataFrame(from, areaID string, seq uint64, encKey, payload []byte) sutFrame {
	body, _ := wire.PlainBody(wire.Data{ // PlainBody cannot fail
		Origin: from, OriginArea: areaID, Seq: seq, FromArea: areaID,
		Cipher: wire.CipherAES, EncKey: encKey, Payload: payload,
	})
	return sutFrame{&wire.Frame{Kind: wire.KindData, From: from, Body: body}}
}

// walkTree is a controller-shaped key tree plus resident views that follow
// it, for replaying rekeys outside the program.
type walkTree struct {
	t       *keytree.Tree
	enc     keytree.SuiteEncryptor
	areaID  string
	viewIDs []keytree.MemberID // residents that never leave
	views   []*keytree.MemberView
	rebased []bool             // view got a fresh path from the last batch
	pool    []keytree.MemberID // every other resident, oldest first
	nextID  int
}

func walkMemberID(i int) keytree.MemberID { return keytree.MemberID(fmt.Sprintf("r%06d", i)) }

// newWalkTree preloads size members and takes views for nViews of them,
// spread across the tree.
func newWalkTree(size, nViews int, s sutSuite) (*walkTree, error) {
	w := &walkTree{enc: keytree.NewSuiteEncryptor(s.s), areaID: "area-walk", nextID: size}
	w.t = keytree.New(keytree.Config{Arity: treeArity, Encryptor: w.enc, ReuseUpdates: true})
	ids := make([]keytree.MemberID, size)
	for i := range ids {
		ids[i] = walkMemberID(i)
	}
	if err := w.t.Preload(ids); err != nil {
		return nil, err
	}
	held := make(map[keytree.MemberID]bool)
	for _, m := range w.t.SpreadMembers(nViews) {
		pk, err := w.t.PathKeys(m)
		if err != nil {
			return nil, err
		}
		held[m] = true
		w.viewIDs = append(w.viewIDs, m)
		w.views = append(w.views, keytree.NewMemberView(pk, w.t.Epoch(), w.enc))
	}
	w.rebased = make([]bool, len(w.views))
	for _, m := range ids {
		if !held[m] {
			w.pool = append(w.pool, m)
		}
	}
	return w, nil
}

// walkRekey is one rekey as the controller holds it before sending.
type walkRekey struct {
	upd     *keytree.KeyUpdate
	entries int
}

// batch admits j fresh members and removes the l oldest pool residents in
// one tree operation, as a controller flush does. Views whose member the
// operation displaced are rebased, as a PathUpdate would.
func (w *walkTree) batch(j, l int) (walkRekey, error) {
	if l > len(w.pool) {
		l = len(w.pool)
	}
	leaves := append([]keytree.MemberID(nil), w.pool[:l]...)
	w.pool = w.pool[l:]
	joins := make([]keytree.MemberID, j)
	for i := range joins {
		joins[i] = walkMemberID(w.nextID)
		w.nextID++
	}
	w.pool = append(w.pool, joins...)
	res, err := w.t.Batch(joins, leaves)
	if err != nil {
		return walkRekey{}, err
	}
	for i, id := range w.viewIDs {
		w.rebased[i] = false
		if path, ok := res.Displaced[id]; ok {
			w.views[i].Rebase(path, res.Epoch)
			w.rebased[i] = true
		}
	}
	return walkRekey{upd: res.Update, entries: res.Update.NumKeys()}, nil
}

// keyUpdateBody encodes the rekey as multicastKeyUpdate does.
func (w *walkTree) keyUpdateBody(r walkRekey) []byte {
	body, _ := wire.PlainBody(wire.KeyUpdate{AreaID: w.areaID, Epoch: r.upd.Epoch, Entries: r.upd.Entries}) // cannot fail
	return body
}

// keyUpdateFrame is the signed multicast frame carrying the body.
func keyUpdateFrame(from string, body, sig []byte) sutFrame {
	return sutFrame{&wire.Frame{Kind: wire.KindKeyUpdate, From: from, Body: body, Sig: sig}}
}

// walkUpdate is a decoded rekey on the member side.
type walkUpdate struct{ u *keytree.KeyUpdate }

func (w *walkTree) decode(body []byte) (walkUpdate, error) {
	var u wire.KeyUpdate
	if err := wire.DecodePlain(body, &u); err != nil {
		return walkUpdate{}, err
	}
	return walkUpdate{&keytree.KeyUpdate{Epoch: u.Epoch, Entries: u.Entries}}, nil
}

// apply feeds the update to view i and reports the keys it changed; a view
// the batch rebased already holds the new epoch and applies nothing.
func (w *walkTree) apply(i int, u walkUpdate) (changed int, err error) {
	if w.rebased[i] {
		return 0, nil
	}
	return w.views[i].Apply(u.u)
}

func (w *walkTree) numViews() int { return len(w.views) }

// sealTicket and openTicket are the controller's two halves of a rejoin
// ticket: issue at admission, authenticate and validate at rejoin step 1.
func sealTicket(kShared symKey, id string, pubDER []byte, now time.Time) ([]byte, error) {
	t := &ticket.Ticket{JoinTime: now, Validity: now.Add(24 * time.Hour), ID: id, PublicKeyDER: pubDER, AreaController: "ac-0"}
	return t.Seal(kShared)
}

func openTicket(kShared symKey, blob []byte, now time.Time) error {
	t, err := ticket.Open(kShared, blob)
	if err != nil {
		return err
	}
	return t.Validate(now)
}

// walkLink is a zero-latency two-endpoint network for timing one hop.
type walkLink struct {
	net  *simnet.Network
	a    *transport.Sim
	bEnd *simnet.Endpoint
}

func newWalkLink() (*walkLink, error) {
	n := simnet.New(simnet.Config{Shards: 1})
	a, err := transport.NewSim(n, "walk-a")
	if err != nil {
		n.Close()
		return nil, err
	}
	b, err := n.Endpoint("walk-b")
	if err != nil {
		n.Close()
		return nil, err
	}
	return &walkLink{net: n, a: a, bEnd: b}, nil
}

var errHopTimeout = errors.New("walk: hop not delivered within 5s")

// send hands a frame to the transport (encode + enqueue); recv takes the
// raw bytes off the far endpoint's mailbox.
func (l *walkLink) send(f sutFrame) error { return l.a.Send("walk-b", f.f) }

func (l *walkLink) recv() ([]byte, error) {
	select {
	case env := <-l.bEnd.Inbox():
		return env.Payload, nil
	case <-time.After(5 * time.Second):
		return nil, errHopTimeout
	}
}

func (l *walkLink) Close() {
	_ = l.a.Close() // simulated endpoint: Close cannot fail
	l.net.Close()
}

// ---- traced-run hooks ----

func roleOf(name string) string {
	switch {
	case name == core.RSAddr:
		return "rs"
	case strings.HasPrefix(name, "ac-"):
		return "ac"
	case strings.HasPrefix(name, "backup-"):
		return "replica"
	}
	return "member"
}

// countingTransport is the traced run's decorator: it counts every frame a
// component sends and offers it to the collector's per-kind sample.
type countingTransport struct {
	transport.Transport
	tc   *traceCollector
	role string
}

func (c *countingTransport) Send(to string, f *wire.Frame) error {
	c.tc.observeSend(c.role, sutFrame{f})
	return c.Transport.Send(to, f)
}

// Emit makes the collector the deployment's obs.Sink.
func (tc *traceCollector) Emit(e obs.Event) {
	tc.observeEvent(string(e.Proto), e.Subject, e.Step, e.Name, e.Time)
}
