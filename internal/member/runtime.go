package member

import (
	"bytes"
	"errors"
	"sync"
	"time"

	"mykil/internal/crypt"
	"mykil/internal/keytree"
	"mykil/internal/obs"
	"mykil/internal/wire"
)

// handleFrame dispatches one incoming frame (loop context).
func (m *Member) handleFrame(f *wire.Frame) {
	if m.connected && f.From == m.acAddr {
		m.lastACRecv = m.clk.Now()
	}
	switch f.Kind {
	case wire.KindJoinChallenge:
		m.handleJoinChallenge(f)
	case wire.KindJoinGrant:
		m.handleJoinGrant(f)
	case wire.KindJoinWelcome:
		m.handleJoinWelcome(f)
	case wire.KindJoinDenied:
		m.handleJoinDenied(f)
	case wire.KindRejoinChallenge:
		m.handleRejoinChallenge(f)
	case wire.KindRejoinWelcome:
		m.handleRejoinWelcome(f)
	case wire.KindRejoinDenied:
		m.handleRejoinDenied(f)
	case wire.KindData:
		m.handleData(f)
	case wire.KindKeyUpdate:
		m.handleKeyUpdate(f)
	case wire.KindPathUpdate:
		m.handlePathUpdate(f)
	case wire.KindACAlive:
		m.handleACAlive(f)
	case wire.KindACFailover:
		m.handleFailover(f)
	case wire.KindAreaReassign:
		m.handleAreaReassign(f)
	default:
		m.cfg.Logf("%s: ignoring frame kind %v from %s", m.cfg.ID, f.Kind, f.From)
	}
}

// handleData decrypts one multicast payload (Fig. 2 receive side). The
// payload is opened by the suite the packet's Cipher tag names — the
// origin area's, which need not be ours. A packet we are positioned to
// read but cannot is counted in MetricDataDropped.
//
// In steady state it allocates nothing: the body is read in place
// (wire.ReadDataRef), K_d is unwrapped into pooled scratch and the
// payload opened into a pooled plaintext buffer, which OnData borrows
// and which goes back to the pool when the callback returns.
func (m *Member) handleData(f *wire.Frame) {
	if !m.connected || f.From != m.acAddr {
		return
	}
	var d wire.DataRef
	if err := wire.ReadDataRef(f.Body, &d); err != nil {
		return
	}
	if string(d.Origin) == m.cfg.ID {
		return // our own packet relayed back
	}
	if string(d.FromArea) != m.areaID {
		return // sealed for a different area's key
	}
	suite, ok := d.Cipher.Suite()
	if !ok {
		m.cfg.Logf("%s: data from %s names unknown cipher %d", m.cfg.ID, d.Origin, d.Cipher)
		m.cDataDropped.Inc()
		return
	}
	sc := dataScratchPool.Get().(*dataScratch)
	defer sc.release()
	raw, err := m.suite.OpenTo(sc.key[:0], m.view.AreaKey(), d.EncKey)
	if err != nil {
		m.cfg.Logf("%s: cannot open data key (stale area key?): %v", m.cfg.ID, err)
		m.cDataDropped.Inc()
		m.requestPath()
		return
	}
	dataKey, err := crypt.SymKeyFromBytes(raw)
	if err != nil {
		m.cDataDropped.Inc()
		return
	}
	// d.Payload is a window onto the delivery buffer every receiver of
	// this multicast shares; OpenTo writes into our scratch, never into it.
	payload, err := suite.OpenTo(sc.plain[:0], dataKey, d.Payload)
	if err != nil {
		m.cDataDropped.Inc()
		return
	}
	sc.plain = payload
	m.received++
	if m.cfg.OnData != nil {
		m.cfg.OnData(payload, m.originName(d.Origin))
	}
}

// maxPooledPlaintext caps the plaintext buffer a dataScratch keeps: a
// packet larger than this is opened into a buffer that is dropped after
// its callback, so one bulk transfer does not pin its size in the pool.
const maxPooledPlaintext = 64 << 10

// dataScratch is handleData's working memory, shared process-wide
// through dataScratchPool: the unwrapped data key and the opened payload.
// It is taken for one packet and returned when OnData has run, so no
// member holds a buffer between packets.
type dataScratch struct {
	key   [crypt.SymKeyLen]byte
	plain []byte
}

var dataScratchPool = sync.Pool{New: func() any { return new(dataScratch) }}

// release returns the scratch to the pool, dropping an oversized
// plaintext buffer.
func (sc *dataScratch) release() {
	if cap(sc.plain) > maxPooledPlaintext {
		sc.plain = nil
	}
	dataScratchPool.Put(sc)
}

// maxOriginNames bounds originName's table; past it the table restarts.
const maxOriginNames = 1024

// originName returns the origin identity OnData is called with. The
// member keeps one string per origin it has heard from, so a delivery
// from a known sender converts no bytes.
func (m *Member) originName(b []byte) string {
	if s, ok := m.origins[string(b)]; ok {
		return s
	}
	if m.origins == nil || len(m.origins) >= maxOriginNames {
		m.origins = make(map[string]string)
	}
	s := string(b)
	m.origins[s] = s
	return s
}

// handleKeyUpdate applies a rekey (§III).
func (m *Member) handleKeyUpdate(f *wire.Frame) {
	if !m.connected || f.From != m.acAddr {
		return
	}
	// The controller tags our part under our leaf key (§III-E signs
	// instead; DESIGN §8). The entries stream out of f.Body, which
	// aliases the delivery buffer: they unwrap into fresh keys and
	// nothing of the frame outlives this handler.
	epoch, err := wire.ReceiveKeyUpdate(f, &m.kuKey, m.areaID, m.view)
	switch {
	case err == nil:
		m.rekeys++
	case errors.Is(err, keytree.ErrEpochGap):
		// A rekey was lost (e.g. transient partition): recover the path.
		m.cfg.Logf("%s: missed rekey (at %d, got %d); requesting path", m.cfg.ID, m.view.Epoch(), epoch)
		m.requestPath()
	case errors.Is(err, keytree.ErrStale):
		// Duplicate delivery; ignore.
	default:
		obs.KeyUpdateDropped(m.Stats(), wire.KeyUpdateDropReason(err))
		m.cfg.Logf("%s: key update dropped: %v", m.cfg.ID, err)
	}
}

// handlePathUpdate rebases the member's path keys (displacement or
// recovery).
func (m *Member) handlePathUpdate(f *wire.Frame) {
	if !m.connected || f.From != m.acAddr {
		return
	}
	if err := m.acPub.Verify(f.Body, f.Sig); err != nil {
		m.cfg.Logf("%s: path update with bad signature dropped", m.cfg.ID)
		return
	}
	var pu wire.PathUpdate
	if err := wire.OpenBody(m.cfg.Keys, f.Body, &pu); err != nil {
		return
	}
	if pu.AreaID != m.areaID {
		return
	}
	if pu.Epoch < m.view.Epoch() {
		// A genuine PathUpdate replayed: rebasing would roll the view
		// back to old keys and an old epoch.
		obs.PathUpdateStale(m.Stats())
		return
	}
	m.view.Rebase(pu.Path, pu.Epoch)
	m.rekeys++
}

// handleFailover switches to the backup controller after verifying its
// signature against the backup key learned at join (§IV-C). A member that
// already declared disconnection (the timeouts race) re-attaches: its view
// is still valid because the backup restored the same tree.
func (m *Member) handleFailover(f *wire.Frame) {
	if m.backupPub.IsZero() || m.view == nil || m.areaID == "" {
		return
	}
	if err := m.backupPub.Verify(f.Body, f.Sig); err != nil {
		m.cfg.Logf("%s: failover announcement with bad signature dropped", m.cfg.ID)
		return
	}
	var fo wire.ACFailover
	if err := wire.DecodePlain(f.Body, &fo); err != nil {
		return
	}
	if fo.AreaID != m.areaID {
		return
	}
	m.connected = true
	m.acAddr = fo.NewAddr
	// The announcement names the successor's key: with quorum election a
	// replica other than the announcer may have won, and its rekeys will
	// carry its own signature. The trusted backup key vouches for it; fall
	// back to that key for announcements predating the NewPub field.
	m.acPub = m.backupPub
	if len(fo.NewPub) > 0 {
		if pub, err := crypt.ParsePublicKey(fo.NewPub); err == nil {
			m.acPub = pub
		}
	}
	m.acID = m.acID + "+backup"
	m.lastACRecv = m.clk.Now()
	m.cfg.Logf("%s: controller failover; now served by %s", m.cfg.ID, fo.NewAddr)
	if fo.Epoch > m.view.Epoch() {
		m.requestPath()
	}
}

// handleAreaReassign migrates to the target controller named by our own
// controller during an area split or merge: the target is upserted into
// the directory (the frame carries its endpoint and key, signed by the
// controller we already trust) and a ticket rejoin starts toward it. The
// old controller prevouched us there, so the rejoin admits without the
// steps 4-5 round trip.
func (m *Member) handleAreaReassign(f *wire.Frame) {
	if !m.connected || f.From != m.acAddr {
		return
	}
	if err := m.acPub.Verify(f.Body, f.Sig); err != nil {
		m.cfg.Logf("%s: area reassign with bad signature dropped", m.cfg.ID)
		return
	}
	var ra wire.AreaReassign
	if err := wire.DecodePlain(f.Body, &ra); err != nil {
		return
	}
	if ra.AreaID != m.areaID {
		return
	}
	m.upsertDirectory(wire.ACInfo{ID: ra.TargetID, Addr: ra.TargetAddr, PubDER: ra.TargetPub})
	m.trace.Event(obs.ProtoSplit, m.cfg.ID, "reassigned",
		obs.String("target", ra.TargetID), obs.String("reason", ra.Reason))
	if m.op != nil {
		// A handshake is already in flight; when it resolves, auto-rejoin
		// finds the target through the updated directory.
		m.cfg.Logf("%s: reassign to %s deferred (operation in flight)", m.cfg.ID, ra.TargetID)
		return
	}
	errc := make(chan error, 1)
	m.startRejoin(ra.TargetID, errc)
	go func() {
		if err := <-errc; err != nil {
			m.cfg.Logf("%s: reassign rejoin to %s failed: %v", m.cfg.ID, ra.TargetID, err)
		}
	}()
}

// upsertDirectory installs or refreshes one controller entry. The backing
// slice may be shared across members (directoryCache), so it is replaced,
// never mutated.
func (m *Member) upsertDirectory(info wire.ACInfo) {
	for i := range m.directory {
		if m.directory[i].ID == info.ID {
			if m.directory[i].Addr == info.Addr && bytes.Equal(m.directory[i].PubDER, info.PubDER) {
				return
			}
			nd := append([]wire.ACInfo(nil), m.directory...)
			nd[i] = info
			m.directory = nd
			return
		}
	}
	m.directory = append(append([]wire.ACInfo(nil), m.directory...), info)
}

// handleACAlive records controller liveness and, via the epoch the alive
// message carries, detects rekeys missed while partitioned (§IV-A).
func (m *Member) handleACAlive(f *wire.Frame) {
	if !m.connected || f.From != m.acAddr {
		return
	}
	var alive wire.ACAlive
	if err := wire.DecodePlain(f.Body, &alive); err != nil {
		return
	}
	if alive.AreaID == m.areaID && alive.Epoch > m.view.Epoch() {
		m.cfg.Logf("%s: alive message shows epoch %d ahead of ours (%d); requesting path",
			m.cfg.ID, alive.Epoch, m.view.Epoch())
		m.requestPath()
	}
}

// requestPath asks the controller to resend our path keys. Each answer
// costs the controller an RSA seal and a signature, so one missed rekey
// earns one request however many frames reveal it: a request for the same
// epoch is repeated only after TIdle without a PathUpdate.
func (m *Member) requestPath() {
	if !m.connected {
		return
	}
	now, epoch := m.clk.Now(), m.view.Epoch()
	if epoch == m.pathAskedEpoch && now.Before(m.pathRetryAt) {
		return
	}
	m.pathAskedEpoch, m.pathRetryAt = epoch, now.Add(m.cfg.TIdle)
	m.sendPlain(m.acAddr, wire.KindPathRequest, wire.PathRequest{
		MemberID: m.cfg.ID,
		Epoch:    epoch,
	})
}

// housekeeping runs the member's periodic duties (loop context).
func (m *Member) housekeeping() {
	now := m.clk.Now()

	// Fail a timed-out blocking operation.
	if m.op != nil && now.After(m.op.deadline) {
		m.failOp(ErrTimeout)
	}

	if !m.connected {
		// Disconnected with auto-rejoin on: keep trying — the §IV-B
		// machinery must survive candidate controllers that are
		// themselves unreachable.
		if m.cfg.AutoRejoin && m.op == nil && len(m.ticketBlob) > 0 &&
			now.Sub(m.lastRejoinTry) >= silenceFactor*m.cfg.TIdle {
			m.lastRejoinTry = now
			m.autoRejoin(m.lastFailedAC, now)
		}
		return
	}

	// §IV-A: tell the controller we are alive if we have been quiet.
	if now.Sub(m.lastSent) >= m.cfg.TActive {
		m.trace.Event(obs.ProtoAlive, m.cfg.ID, "MemberAlive", obs.String("ac", m.acID))
		m.sendPlain(m.acAddr, wire.KindMemberAlive, wire.MemberAlive{MemberID: m.cfg.ID})
	}

	// §IV-A: declare disconnection after 5×T_idle of controller silence.
	if now.Sub(m.lastACRecv) > silenceFactor*m.cfg.TIdle {
		m.cfg.Logf("%s: controller %s silent for %v; disconnected",
			m.cfg.ID, m.acID, now.Sub(m.lastACRecv))
		m.trace.Event(obs.ProtoAlive, m.cfg.ID, "controller-silent",
			obs.String("ac", m.acID), obs.Dur("silence", now.Sub(m.lastACRecv)))
		m.lastFailedAC = m.acID
		m.detach()
		if m.cfg.AutoRejoin && m.op == nil {
			m.lastRejoinTry = now
			m.autoRejoin(m.lastFailedAC, now)
		}
	}
}

// autoRejoin picks the next directory controller in rotation — skipping
// the one we just lost and any that recently denied us — and starts a
// rejoin toward it.
func (m *Member) autoRejoin(failedAC string, now time.Time) {
	const blacklistFor = time.Minute
	n := len(m.directory)
	for i := 0; i < n; i++ {
		e := m.directory[(m.rejoinRotation+i)%n]
		if e.ID == failedAC && n > 1 {
			continue
		}
		if until, ok := m.rejoinBlacklist[e.ID]; ok && now.Sub(until) < blacklistFor {
			continue
		}
		m.rejoinRotation = (m.rejoinRotation + i + 1) % n
		errc := make(chan error, 1)
		m.startRejoin(e.ID, errc)
		go func(ac string) {
			if err := <-errc; err != nil {
				m.cfg.Logf("%s: auto-rejoin to %s failed: %v", m.cfg.ID, ac, err)
			}
		}(e.ID)
		return
	}
	m.cfg.Logf("%s: no rejoin candidate available", m.cfg.ID)
}
