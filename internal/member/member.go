// Package member implements a Mykil group member: the client side of the
// seven-step join protocol (Fig. 3), the six-step rejoin protocol
// (Fig. 7), sending and receiving encrypted multicast data (Fig. 2),
// applying rekey messages, emitting §IV-A alive messages, detecting
// disconnection from its area controller, and automatically rejoining
// another area through its ticket.
package member

import (
	"errors"
	"fmt"
	"time"

	"mykil/internal/clock"
	"mykil/internal/crypt"
	"mykil/internal/keytree"
	"mykil/internal/node"
	"mykil/internal/obs"
	"mykil/internal/transport"
	"mykil/internal/wire"
)

// Default member timing; see area.Config for the controller's side.
const (
	DefaultTActive   = 10 * time.Second
	DefaultTIdle     = 2 * time.Second
	DefaultOpTimeout = 30 * time.Second
	silenceFactor    = 5
)

// Errors returned by member operations.
var (
	ErrStopped      = errors.New("member: stopped")
	ErrNotConnected = errors.New("member: not connected to an area")
	ErrBusy         = errors.New("member: another operation is in progress")
	ErrDenied       = errors.New("member: request denied")
	ErrTimeout      = errors.New("member: operation timed out")
)

// Config parameterizes a member.
type Config struct {
	// ID is the member's identity (the paper uses the NIC MAC address).
	// Required.
	ID string
	// Transport carries frames; Keys is the member's key pair. Required.
	Transport transport.Transport
	Keys      *crypt.KeyPair
	// Clock drives timers; nil means clock.Real.
	Clock clock.Clock
	// RSAddr and RSPub locate and authenticate the registration server.
	RSAddr string
	RSPub  crypt.PublicKey
	// AuthInfo is presented at registration (step 1).
	AuthInfo string
	// OnData, if set, receives each decrypted multicast payload. Called
	// from the member's loop: it must not call blocking member methods.
	// payload is borrowed: it is valid only until OnData returns, after
	// which the buffer is reused for another packet, so copy what you
	// keep (string(payload), a checksum, a copy into your own slice).
	OnData func(payload []byte, origin string)
	// AutoRejoin rejoins another directory controller after detecting
	// disconnection (§IV-B).
	AutoRejoin bool
	// Suites is the bitmask of cipher suites this member is willing to
	// speak (1 << crypt.SuiteID), advertised during join/rejoin
	// negotiation. Zero means every registered suite. A controller whose
	// area runs a suite outside this mask denies admission.
	Suites uint64
	// Timing; zero values take the defaults.
	TActive   time.Duration
	TIdle     time.Duration
	OpTimeout time.Duration
	// Observer, if set, receives structured protocol trace events for
	// the member's side of the join/rejoin handshakes and alive rounds.
	Observer obs.Sink
	// Metrics, if set, receives the member's join/rejoin latency
	// histograms. Several members may share one registry so counts
	// aggregate; nil disables latency recording.
	Metrics *obs.Registry
	// Logf, if set, receives debug logging.
	Logf func(format string, args ...any)
}

func (cfg *Config) fillDefaults() error {
	if cfg.ID == "" || cfg.Transport == nil || cfg.Keys == nil {
		return fmt.Errorf("member: ID, Transport, and Keys are required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.TActive == 0 {
		cfg.TActive = DefaultTActive
	}
	if cfg.TIdle == 0 {
		cfg.TIdle = DefaultTIdle
	}
	if cfg.OpTimeout == 0 {
		cfg.OpTimeout = DefaultOpTimeout
	}
	if cfg.Suites == 0 {
		cfg.Suites = crypt.AllSuitesMask()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return nil
}

// opKind identifies the in-flight blocking operation.
type opKind int

const (
	opNone opKind = iota
	opJoin
	opRejoin
)

// pendingOp is one blocking Join/Rejoin in progress.
type pendingOp struct {
	kind     opKind
	deadline time.Time
	errc     chan error
	// Join-protocol scratch state.
	nonceCW uint64 // step 1 challenge to the RS
	nonceCA uint64 // step 6 challenge to the AC
	nonceCB uint64 // rejoin step 1 challenge
	acAddr  string
	acID    string
	acPub   crypt.PublicKey
	// start is the clock reading when the operation began, feeding the
	// join/rejoin latency histograms on success.
	start time.Time
}

// Member is one group member. Create with New, start with Start.
type Member struct {
	cfg Config
	clk clock.Clock

	// Area attachment (loop-owned).
	connected  bool
	areaID     string
	acID       string
	acAddr     string
	acPub      crypt.PublicKey
	backupAddr string
	backupPub  crypt.PublicKey
	view       *keytree.MemberView
	// kuKey is the MAC key the controller tags our KeyUpdates under,
	// derived from view's leaf key.
	kuKey wire.KeyUpdateKey
	// suite is the area's negotiated cipher suite from the last welcome;
	// it seals outgoing payloads and data keys and opens incoming data
	// keys. An incoming payload is opened by the suite its packet names.
	suite      crypt.Suite
	ticketBlob []byte
	directory  []wire.ACInfo

	lastACRecv time.Time
	lastSent   time.Time
	dataSeq    uint64
	op         *pendingOp

	// origins interns the identities data arrives from (originName).
	origins map[string]string

	// One PathRequest may be outstanding per view epoch: requestPath
	// stays quiet for pathAskedEpoch until pathRetryAt.
	pathAskedEpoch uint64
	pathRetryAt    time.Time

	// rejoinBlacklist tracks controllers that recently denied us, so
	// auto-rejoin rotates through the directory.
	rejoinBlacklist map[string]time.Time
	rejoinRotation  int
	lastRejoinTry   time.Time
	lastFailedAC    string

	// Counters exposed for tests/benches (loop-owned, read via call).
	received int64
	rekeys   int64

	cDataDropped *obs.Counter
	trace        *obs.Tracer
	joinHist     *obs.Histogram
	rejoinHist   *obs.Histogram

	loop *node.Loop
}

// New validates the config and builds a member.
func New(cfg Config) (*Member, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	m := &Member{
		cfg:             cfg,
		clk:             cfg.Clock,
		rejoinBlacklist: make(map[string]time.Time),
	}
	stats := obs.NewRegistry(obs.L("node", cfg.ID))
	m.cDataDropped = stats.Counter(obs.MetricDataDropped, obs.HelpDataDropped)
	m.trace = obs.NewTracer(cfg.ID, cfg.Clock, cfg.Observer)
	if cfg.Metrics != nil {
		m.joinHist = cfg.Metrics.Histogram(obs.MetricJoinSeconds, obs.HelpJoinSeconds, nil)
		m.rejoinHist = cfg.Metrics.Histogram(obs.MetricRejoinSeconds, obs.HelpRejoinSeconds, nil)
	}
	m.loop = node.New(node.Config{
		Name:      cfg.ID,
		Transport: cfg.Transport,
		Clock:     cfg.Clock,
		TickEvery: cfg.TIdle,
		OnFrame:   m.handleFrame,
		OnTick:    m.housekeeping,
		OnExit:    func() { m.failOp(ErrStopped) },
		Stats:     stats,
		Logf:      cfg.Logf,
	})
	return m, nil
}

// Stats exposes the member's counters — the node loop's (frames,
// commands, ticks, drops), obs.MetricDataDropped and, once one has
// happened, obs.MetricKeyUpdateDropped by reason — labeled with the
// member's ID.
func (m *Member) Stats() *obs.Registry { return m.loop.Stats() }

// Start launches the member loop.
func (m *Member) Start() {
	m.loop.Start()
}

// Close stops the member loop (the transport is the caller's).
func (m *Member) Close() {
	m.loop.Close()
}

// call runs fn on the loop.
func (m *Member) call(fn func()) error {
	if err := m.loop.Call(fn); err != nil {
		return ErrStopped
	}
	return nil
}

// ---- Public API ----

// Join runs the full seven-step join protocol against the registration
// server and blocks until admitted or failed.
func (m *Member) Join() error {
	errc := make(chan error, 1)
	if err := m.call(func() { m.startJoin(errc) }); err != nil {
		return err
	}
	select {
	case err := <-errc:
		return err
	case <-m.loop.Stopped():
		return ErrStopped
	}
}

// Rejoin presents the member's ticket to the given controller (by
// directory ID) and blocks until admitted or failed.
func (m *Member) Rejoin(acID string) error {
	errc := make(chan error, 1)
	if err := m.call(func() { m.startRejoin(acID, errc) }); err != nil {
		return err
	}
	select {
	case err := <-errc:
		return err
	case <-m.loop.Stopped():
		return ErrStopped
	}
}

// Leave announces departure to the controller and detaches.
func (m *Member) Leave() error {
	return m.call(func() {
		if !m.connected {
			return
		}
		m.sendPlain(m.acAddr, wire.KindLeaveNotice, wire.NewLeaveNotice(m.cfg.ID, m.view.LeafKey()))
		m.detach()
		// A voluntary departure is not a §IV-B disconnection: hold
		// auto-rejoin back for a full silence window so an explicit
		// Rejoin (e.g. a ticket move) is not raced by the housekeeper.
		m.lastRejoinTry = m.clk.Now()
	})
}

// Send multicasts a payload to the group: the area's suite seals the
// payload under a fresh random key K_d and K_d under the area key (Fig. 2).
func (m *Member) Send(payload []byte) error {
	var sendErr error
	err := m.call(func() {
		if !m.connected {
			sendErr = ErrNotConnected
			return
		}
		dataKey := crypt.NewSymKey()
		m.dataSeq++
		body := wire.Data{
			Origin:     m.cfg.ID,
			OriginArea: m.areaID,
			Seq:        m.dataSeq,
			FromArea:   m.areaID,
			Cipher:     wire.CipherOf(m.suite.ID()),
			EncKey:     m.suite.Seal(m.view.AreaKey(), dataKey[:]),
			Payload:    m.suite.Seal(dataKey, payload),
		}.Encode()
		sendErr = m.cfg.Transport.Send(m.acAddr, &wire.Frame{
			Kind: wire.KindData,
			From: m.cfg.Transport.Addr(),
			Body: body,
		})
		if sendErr == nil {
			m.lastSent = m.clk.Now()
		}
	})
	if err != nil {
		return err
	}
	return sendErr
}

// Connected reports whether the member is attached to an area.
func (m *Member) Connected() bool {
	var v bool
	_ = m.call(func() { v = m.connected })
	return v
}

// AreaID reports the current area ("" when detached).
func (m *Member) AreaID() string {
	var v string
	_ = m.call(func() { v = m.areaID })
	return v
}

// ControllerID reports the current area controller's identity.
func (m *Member) ControllerID() string {
	var v string
	_ = m.call(func() { v = m.acID })
	return v
}

// Epoch reports the member's current key epoch.
func (m *Member) Epoch() uint64 {
	var v uint64
	_ = m.call(func() {
		if m.view != nil {
			v = m.view.Epoch()
		}
	})
	return v
}

// Received reports how many data payloads were delivered.
func (m *Member) Received() int64 {
	var v int64
	_ = m.call(func() { v = m.received })
	return v
}

// Rekeys reports how many key updates were applied.
func (m *Member) Rekeys() int64 {
	var v int64
	_ = m.call(func() { v = m.rekeys })
	return v
}

// Directory returns the controller directory learned at registration.
func (m *Member) Directory() []wire.ACInfo {
	var v []wire.ACInfo
	_ = m.call(func() { v = append([]wire.ACInfo(nil), m.directory...) })
	return v
}

// NumKeys reports how many symmetric keys the member stores (§V-A).
func (m *Member) NumKeys() int {
	var v int
	_ = m.call(func() {
		if m.view != nil {
			v = m.view.NumKeys()
		}
	})
	return v
}
