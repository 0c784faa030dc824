package core

import (
	"time"

	"mykil/internal/area"
	"mykil/internal/clock"
	"mykil/internal/crypt"
	"mykil/internal/obs"
	"mykil/internal/simnet"
	"mykil/internal/transport"
)

// Option sets part of the deployment New assembles. Options are applied
// in order, so later options win.
type Option func(*config)

// New builds and starts a deployment from functional options:
//
//	g, err := core.New(core.WithAreas(8), core.WithBatching(), core.WithObserver(sink))
//
// With no options it builds the single-area default deployment.
func New(opts ...Option) (*Group, error) {
	var cfg config
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	return build(cfg)
}

// WithAreas sets the number of areas (and controllers).
func WithAreas(n int) Option { return func(c *config) { c.NumAreas = n } }

// WithRSABits sets every principal's key size.
func WithRSABits(bits int) Option { return func(c *config) { c.RSABits = bits } }

// WithBatching enables §III-E rekey aggregation at every controller.
func WithBatching() Option { return func(c *config) { c.Batching = true } }

// WithTreeArity sets auxiliary-key-tree fan-out.
func WithTreeArity(n int) Option { return func(c *config) { c.TreeArity = n } }

// WithCipherSuite selects the symmetric suite every area runs — key-tree
// ciphertexts, data-key hops and its members' data payloads: "legacy"
// (the default), "aes-gcm", or "chacha20-poly1305".
func WithCipherSuite(name string) Option { return func(c *config) { c.CipherSuite = name } }

// WithReplicas gives every controller n replicas running quorum leader
// election over journal-segment replication: on primary failure the
// replicas elect the best-caught-up candidate, which rebuilds the
// controller from replicated journal segments and announces the failover
// through the first replica (whose key members learned at join). One
// replica is the paper's §IV-C passive backup. Needs WithJournal.
func WithReplicas(n int) Option { return func(c *config) { c.NumReplicas = n } }

// WithAreaWatermarks turns on dynamic area split and merge: a controller
// whose live membership exceeds splitAbove sheds the upper half of its
// sorted member set to a freshly spawned sibling, and a non-root
// controller sinking under mergeBelow (but above zero) folds its members
// into its parent and retires. Zero disables either watermark.
func WithAreaWatermarks(splitAbove, mergeBelow int) Option {
	return func(c *config) {
		c.SplitAbove = splitAbove
		c.MergeBelow = mergeBelow
	}
}

// WithPolicy selects rejoin behaviour under partition.
func WithPolicy(p area.PartitionPolicy) Option { return func(c *config) { c.Policy = p } }

// WithSkipRejoinVerify omits rejoin steps 4-5 at every controller
// (§V-D's option-2 latency variant).
func WithSkipRejoinVerify() Option { return func(c *config) { c.SkipRejoinVerify = true } }

// WithDataWorkers sizes each controller's data-plane worker pool.
func WithDataWorkers(n int) Option { return func(c *config) { c.DataWorkers = n } }

// WithClock injects the clock driving all timers.
func WithClock(clk clock.Clock) Option { return func(c *config) { c.Clock = clk } }

// WithNet reuses an existing simulated network instead of a fresh
// lossless one.
func WithNet(net *simnet.Network) Option { return func(c *config) { c.Net = net } }

// WithTransportFactory overrides how component transports are created
// (e.g. transport.NewTCP for a real-network deployment).
func WithTransportFactory(f func(name string) (transport.Transport, error)) Option {
	return func(c *config) { c.NewTransport = f }
}

// WithAuthDB maps acceptable auth-info strings to membership durations.
func WithAuthDB(db map[string]time.Duration) Option { return func(c *config) { c.AuthDB = db } }

// WithTIdle sets the idle alive-message period (§IV-A).
func WithTIdle(d time.Duration) Option { return func(c *config) { c.TIdle = d } }

// WithTActive sets the active alive-message period (§IV-A).
func WithTActive(d time.Duration) Option { return func(c *config) { c.TActive = d } }

// WithRekeyInterval sets the §III-E batch rekey period.
func WithRekeyInterval(d time.Duration) Option { return func(c *config) { c.RekeyInterval = d } }

// WithVerifyTimeout bounds the rejoin anti-cohort verification round.
func WithVerifyTimeout(d time.Duration) Option { return func(c *config) { c.VerifyTimeout = d } }

// WithHeartbeatEvery sets the controller heartbeat period.
func WithHeartbeatEvery(d time.Duration) Option { return func(c *config) { c.HeartbeatEvery = d } }

// WithOpTimeout bounds member join/rejoin operations.
func WithOpTimeout(d time.Duration) Option { return func(c *config) { c.OpTimeout = d } }

// WithJournal makes controllers and the registration server durable:
// each controller journals under <dir>/<acID>, the registration server
// under <dir>/rs, and a replica that wins an election continues its
// controller's log under <dir>/<replicaID>. fsyncPolicy is "always",
// "interval" or "never" ("" means always). New first recovers
// whatever those journals hold, so building a group over an existing
// dir is a restart, not a fresh deployment.
func WithJournal(dir, fsyncPolicy string) Option {
	return func(c *config) {
		c.JournalDir = dir
		c.FsyncPolicy = fsyncPolicy
	}
}

// WithSegmentBytes overrides the journal segment rotation threshold.
func WithSegmentBytes(n int64) Option { return func(c *config) { c.SegmentBytes = n } }

// WithTestKeyPool draws every principal's key pair from a shared
// deterministic pool instead of fresh keygen. SIMULATION AND TEST
// ONLY: pool keys are shared and reproducible (crypt.NewKeyPool), which
// destroys all security properties but makes 10^5-member runs
// affordable; calling this is the explicit opt-in.
func WithTestKeyPool(p *crypt.KeyPool) Option { return func(c *config) { c.KeyPool = p } }

// WithObserver installs the sink receiving structured protocol trace
// events from every component. See internal/obs.
func WithObserver(sink obs.Sink) Option { return func(c *config) { c.Observer = sink } }

// WithLogf installs a debug logger for every component.
func WithLogf(logf func(format string, args ...any)) Option {
	return func(c *config) { c.Logf = logf }
}
