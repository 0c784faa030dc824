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

// Option mutates the deployment Config that New assembles. Options are
// applied in order, so later options win.
type Option func(*Config)

// New builds and starts a deployment from functional options:
//
//	g, err := core.New(core.WithAreas(8), core.WithBatching(), core.WithObserver(sink))
//
// With no options it builds the single-area default deployment.
func New(opts ...Option) (*Group, error) {
	var cfg Config
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	return build(cfg)
}

// WithConfig seeds the whole Config struct at once, for callers mid-way
// through migrating to per-field options. Later options still override.
//
// Deprecated: use per-field options.
func WithConfig(cfg Config) Option {
	return func(c *Config) { *c = cfg }
}

// WithAreas sets the number of areas (and controllers).
func WithAreas(n int) Option { return func(c *Config) { c.NumAreas = n } }

// WithAreaFanout shapes the controller tree.
func WithAreaFanout(n int) Option { return func(c *Config) { c.AreaFanout = n } }

// WithRSABits sets every principal's key size.
func WithRSABits(bits int) Option { return func(c *Config) { c.RSABits = bits } }

// WithBatching enables §III-E rekey aggregation at every controller.
func WithBatching() Option { return func(c *Config) { c.Batching = true } }

// WithTreeArity sets auxiliary-key-tree fan-out.
func WithTreeArity(n int) Option { return func(c *Config) { c.TreeArity = n } }

// WithCipherSuite selects the symmetric suite every controller seals
// key-tree ciphertexts and data-key hops with: "legacy" (the default),
// "aes-gcm", or "chacha20-poly1305".
func WithCipherSuite(name string) Option { return func(c *Config) { c.CipherSuite = name } }

// WithReplicas gives every controller n replicas running quorum leader
// election over journal-segment replication: on primary failure the
// replicas elect the best-caught-up candidate, which rebuilds the
// controller from replicated journal segments and announces the failover
// through the first replica (whose key members learned at join). One
// replica is the paper's §IV-C passive backup. Needs WithJournal.
func WithReplicas(n int) Option { return func(c *Config) { c.NumReplicas = n } }

// WithAreaWatermarks turns on dynamic area split and merge: a controller
// whose live membership exceeds splitAbove sheds the upper half of its
// sorted member set to a freshly spawned sibling, and a non-root
// controller sinking under mergeBelow (but above zero) folds its members
// into its parent and retires. Zero disables either watermark.
func WithAreaWatermarks(splitAbove, mergeBelow int) Option {
	return func(c *Config) {
		c.SplitAbove = splitAbove
		c.MergeBelow = mergeBelow
	}
}

// WithPolicy selects rejoin behaviour under partition.
func WithPolicy(p area.PartitionPolicy) Option { return func(c *Config) { c.Policy = p } }

// WithSkipRejoinVerify omits rejoin steps 4-5 at every controller
// (§V-D's option-2 latency variant).
func WithSkipRejoinVerify() Option { return func(c *Config) { c.SkipRejoinVerify = true } }

// WithDataWorkers sizes each controller's data-plane worker pool.
func WithDataWorkers(n int) Option { return func(c *Config) { c.DataWorkers = n } }

// WithClock injects the clock driving all timers.
func WithClock(clk clock.Clock) Option { return func(c *Config) { c.Clock = clk } }

// WithNet reuses an existing simulated network instead of a fresh
// lossless one.
func WithNet(net *simnet.Network) Option { return func(c *Config) { c.Net = net } }

// WithTransportFactory overrides how component transports are created
// (e.g. transport.NewTCP for a real-network deployment).
func WithTransportFactory(f func(name string) (transport.Transport, error)) Option {
	return func(c *Config) { c.NewTransport = f }
}

// WithAuthDB maps acceptable auth-info strings to membership durations.
func WithAuthDB(db map[string]time.Duration) Option { return func(c *Config) { c.AuthDB = db } }

// WithTIdle sets the idle alive-message period (§IV-A).
func WithTIdle(d time.Duration) Option { return func(c *Config) { c.TIdle = d } }

// WithTActive sets the active alive-message period (§IV-A).
func WithTActive(d time.Duration) Option { return func(c *Config) { c.TActive = d } }

// WithRekeyInterval sets the §III-E batch rekey period.
func WithRekeyInterval(d time.Duration) Option { return func(c *Config) { c.RekeyInterval = d } }

// WithVerifyTimeout bounds the rejoin anti-cohort verification round.
func WithVerifyTimeout(d time.Duration) Option { return func(c *Config) { c.VerifyTimeout = d } }

// WithHeartbeatEvery sets the controller heartbeat period.
func WithHeartbeatEvery(d time.Duration) Option { return func(c *Config) { c.HeartbeatEvery = d } }

// WithOpTimeout bounds member join/rejoin operations.
func WithOpTimeout(d time.Duration) Option { return func(c *Config) { c.OpTimeout = d } }

// WithJournal makes controllers and the registration server durable
// under dir with the given fsync policy ("" means always). See
// Config.JournalDir.
func WithJournal(dir, fsyncPolicy string) Option {
	return func(c *Config) {
		c.JournalDir = dir
		c.FsyncPolicy = fsyncPolicy
	}
}

// WithSegmentBytes overrides the journal segment rotation threshold.
func WithSegmentBytes(n int64) Option { return func(c *Config) { c.SegmentBytes = n } }

// WithTestKeyPool draws every principal's key pair from a shared
// deterministic pool instead of fresh keygen. SIMULATION AND TEST
// ONLY — see Config.KeyPool and crypt.NewKeyPool for the security
// caveats; calling this is the explicit opt-in.
func WithTestKeyPool(p *crypt.KeyPool) Option { return func(c *Config) { c.KeyPool = p } }

// WithObserver installs the sink receiving structured protocol trace
// events from every component. See internal/obs.
func WithObserver(sink obs.Sink) Option { return func(c *Config) { c.Observer = sink } }

// WithLogf installs a debug logger for every component.
func WithLogf(logf func(format string, args ...any)) Option {
	return func(c *Config) { c.Logf = logf }
}
