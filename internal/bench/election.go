package bench

//lint:file-ignore clockdiscipline benchmarks measure wall-clock elapsed time by design

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"time"

	"mykil/internal/area"
	"mykil/internal/core"
	"mykil/internal/crypt"
	"mykil/internal/obs"
	"mykil/internal/simnet"
)

// This file is E15: the price of self-healing fault tolerance against
// the paper's single passive backup (§IV-C), and a check of what the
// replication path must guarantee.
//
//   - Election latency. Kill the primary of a 3-replica set over many
//     rounds and time the gap from the crash to the quorum winner's
//     promotion. The paper's backup promotes unilaterally after its
//     silence window; the quorum election adds one Election/ElectionOK
//     round on top, so the figure shows what the split-brain protection
//     costs.
//
//   - Replication bytes. The payload the primary shipped to its replicas
//     as journal segments for the churn scenario
//     (mykil_replication_bytes_total). The full-state snapshot baseline
//     this was once compared against is retired with the path it measured;
//     EXPERIMENTS.md keeps the recorded ratio.
//
//   - Guarantees, checked every round: every replica holds the primary's
//     whole log before the kill, exactly one replica promotes, the winner
//     serves the primary's member set at its epoch, and no member has to
//     rejoin.
type ElectionConfig struct {
	Rounds   int // crash/elect rounds for the latency distribution
	Members  int // members joined before the kill
	Churn    int // extra join+leave pairs that grow the journal
	Replicas int
	RSABits  int
	PoolSeed int64
}

// ElectionResult carries E15's measurements.
type ElectionResult struct {
	Cfg            ElectionConfig
	HeartbeatEvery time.Duration
	Latencies      []time.Duration // sorted, one per round
	SegmentBytes   int64           // replication payload of the last round
	// Violations lists every round that broke a replication guarantee.
	Violations []string
}

func (c *ElectionConfig) fill() {
	if c.Rounds == 0 {
		c.Rounds = 9
	}
	if c.Members == 0 {
		c.Members = 12
	}
	if c.Churn == 0 {
		c.Churn = 8
	}
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	if c.RSABits == 0 {
		c.RSABits = 512
	}
	if c.PoolSeed == 0 {
		c.PoolSeed = 15
	}
}

// electionHeartbeat is the replica heartbeat cadence under test. The
// takeover window, and with it the latency floor, is a fixed multiple of
// it, so results are reported alongside this figure.
const electionHeartbeat = 20 * time.Millisecond

// percentile picks p (0..1) from sorted latencies by nearest rank.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// ElectionFailover runs E15 and returns its measurements.
func ElectionFailover(cfg ElectionConfig) (*ElectionResult, error) {
	cfg.fill()
	pool, err := crypt.NewKeyPool(16, cfg.RSABits, cfg.PoolSeed)
	if err != nil {
		return nil, err
	}
	res := &ElectionResult{Cfg: cfg, HeartbeatEvery: electionHeartbeat}
	for round := 0; round < cfg.Rounds; round++ {
		if err := electionRound(cfg, pool, round, res); err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
	}
	sort.Slice(res.Latencies, func(i, j int) bool { return res.Latencies[i] < res.Latencies[j] })
	return res, nil
}

// electionOptions is the shared group shape: one area, quiet periodic
// timers (churn drives every sync), fast heartbeats.
func electionOptions(cfg ElectionConfig, pool *crypt.KeyPool) []core.Option {
	return []core.Option{
		core.WithAreas(1),
		core.WithReplicas(cfg.Replicas),
		core.WithRSABits(cfg.RSABits),
		core.WithTestKeyPool(pool),
		core.WithTIdle(60 * time.Millisecond),
		core.WithTActive(120 * time.Millisecond),
		core.WithRekeyInterval(time.Hour),
		core.WithHeartbeatEvery(electionHeartbeat),
		core.WithOpTimeout(time.Minute),
	}
}

// runChurn joins the configured members, then cycles Churn extra
// members through join+leave so the replicated history outgrows the
// final state.
func runChurn(g *core.Group, cfg ElectionConfig) error {
	for i := 0; i < cfg.Members; i++ {
		if _, err := g.AddMember(fmt.Sprintf("em%02d", i), core.MemberConfig{}); err != nil {
			return err
		}
	}
	for i := 0; i < cfg.Churn; i++ {
		m, err := g.AddMember(fmt.Sprintf("churn%02d", i), core.MemberConfig{})
		if err != nil {
			return err
		}
		if err := m.Leave(); err != nil {
			return err
		}
	}
	return nil
}

// waitReplicasCaughtUp polls until every replica of area 0 holds the
// primary's whole journal.
func waitReplicasCaughtUp(g *core.Group, cfg ElectionConfig) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		want := g.Controller(0).JournalLSN()
		behind := 0
		for r := 0; r < cfg.Replicas; r++ {
			if g.Replica(0, r).AppliedLSN() != want {
				behind++
			}
		}
		if behind == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d replicas short of the primary's LSN %d after 30s", behind, want)
		}
		time.Sleep(electionHeartbeat)
	}
}

// electionRound stands up a journaled group, lets the replicas absorb
// the churn, kills the primary, times the quorum promotion, and checks
// the takeover against the replication guarantees.
func electionRound(cfg ElectionConfig, pool *crypt.KeyPool, round int, res *ElectionResult) error {
	dir, err := os.MkdirTemp("", "mykil-election-bench-*")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	net := simnet.New(simnet.Config{})
	defer net.Close()
	g, err := core.New(append(electionOptions(cfg, pool),
		core.WithNet(net), core.WithJournal(dir, "never"))...)
	if err != nil {
		return err
	}
	defer g.Close()
	if err := runChurn(g, cfg); err != nil {
		return err
	}
	if err := waitReplicasCaughtUp(g, cfg); err != nil {
		return err
	}
	primary := g.Controller(0)
	res.SegmentBytes = primary.Stats().Value(obs.MetricReplBytes)
	epoch, members := primary.Epoch(), primary.MemberIDs()

	start := time.Now()
	net.Crash(core.ACAddr(0))
	deadline := start.Add(30 * time.Second)
	var winners []*area.Controller
	for len(winners) == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("no replica promoted within 30s of the crash")
		}
		time.Sleep(time.Millisecond)
		winners = promoted(g, cfg)
	}
	res.Latencies = append(res.Latencies, time.Since(start))

	// Give a racing second candidacy and a stranded member's ticket
	// rejoin a full takeover window to (wrongly) happen.
	time.Sleep(5 * electionHeartbeat)
	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf("round %d: ", round)+fmt.Sprintf(format, args...))
	}
	if winners = promoted(g, cfg); len(winners) != 1 {
		violate("%d replicas promoted, want exactly 1", len(winners))
	}
	w := winners[0]
	if got := w.Epoch(); got != epoch {
		violate("winner serves epoch %d, primary died at %d", got, epoch)
	}
	if got := w.MemberIDs(); !reflect.DeepEqual(got, members) {
		violate("winner serves %d members %v, primary had %d", len(got), got, len(members))
	}
	if n := w.Stats().Value(area.StatRejoins); n != 0 {
		violate("%d members had to rejoin", n)
	}
	return nil
}

// promoted lists the controllers area 0's replicas have promoted.
func promoted(g *core.Group, cfg ElectionConfig) []*area.Controller {
	var out []*area.Controller
	for r := 0; r < cfg.Replicas; r++ {
		if c, err := g.Replica(0, r).Promoted(); err == nil {
			out = append(out, c)
		}
	}
	return out
}

// GuaranteesHold reports whether every round met the replication
// guarantees: replicas caught up before the kill (a round that does not
// get there is an error, not a result), one winner, the primary's epoch
// and member set, zero rejoins.
func (r *ElectionResult) GuaranteesHold() bool { return len(r.Violations) == 0 }

// Table renders E15.
func (r *ElectionResult) Table() *Table {
	takeover := 5 * r.HeartbeatEvery // replica.DefaultTakeoverFactor
	t := &Table{
		Title: fmt.Sprintf("E15 quorum failover (%d replicas, %d members + %d churned, %v heartbeat)",
			r.Cfg.Replicas, r.Cfg.Members, r.Cfg.Churn, r.HeartbeatEvery),
		Headers: []string{"measure", "value"},
		Notes: []string{
			fmt.Sprintf("takeover window %v = 5 heartbeats of silence before any candidacy", takeover),
			"latency = wall time from primary crash to quorum promotion",
			"bytes = journal-segment payload the primary shipped to its replicas before the kill",
		},
	}
	t.Notes = append(t.Notes, r.Violations...)
	t.Rows = append(t.Rows,
		[]string{"election latency p50", percentile(r.Latencies, 0.50).Round(time.Millisecond).String()},
		[]string{"election latency p95", percentile(r.Latencies, 0.95).Round(time.Millisecond).String()},
		[]string{"election rounds", fmt.Sprint(len(r.Latencies))},
		[]string{"segment replication bytes", fmt.Sprint(r.SegmentBytes)},
		[]string{"guarantee violations", fmt.Sprint(len(r.Violations))},
	)
	return t
}
