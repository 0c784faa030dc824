package main

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Failover timing, as E15: 20 ms replica heartbeats, so the takeover
// window is 100 ms of silence; members only declare disconnection after
// 300 ms, so they follow the announcement instead of rejoining.
const (
	foReplicas  = 3
	foHeartbeat = 20 * time.Millisecond
	foTIdle     = 60 * time.Millisecond
	foTActive   = 120 * time.Millisecond
	foProbeGap  = 2 * time.Millisecond
	foGiveUp    = 5 * time.Second
)

// errVoided marks a round in which a replica took over before the
// benchmark crashed the primary: the host stalled the primary (an fsync
// that took longer than the 100 ms takeover window does it) and the
// replicas did what they are built to do. The round says nothing about a
// crash at a known instant, so it is run again and counted in
// replica.voided_rounds, not in the results.
var errVoided = errors.New("a replica took over before the crash")

// arrivals is the watcher's record of when probe data reached it.
type arrivals struct {
	mu sync.Mutex
	at []time.Time
}

func (a *arrivals) onData([]byte, string) {
	now := time.Now()
	a.mu.Lock()
	a.at = append(a.at, now)
	a.mu.Unlock()
}

func (a *arrivals) snapshot() []time.Time {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]time.Time(nil), a.at...)
}

// failoverRound is what one round adds to the run.
type failoverRound struct {
	res        *runResult // the round's share of the run's totals
	wire       int64
	live       float64 // heap per member before the crash
	durableMs  []float64
	outageMs   float64
	electionMs float64
	announceMs float64
	lagLSN     float64
	journalDir string
}

// runFailover is §IV-C / E15: time without service when a journaled,
// three-replica controller crashes, plus the cost of durable membership
// operations on the way there.
func runFailover(c runConfig) (*runResult, error) {
	rounds, joins, pairs := c.scaled(30, 2), 12, 4
	if c.toy {
		rounds, joins, pairs = 2, 4, 1
	}
	r := newRunResult()

	// Set-up is the key pool plus one round's build; the pool is drawn
	// from several seeds and the median taken, the builds over the rounds.
	var pool *keyPool
	var poolS []float64
	for _, seed := range c.setupSeeds(5) {
		t0 := time.Now()
		var err error
		if pool, err = newKeyPool(16, 1024, seed); err != nil {
			return nil, err
		}
		poolS = append(poolS, time.Since(t0).Seconds())
	}
	r.shape = walkShape{pool: pool, areaSize: joins, fsync: "group"}

	var durableMs, electionMs, announceMs []float64
	var wire int64
	var live, lag, voided, records, journalBytes float64
	for round := 0; round < rounds; round++ {
		fr, err := failoverOnce(c, pool, round, joins, pairs)
		if errors.Is(err, errVoided) {
			if voided++; voided > float64(rounds) {
				return nil, fmt.Errorf("failover: %v in %v rounds; the host is too disturbed to measure", err, voided)
			}
			round--
			continue
		}
		if err != nil {
			r.violatef("round %d: %v", round, err)
		}
		if fr == nil {
			continue
		}
		// Merge the round: counters add, the deployment's own figures
		// (medians, means, build time) keep the last round's.
		r.attempted += fr.res.attempted
		r.failed += fr.res.failed
		r.ops += fr.res.ops
		r.wallS += fr.res.wallS
		r.cpuS += fr.res.cpuS
		r.allocBytes += fr.res.allocBytes
		r.chunks = append(r.chunks, fr.res.chunks...)
		r.violations = append(r.violations, fr.res.violations...)
		r.setupS = append(r.setupS, median(poolS)+fr.res.setupS[0])
		for k, v := range fr.res.layer {
			switch k {
			case "area.rekey_ms_p50", "member.join_virtual_ms_mean", "member.rejoin_virtual_ms_mean", "core.build_s":
				r.layer[k] = v
			default:
				r.layer[k] += v
			}
		}
		wire += fr.wire
		if fr.outageMs > 0 {
			r.waitsMs = append(r.waitsMs, fr.outageMs)
			electionMs = append(electionMs, fr.electionMs)
			announceMs = append(announceMs, fr.announceMs)
		}
		durableMs = append(durableMs, fr.durableMs...)
		live, lag = fr.live, lag+fr.lagLSN
		r.shape.journalDir = fr.journalDir
		if js, err := readJournalDir(fr.journalDir); err == nil {
			records += float64(js.records)
			journalBytes += float64(js.bytes)
		}
	}
	if r.ops == 0 || len(r.waitsMs) == 0 {
		return nil, fmt.Errorf("failover: no round completed: %v", r.violations)
	}

	r.finishE2E(wire, live)
	ops := float64(r.ops)
	r.layer["journal.records_per_op"] = records / ops
	r.layer["journal.bytes_per_op"] = journalBytes / ops
	r.layer["replica.election_ms_p50"] = median(electionMs)
	r.layer["replica.announce_ms_p50"] = median(announceMs)
	r.layer["replica.lag_lsn_at_crash"] = lag / float64(rounds)
	r.layer["replica.voided_rounds"] = voided
	r.alias["failover_outage_ms_p50"] = r.e2e["wait_ms_p50"]
	r.alias["durable_op_ms_p50"] = median(durableMs)
	return r, nil
}

// failoverOnce runs one round: build, durable operations, replication
// catch-up, probe, crash, outage, checks. A non-nil round with an error is
// a round that ran but failed a check or an operation.
func failoverOnce(c runConfig, pool *keyPool, round, joins, pairs int) (*failoverRound, error) {
	dir, err := os.MkdirTemp(c.tmp, "failover-")
	if err != nil {
		return nil, err
	}
	fr := &failoverRound{res: newRunResult(), journalDir: controllerJournalDir(dir, 0)}
	r := fr.res
	base := liveBytes()
	t0 := time.Now()
	d, err := deploy(deployOpts{
		pool: pool, seed: c.seed + int64(round), areas: 1, replicas: foReplicas,
		latency: time.Millisecond, tIdle: foTIdle, tActive: foTActive, rekeyInterval: time.Hour,
		heartbeat: foHeartbeat, opTimeout: time.Minute, journalDir: dir, fsync: "group", trace: c.tc,
	})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	r.setupS = []float64{time.Since(t0).Seconds()}
	tookOver := func() bool {
		for i := 0; i < foReplicas; i++ {
			if d.replicaState(0, i).promoted {
				return true
			}
		}
		return false
	}

	// Durable operations: a sequential client on the journaled area.
	// Members that leave stay un-retired until the round closes, so an
	// alive multicast in flight to one is not counted as a drop.
	var members []*sutMember
	watcher := &arrivals{}
	m := startMeter(d, nil)
	ch := startChunks(r)
	opErr := func() error {
		for i := 0; i < joins+pairs; i++ {
			id := fmt.Sprintf("f%02d-%02d", round, i)
			var cb func([]byte, string)
			if i == 1 {
				cb = watcher.onData
			}
			mb, err := d.newMember(id, cb)
			if err != nil {
				return err
			}
			r.attempted++
			t := time.Now()
			if err := mb.Join(); err != nil {
				r.failed++
				return fmt.Errorf("journaled join %s: %w", id, err)
			}
			if i < joins {
				fr.durableMs = append(fr.durableMs, ms(time.Since(t)))
				members = append(members, mb)
			}
			if c.tc != nil {
				c.tc.observeDone("join", id, d.now())
			}
			r.ops++
			if i >= joins {
				r.attempted++
				if err := mb.Leave(); err != nil {
					r.failed++
					return fmt.Errorf("journaled leave %s: %w", id, err)
				}
				r.ops++
			}
		}
		// Batching is off: every operation is one rekey, one epoch, one
		// journal record; the last leave is in once the epoch shows it.
		want := uint64(joins + 2*pairs)
		if !waitFor(10*time.Second, time.Millisecond, func() bool { return d.controllerState(0).epoch >= want || tookOver() }) {
			return fmt.Errorf("controller stopped at epoch %d, want %d", d.controllerState(0).epoch, want)
		}
		return nil
	}()
	ch.mark(r.ops)
	fr.wire = m.stop(r)
	if tookOver() {
		return nil, errVoided
	}
	if opErr != nil {
		return fr, opErr
	}
	verifyMembership(d, members, r)
	fr.live = float64(liveBytes()-base) / float64(len(members))

	// Replicas must hold the whole journal before the crash.
	js, err := readJournalDir(fr.journalDir)
	if err != nil {
		return fr, err
	}
	behind := func() (lag float64) {
		for i := 0; i < foReplicas; i++ {
			lag += float64(js.records+1) - float64(d.replicaState(0, i).appliedLSN)
		}
		return lag
	}
	if !waitFor(10*time.Second, time.Millisecond, func() bool { return behind() <= 0 || tookOver() }) {
		return fr, fmt.Errorf("replicas are %v records short of LSN %d in total", behind(), js.records+1)
	}

	// Open-loop prober: one Send every 2 ms on a fixed schedule.
	stop := make(chan struct{})
	var stopOnce sync.Once
	var probing sync.WaitGroup
	halt := func() {
		stopOnce.Do(func() { close(stop) })
		probing.Wait()
	}
	probing.Add(1)
	go func() {
		defer probing.Done()
		payload := make([]byte, 64)
		start := time.Now()
		for k := 0; ; k++ {
			if wait := time.Until(start.Add(time.Duration(k) * foProbeGap)); wait > 0 {
				select {
				case <-stop:
					return
				case <-time.After(wait):
				}
			}
			_ = members[0].Send(payload) // sends into a crashed controller are dropped by design
		}
	}()
	defer halt()
	if !waitFor(foGiveUp, time.Millisecond, func() bool { return len(watcher.snapshot()) >= 20 || tookOver() }) {
		return fr, fmt.Errorf("probe data never reached the watcher")
	}
	if tookOver() {
		return nil, errVoided
	}

	r.attempted++
	fr.lagLSN = behind()
	crashAt := time.Now()
	d.crashController(0)
	var promotedAt, resumedAt time.Time
	ok := waitFor(foGiveUp, time.Millisecond, func() bool {
		if tookOver() {
			promotedAt = time.Now()
			return true
		}
		return false
	})
	ok = ok && waitFor(foGiveUp, time.Millisecond, func() bool {
		at := watcher.snapshot()
		if n := len(at); n > 0 && at[n-1].After(promotedAt) {
			resumedAt = at[sort.Search(n, func(i int) bool { return at[i].After(promotedAt) })]
			return true
		}
		return false
	})
	if !ok {
		r.failed++
		return fr, fmt.Errorf("service did not resume within %v of the crash", foGiveUp)
	}
	time.Sleep(50 * time.Millisecond) // a few more arrivals bound the gap from above
	halt()

	outage := time.Duration(0)
	at := watcher.snapshot()
	for i := 1; i < len(at); i++ {
		if gap := at[i].Sub(at[i-1]); at[i].After(crashAt) && gap > outage {
			outage = gap
		}
	}
	fr.outageMs = ms(outage)
	fr.electionMs = ms(promotedAt.Sub(crashAt))
	fr.announceMs = ms(resumedAt.Sub(promotedAt))

	// Exactly one replica took over, nobody rejoined, every member
	// followed, and the only frames lost were those sent to the crashed
	// controller.
	promoted := 0
	for i := 0; i < foReplicas; i++ {
		if rs := d.replicaState(0, i); rs.promoted {
			promoted++
			if rs.promotedCounters.rejoins != 0 {
				r.violatef("round %d: %d members rejoined after the failover", round, rs.promotedCounters.rejoins)
			}
		}
	}
	if promoted != 1 {
		r.violatef("round %d: %d replicas promoted, want exactly 1", round, promoted)
	}
	for _, mb := range members {
		if !mb.Connected() {
			r.violatef("round %d: member %s lost its area", round, mb.id)
		}
	}
	if nc := d.netCounters(); nc.dropped != nc.droppedCrashed {
		r.violatef("round %d: network dropped %d frames for reasons other than the crash", round, nc.dropped-nc.droppedCrashed)
	}
	return fr, nil
}
