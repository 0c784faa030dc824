package replica

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mykil/internal/area"
	"mykil/internal/crypt"
	"mykil/internal/journal"
	"mykil/internal/keytree"
	"mykil/internal/obs"
	"mykil/internal/simnet"
	"mykil/internal/transport"
	"mykil/internal/wire"
)

var (
	testPoolOnce sync.Once
	testPool     *crypt.Pool
)

func keyPair(t *testing.T) *crypt.KeyPair {
	t.Helper()
	testPoolOnce.Do(func() {
		testPool = crypt.NewPool(512)
		if err := testPool.Warm(4); err != nil {
			t.Fatalf("warming pool: %v", err)
		}
	})
	kp, err := testPool.Get()
	if err != nil {
		t.Fatalf("key pair: %v", err)
	}
	return kp
}

// rig hosts a backup plus a hand-driven "primary" endpoint.
type rig struct {
	t        *testing.T
	net      *simnet.Network
	backup   *Replica
	primary  transport.Transport
	priKeys  *crypt.KeyPair
	backKeys *crypt.KeyPair
}

func newRig(t *testing.T, mutate func(*Config)) *rig {
	t.Helper()
	r := &rig{
		t:        t,
		net:      simnet.New(simnet.Config{}),
		priKeys:  keyPair(t),
		backKeys: keyPair(t),
	}
	var err error
	r.primary, err = transport.NewSim(r.net, "primary")
	if err != nil {
		t.Fatalf("primary transport: %v", err)
	}
	backTr, err := transport.NewSim(r.net, "backup")
	if err != nil {
		t.Fatalf("backup transport: %v", err)
	}
	cfg := Config{
		ID:             "backup",
		Transport:      backTr,
		Keys:           r.backKeys,
		PrimaryID:      "primary",
		PrimaryPub:     r.priKeys.Public(),
		HeartbeatEvery: 20 * time.Millisecond,
		Journal:        journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncNever},
		ControllerConfig: area.Config{
			KShared: crypt.NewSymKey(),
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r.backup = b
	b.Start()
	t.Cleanup(func() {
		b.Close()
		_ = backTr.Close()
		_ = r.primary.Close()
		r.net.Close()
	})
	return r
}

// sampleEpoch is the key epoch of sampleBaseline's one-member tree.
const sampleEpoch = 1

// sampleBaseline encodes a one-member area state — the snapshot a
// segment push carries as its baseline.
func sampleBaseline(t *testing.T) []byte {
	t.Helper()
	tree := keytree.New(keytree.Config{Arity: 2})
	if _, err := tree.Join("m1"); err != nil {
		t.Fatalf("tree join: %v", err)
	}
	blob, err := area.EncodeState(&area.State{
		AreaID: "area-0",
		Tree:   tree.Export(),
		Members: []area.MemberState{{
			ID:     "m1",
			Addr:   "m1",
			PubDER: keyPair(t).Public().Marshal(),
		}},
	})
	if err != nil {
		t.Fatalf("EncodeState: %v", err)
	}
	return blob
}

// freshnessRecord forges the smallest valid area journal record: kind
// byte 2 (an area-key rotation) and its 32-byte rekey seed. Replaying
// one advances the key epoch by exactly one, which is how these tests
// see that a record tail was applied.
func freshnessRecord(seed byte) []byte {
	rec := make([]byte, 33)
	rec[0] = 2
	for i := range rec[1:] {
		rec[1+i] = seed + byte(i)
	}
	return rec
}

// samplePush is a push of sampleBaseline at LSN base plus n freshness
// records behind it.
func samplePush(t *testing.T, base uint64, n int) wire.SegmentPush {
	t.Helper()
	push := wire.SegmentPush{
		AreaID:      "area-0",
		SnapshotLSN: base,
		Snapshot:    sampleBaseline(t),
		FromLSN:     base + 1,
		NextLSN:     base + 1 + uint64(n),
	}
	for i := 0; i < n; i++ {
		push.Records = append(push.Records, freshnessRecord(byte(16*i)))
	}
	return push
}

// sendPush ships one sealed, signed segment push from the primary
// endpoint.
func sendPush(t *testing.T, from transport.Transport, to string, toPub crypt.PublicKey, signer *crypt.KeyPair, push wire.SegmentPush) {
	t.Helper()
	body, err := wire.SealBody(toPub, push)
	if err != nil {
		t.Fatalf("SealBody: %v", err)
	}
	f := &wire.Frame{Kind: wire.KindSegmentPush, From: "primary", Body: body, Sig: signer.Sign(body)}
	if err := from.Send(to, f); err != nil {
		t.Fatalf("Send: %v", err)
	}
}

func (r *rig) push(push wire.SegmentPush) {
	r.t.Helper()
	sendPush(r.t, r.primary, "backup", r.backKeys.Public(), r.priKeys, push)
}

// sendHeartbeat ships one signed heartbeat advertising the primary's last
// LSN.
func (r *rig) sendHeartbeat(lastLSN uint64) {
	r.t.Helper()
	body, err := wire.PlainBody(wire.ReplicaHeartbeat{AreaID: "area-0", Seq: lastLSN})
	if err != nil {
		r.t.Fatal(err)
	}
	f := &wire.Frame{Kind: wire.KindReplicaHeartbeat, From: "primary", Body: body, Sig: r.priKeys.Sign(body)}
	if err := r.primary.Send("backup", f); err != nil {
		r.t.Fatal(err)
	}
}

// awaitPull reads the primary endpoint until the backup asks for
// journal records, and returns the LSN it asked from.
func (r *rig) awaitPull() uint64 {
	r.t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case f := <-r.primary.Recv():
			if f.Kind != wire.KindSegmentPull {
				continue
			}
			if err := r.backKeys.Public().Verify(f.Body, f.Sig); err != nil {
				r.t.Fatalf("segment pull signature: %v", err)
			}
			var pull wire.SegmentPull
			if err := wire.DecodePlain(f.Body, &pull); err != nil {
				r.t.Fatalf("segment pull body: %v", err)
			}
			return pull.FromLSN
		case <-deadline:
			r.t.Fatal("backup never pulled")
		}
	}
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// lsnIs reports whether the replica's log ends just before lsn.
func lsnIs(rep *Replica, lsn uint64) func() bool {
	return func() bool { return rep.AppliedLSN() == lsn }
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	kp := keyPair(t)
	n := simnet.New(simnet.Config{})
	defer n.Close()
	tr, err := transport.NewSim(n, "b")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	jopts := journal.Options{Dir: t.TempDir()}
	// HeartbeatEvery is only a bootstrap value now — the primary carries
	// the authoritative cadence in every segment push — so omitting it
	// must default rather than fail.
	r, err := New(Config{ID: "b", Transport: tr, Keys: kp, PrimaryID: "p", PrimaryPub: kp.Public(), Journal: jopts})
	if err != nil {
		t.Errorf("config without HeartbeatEvery rejected: %v", err)
	} else if r.hbEvery != DefaultHeartbeatEvery {
		t.Errorf("hbEvery = %v, want %v", r.hbEvery, DefaultHeartbeatEvery)
	}
	if _, err := New(Config{ID: "b", Transport: tr, Keys: kp, PrimaryID: "p", PrimaryPub: kp.Public(), Journal: jopts,
		Peers: []Peer{{ID: "x"}}}); err == nil {
		t.Error("peer without Addr/Pub accepted")
	}
	// A winner continues the replicated log in its own journal; a replica
	// with nowhere to put it could never take over.
	if _, err := New(Config{ID: "b", Transport: tr, Keys: kp, PrimaryID: "p", PrimaryPub: kp.Public()}); err == nil {
		t.Error("config without a journal directory accepted")
	}
}

func TestAbsorbsPushAndStaysQuietWhileHeartbeating(t *testing.T) {
	r := newRig(t, nil)
	r.push(samplePush(t, 1, 0))
	waitFor(t, "push absorption", 5*time.Second, lsnIs(r.backup, 2))

	// Keep heartbeats flowing well past the takeover window; the backup
	// must not promote.
	for i := 0; i < 10; i++ {
		r.sendHeartbeat(1)
		time.Sleep(15 * time.Millisecond)
	}
	if _, err := r.backup.Promoted(); !errors.Is(err, ErrNotPromoted) {
		t.Error("backup promoted despite live primary")
	}
}

func TestRejectsForgedPush(t *testing.T) {
	r := newRig(t, nil)
	sendPush(t, r.primary, "backup", r.backKeys.Public(), keyPair(t), samplePush(t, 1, 0))
	time.Sleep(60 * time.Millisecond)
	if got := r.backup.AppliedLSN(); got != 0 {
		t.Errorf("forged push absorbed: AppliedLSN = %d", got)
	}
}

func TestIgnoresStaleAndDuplicatePush(t *testing.T) {
	r := newRig(t, nil)
	first := samplePush(t, 5, 2)
	r.push(first)
	waitFor(t, "first push", 5*time.Second, lsnIs(r.backup, 8))

	// The same push again, and a replay of an older stretch of the log
	// with an older baseline, must leave the log alone.
	r.push(first)
	r.push(samplePush(t, 2, 3))
	time.Sleep(60 * time.Millisecond)
	if got := r.backup.AppliedLSN(); got != 8 {
		t.Errorf("AppliedLSN = %d after stale pushes, want 8", got)
	}
	r.backup.mu.Lock()
	baseLSN, tail := r.backup.baseLSN, len(r.backup.recs)
	r.backup.mu.Unlock()
	if baseLSN != 5 || tail != 2 {
		t.Errorf("log is baseline@%d + %d records, want baseline@5 + 2", baseLSN, tail)
	}
}

// TestGapPushRepullsFromOwnPosition: a push that starts past what the
// replica holds (an earlier one was lost) must not be spliced in; the
// replica asks again from the first LSN it lacks.
func TestGapPushRepullsFromOwnPosition(t *testing.T) {
	r := newRig(t, nil)
	r.push(samplePush(t, 1, 2))
	waitFor(t, "first push", 5*time.Second, lsnIs(r.backup, 4))

	r.push(wire.SegmentPush{AreaID: "area-0", FromLSN: 7, NextLSN: 8, Records: [][]byte{freshnessRecord(7)}})
	if from := r.awaitPull(); from != 4 {
		t.Errorf("re-pull from LSN %d, want 4", from)
	}
	if got := r.backup.AppliedLSN(); got != 4 {
		t.Errorf("AppliedLSN = %d after a gap push, want 4", got)
	}
}

// TestBaselinePastNeedReplacesTail: when the primary compacted away the
// records the replica lacks, the push carries a newer baseline; the
// replica drops its tail for it and continues behind it.
func TestBaselinePastNeedReplacesTail(t *testing.T) {
	r := newRig(t, func(c *Config) { c.TakeoverAfter = 60 * time.Millisecond })
	r.push(samplePush(t, 1, 2))
	waitFor(t, "first push", 5*time.Second, lsnIs(r.backup, 4))

	r.push(samplePush(t, 9, 1))
	waitFor(t, "baseline push", 5*time.Second, lsnIs(r.backup, 11))
	r.backup.mu.Lock()
	baseLSN, tail := r.backup.baseLSN, len(r.backup.recs)
	r.backup.mu.Unlock()
	if baseLSN != 9 || tail != 1 {
		t.Fatalf("log is baseline@%d + %d records, want baseline@9 + 1", baseLSN, tail)
	}

	// The rebuilt controller replays only the one record behind the new
	// baseline, and its journal continues at LSN 11.
	r.sendHeartbeat(10)
	waitFor(t, "promotion", 10*time.Second, func() bool { _, err := r.backup.Promoted(); return err == nil })
	ctrl, _ := r.backup.Promoted()
	if got := ctrl.Epoch(); got != sampleEpoch+1 {
		t.Errorf("promoted epoch %d, want %d", got, sampleEpoch+1)
	}
	if got := ctrl.JournalLSN(); got != 11 {
		t.Errorf("promoted journal continues at LSN %d, want 11", got)
	}
}

// TestUndecodableLogBacksOff: a log the controller cannot replay — a
// garbled record, a garbled baseline — must make the winner stand down
// for a takeover window rather than promote garbage.
func TestUndecodableLogBacksOff(t *testing.T) {
	bad := map[string]func(*wire.SegmentPush){
		"record":   func(p *wire.SegmentPush) { p.Records[1] = []byte{0xFF, 1, 2, 3} },
		"baseline": func(p *wire.SegmentPush) { p.Snapshot = []byte("not a state blob") },
	}
	for name, garble := range bad {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, func(c *Config) { c.TakeoverAfter = 40 * time.Millisecond })
			push := samplePush(t, 1, 2)
			garble(&push)
			r.push(push)
			waitFor(t, "push absorption", 5*time.Second, lsnIs(r.backup, 4))
			r.sendHeartbeat(3)
			waitFor(t, "failed promotion to back off", 5*time.Second, func() bool {
				r.backup.mu.Lock()
				defer r.backup.mu.Unlock()
				return r.backup.suppressUntil.After(time.Now())
			})
			if _, err := r.backup.Promoted(); !errors.Is(err, ErrNotPromoted) {
				t.Error("promoted a log that does not replay")
			}
		})
	}
}

func TestPromotesAfterSilence(t *testing.T) {
	r := newRig(t, func(c *Config) { c.TakeoverAfter = 60 * time.Millisecond })
	r.push(samplePush(t, 3, 2))
	waitFor(t, "push", 5*time.Second, lsnIs(r.backup, 6))
	r.sendHeartbeat(5)
	// Now go silent; promotion must follow.
	waitFor(t, "promotion after primary silence", 10*time.Second, func() bool {
		_, err := r.backup.Promoted()
		return err == nil
	})
	ctrl, _ := r.backup.Promoted()
	if !ctrl.HasMember("m1") {
		t.Error("promoted controller lost the member")
	}
	if got := ctrl.Epoch(); got != sampleEpoch+2 {
		t.Errorf("promoted epoch %d, want %d (baseline + 2 replayed rotations)", got, sampleEpoch+2)
	}
	// The winner's own journal continues the dead primary's numbering.
	if got := ctrl.JournalLSN(); got != 6 {
		t.Errorf("promoted journal continues at LSN %d, want 6", got)
	}
}

// TestSeedPromotesWithoutContact: a replica seeded with what the
// primary's journal held at boot restores it when the primary never
// shows a sign of life.
func TestSeedPromotesWithoutContact(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.TakeoverAfter = 40 * time.Millisecond
		c.Seed = &journal.Recovery{
			Snapshot:    sampleBaseline(t),
			SnapshotLSN: 3,
			Records:     [][]byte{freshnessRecord(1)},
		}
	})
	if got := r.backup.AppliedLSN(); got != 5 {
		t.Fatalf("seeded AppliedLSN = %d, want 5", got)
	}
	waitFor(t, "promotion from the seed", 10*time.Second, func() bool {
		_, err := r.backup.Promoted()
		return err == nil
	})
	ctrl, _ := r.backup.Promoted()
	if !ctrl.HasMember("m1") || ctrl.Epoch() != sampleEpoch+1 {
		t.Errorf("seed restored member=%v epoch=%d", ctrl.HasMember("m1"), ctrl.Epoch())
	}
}

func TestNoPromotionWithoutState(t *testing.T) {
	r := newRig(t, func(c *Config) { c.TakeoverAfter = 40 * time.Millisecond })
	r.sendHeartbeat(0) // heartbeat but never a log
	time.Sleep(300 * time.Millisecond)
	if _, err := r.backup.Promoted(); !errors.Is(err, ErrNotPromoted) {
		t.Error("promoted without any replicated log")
	}
}

func TestNoPromotionBeforeFirstContact(t *testing.T) {
	r := newRig(t, func(c *Config) { c.TakeoverAfter = 40 * time.Millisecond })
	// Total silence from the start and no seed: the backup has never seen
	// the primary and holds nothing to restore.
	time.Sleep(300 * time.Millisecond)
	if _, err := r.backup.Promoted(); !errors.Is(err, ErrNotPromoted) {
		t.Error("promoted before first primary contact")
	}
}

// electionRig hosts n replicas of one area plus a hand-driven primary
// endpoint, for exercising the quorum election layer directly.
type electionRig struct {
	t       *testing.T
	net     *simnet.Network
	primary transport.Transport
	priKeys *crypt.KeyPair
	reps    []*Replica
	keys    []*crypt.KeyPair
}

func newElectionRig(t *testing.T, n int, takeover time.Duration, mutate func(i int, c *Config)) *electionRig {
	t.Helper()
	r := &electionRig{t: t, net: simnet.New(simnet.Config{}), priKeys: keyPair(t)}
	var err error
	r.primary, err = transport.NewSim(r.net, "primary")
	if err != nil {
		t.Fatalf("primary transport: %v", err)
	}
	peers := make([]Peer, n)
	trs := make([]transport.Transport, n)
	for i := 0; i < n; i++ {
		r.keys = append(r.keys, keyPair(t))
		id := fmt.Sprintf("r%d", i)
		trs[i], err = transport.NewSim(r.net, id)
		if err != nil {
			t.Fatalf("transport %s: %v", id, err)
		}
		peers[i] = Peer{ID: id, Addr: id, Pub: r.keys[i].Public()}
	}
	kShared := crypt.NewSymKey()
	for i := 0; i < n; i++ {
		others := make([]Peer, 0, n-1)
		survivors := make([]area.PeerInfo, 0, n-1)
		for o := 0; o < n; o++ {
			if o != i {
				others = append(others, peers[o])
				survivors = append(survivors, area.PeerInfo{ID: peers[o].ID, Addr: peers[o].Addr, Pub: peers[o].Pub})
			}
		}
		cfg := Config{
			ID:             peers[i].ID,
			Transport:      trs[i],
			Keys:           r.keys[i],
			PrimaryID:      "primary",
			PrimaryPub:     r.priKeys.Public(),
			HeartbeatEvery: 20 * time.Millisecond,
			TakeoverAfter:  takeover,
			Journal:        journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncNever},
			Peers:          others,
			Announcer:      i == 0,
			// A winner must keep heartbeating the surviving replicas, or
			// their silence timers fire a second election against it.
			ControllerConfig: area.Config{
				AreaID:         "area-0",
				KShared:        kShared,
				Replicas:       survivors,
				HeartbeatEvery: 20 * time.Millisecond,
			},
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		rep, err := New(cfg)
		if err != nil {
			t.Fatalf("New r%d: %v", i, err)
		}
		r.reps = append(r.reps, rep)
		rep.Start()
	}
	t.Cleanup(func() {
		for _, rep := range r.reps {
			rep.Close()
		}
		for _, tr := range trs {
			_ = tr.Close()
		}
		_ = r.primary.Close()
		r.net.Close()
	})
	return r
}

// pushTo ships replica i a baseline at LSN base plus n records.
func (r *electionRig) pushTo(i int, base uint64, n int) {
	r.t.Helper()
	sendPush(r.t, r.primary, r.reps[i].cfg.ID, r.keys[i].Public(), r.priKeys, samplePush(r.t, base, n))
}

// promotedCount reports how many replicas promoted a controller.
func (r *electionRig) promotedCount() int {
	n := 0
	for _, rep := range r.reps {
		if _, err := rep.Promoted(); err == nil {
			n++
		}
	}
	return n
}

// TestElectionSingleWinnerAtEqualLSN: three equally caught-up replicas
// lose their primary; exactly one must assemble a quorum and promote
// (the rank stagger biases the outcome toward the highest candidate ID,
// but the hard guarantee under arbitrary scheduling is single-winner),
// and the losers must re-point their monitoring at the winner.
func TestElectionSingleWinnerAtEqualLSN(t *testing.T) {
	r := newElectionRig(t, 3, 60*time.Millisecond, nil)
	for i := 0; i < 3; i++ {
		r.pushTo(i, 1, 1)
	}
	for i := 0; i < 3; i++ {
		waitFor(t, "push absorption", 5*time.Second, lsnIs(r.reps[i], 3))
	}
	// Primary goes silent; quorum election follows.
	waitFor(t, "election winner", 10*time.Second, func() bool {
		return r.promotedCount() >= 1
	})
	// Give a racing second candidacy every chance to (wrongly) land,
	// then check the winner's Coordinator suppressed the losers.
	time.Sleep(150 * time.Millisecond)
	if got := r.promotedCount(); got != 1 {
		var who []string
		for _, rep := range r.reps {
			if _, err := rep.Promoted(); err == nil {
				who = append(who, rep.cfg.ID)
			}
		}
		t.Fatalf("%d replicas promoted (%v), want exactly 1", got, who)
	}
	var winner *Replica
	for _, rep := range r.reps {
		if _, err := rep.Promoted(); err == nil {
			winner = rep
		}
	}
	ctrl, _ := winner.Promoted()
	if !ctrl.HasMember("m1") {
		t.Error("winner lost the replicated member")
	}
	if got := winner.Stats().Value(obs.MetricElections); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MetricElections, got)
	}
	for _, rep := range r.reps {
		if rep == winner {
			continue
		}
		rep.mu.Lock()
		adopted := rep.primaryID
		rep.mu.Unlock()
		if adopted != winner.cfg.ID {
			t.Errorf("%s still watches %q, want winner %q", rep.cfg.ID, adopted, winner.cfg.ID)
		}
	}
}

// TestElectionPrefersHigherLSN: a replica holding a longer replicated
// log must beat a peer with a higher ID but a shorter log.
func TestElectionPrefersHigherLSN(t *testing.T) {
	r := newElectionRig(t, 2, 60*time.Millisecond, nil)
	r.pushTo(0, 1, 6) // r0 is further ahead...
	r.pushTo(1, 1, 2) // ...than the higher-ID r1
	waitFor(t, "pushes", 5*time.Second, func() bool {
		return r.reps[0].AppliedLSN() == 8 && r.reps[1].AppliedLSN() == 4
	})
	waitFor(t, "r0 wins on LSN", 10*time.Second, func() bool {
		_, err := r.reps[0].Promoted()
		return err == nil
	})
	time.Sleep(150 * time.Millisecond)
	if _, err := r.reps[1].Promoted(); err == nil {
		t.Error("shorter-log replica promoted too")
	}
}

// TestNoQuorumNoPromotion: a candidate that cannot reach a quorum of its
// peers must never promote, however long the primary stays silent.
func TestNoQuorumNoPromotion(t *testing.T) {
	r := newElectionRig(t, 3, 60*time.Millisecond, nil)
	r.pushTo(0, 1, 1)
	waitFor(t, "push", 5*time.Second, lsnIs(r.reps[0], 3))
	// Kill both peers: r0 can campaign but never collect a second vote.
	r.net.Crash("r1")
	r.net.Crash("r2")
	time.Sleep(400 * time.Millisecond)
	if _, err := r.reps[0].Promoted(); err == nil {
		t.Error("promoted without a quorum")
	}
}
