package core

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mykil/internal/area"
	"mykil/internal/crypt"
	"mykil/internal/member"
	"mykil/internal/obs"
)

// promotedReplicas lists the replicas of area i that promoted a
// controller.
func promotedReplicas(g *Group, i int) []*area.Controller {
	var out []*area.Controller
	for r := 0; r < g.ReplicasPerArea(); r++ {
		if ctrl, err := g.Replica(i, r).Promoted(); err == nil {
			out = append(out, ctrl)
		}
	}
	return out
}

// replicasCaughtUp reports whether every replica of area i that has not
// itself promoted holds the whole journal of the controller serving it.
func replicasCaughtUp(g *Group, i int, serving *area.Controller) bool {
	want := serving.JournalLSN()
	for r := 0; r < g.ReplicasPerArea(); r++ {
		rep := g.Replica(i, r)
		if _, err := rep.Promoted(); err != nil && rep.AppliedLSN() != want {
			return false
		}
	}
	return true
}

// TestQuorumElectionAfterLeaderKill: three replicas follow a journaled
// primary via segment replication; killing the primary must elect
// exactly one of them, which restores the area from its replicated
// journal — byte-identical tree keys, so the members re-attach through
// the failover announcement without a single ticket rejoin.
func TestQuorumElectionAfterLeaderKill(t *testing.T) {
	g, err := New(append(journalTiming(t.TempDir()), WithReplicas(3))...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer g.Close()
	if got := g.ReplicasPerArea(); got != 3 {
		t.Fatalf("ReplicasPerArea = %d, want 3", got)
	}

	var recvB collector
	ma, err := g.AddMember("ma", MemberConfig{AutoRejoin: true})
	if err != nil {
		t.Fatalf("AddMember: %v", err)
	}
	mb, err := g.AddMember("mb", MemberConfig{OnData: recvB.onData, AutoRejoin: true})
	if err != nil {
		t.Fatalf("AddMember: %v", err)
	}

	// Every replica must hold the whole journal before the kill, or the
	// test races the segment pulls.
	primary := g.Controller(0)
	waitFor(t, "replicas to absorb the journal", 10*time.Second, func() bool {
		return replicasCaughtUp(g, 0, primary)
	})
	if n := primary.Stats().Value(obs.MetricReplBytes); n <= 0 {
		t.Errorf("primary counted %d replication bytes with every replica caught up", n)
	}

	// The crash only cuts the primary off the network, so read where it
	// stood before it starts evicting silent members.
	epoch, members := primary.Epoch(), primary.MemberIDs()
	g.Net.Crash(ACAddr(0))
	waitFor(t, "quorum promotion", 10*time.Second, func() bool {
		return len(promotedReplicas(g, 0)) >= 1
	})
	// Let any racing second candidacy play out, then demand a single
	// winner.
	time.Sleep(300 * time.Millisecond)
	winners := promotedReplicas(g, 0)
	if len(winners) != 1 {
		t.Fatalf("%d replicas promoted, want exactly 1", len(winners))
	}
	promoted := winners[0]
	if got := promoted.Epoch(); got != epoch {
		t.Errorf("winner serves epoch %d, primary died at %d", got, epoch)
	}
	if got := promoted.MemberIDs(); !reflect.DeepEqual(got, members) {
		t.Errorf("winner serves members %v, primary had %v", got, members)
	}

	waitFor(t, "members to follow the failover", 10*time.Second, func() bool {
		return ma.ControllerID() != ACID(0) && mb.ControllerID() != ACID(0) &&
			ma.Connected() && mb.Connected()
	})
	waitFor(t, "data to flow through the new leader", 10*time.Second, func() bool {
		if err := ma.Send([]byte("post-election")); err != nil {
			return false
		}
		return recvB.has("ma:post-election")
	})

	// The journal replay regenerated the tree keys byte-for-byte: the
	// members' cached views still decrypt, so nobody had to rejoin.
	if got := promoted.Stats().Value(area.StatRejoins); got != 0 {
		t.Errorf("promoted controller counted %d rejoins, want 0", got)
	}
	var elections int64
	for r := 0; r < 3; r++ {
		elections += g.Replica(0, r).Stats().Value(obs.MetricElections)
	}
	if elections != 1 {
		t.Errorf("replica set counted %d elections won, want 1", elections)
	}
}

// TestSecondFailoverKeepsEpoch: an election winner continues the log it
// replicated, so what it does after taking over — here a member's leave —
// reaches the surviving replicas, and a second failover restores the
// first winner's area, not the long-dead primary's. DESIGN §8 obligation
// 7: no failover sequence lowers an area's epoch or restores a departed
// member. (Before the winner journaled, the second winner came back at
// the original primary's epoch with the leaver re-admitted and its
// retained keys valid again.)
//
// Nothing refreshes the registration server's directory after a
// failover, so a fresh join cannot reach a promoted controller yet; the
// leave alone is the post-failover membership change.
func TestSecondFailoverKeepsEpoch(t *testing.T) {
	g, err := New(append(journalTiming(t.TempDir()), WithReplicas(3))...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer g.Close()

	var recvB, recvC collector
	ma, err := g.AddMember("ma", MemberConfig{})
	if err != nil {
		t.Fatalf("AddMember: %v", err)
	}
	mb, err := g.AddMember("mb", MemberConfig{OnData: recvB.onData})
	if err != nil {
		t.Fatalf("AddMember: %v", err)
	}
	mc, err := g.AddMember("mc", MemberConfig{OnData: recvC.onData})
	if err != nil {
		t.Fatalf("AddMember: %v", err)
	}
	primary := g.Controller(0)
	waitFor(t, "replicas to absorb the journal", 10*time.Second, func() bool {
		return replicasCaughtUp(g, 0, primary)
	})

	// First failover. The crash only cuts the primary off the network,
	// so read where it stood before it starts evicting silent members.
	deadEpoch, deadLSN := primary.Epoch(), primary.JournalLSN()
	g.Net.Crash(ACAddr(0))
	waitFor(t, "first promotion", 10*time.Second, func() bool {
		return len(promotedReplicas(g, 0)) >= 1
	})
	first := promotedReplicas(g, 0)[0]
	firstIdx := -1
	for r := 0; r < 3; r++ {
		if ctrl, err := g.Replica(0, r).Promoted(); err == nil && ctrl == first {
			firstIdx = r
		}
	}
	waitFor(t, "members to follow the first failover", 10*time.Second, func() bool {
		for _, m := range []*member.Member{ma, mb, mc} {
			if m.ControllerID() == ACID(0) || !m.Connected() {
				return false
			}
		}
		return true
	})

	// The membership changes at the winner: mb leaves, the area rekeys.
	if err := mb.Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	waitFor(t, "the winner to process the leave", 5*time.Second, func() bool {
		return first.NumMembers() == 2 && ma.Epoch() == first.Epoch() && mc.Epoch() == first.Epoch()
	})
	epoch, members := first.Epoch(), first.MemberIDs()
	if epoch <= deadEpoch {
		t.Fatalf("leave at the winner left epoch %d, dead primary stopped at %d", epoch, deadEpoch)
	}
	// The survivors follow the winner's journal past the dead primary's
	// last record.
	waitFor(t, "survivors to absorb the winner's journal", 10*time.Second, func() bool {
		return replicasCaughtUp(g, 0, first)
	})
	if got := first.JournalLSN(); got <= deadLSN {
		t.Fatalf("winner's journal at LSN %d did not continue past the dead primary's %d", got, deadLSN)
	}

	// Second failover.
	g.Net.Crash(ReplicaAddr(0, firstIdx))
	waitFor(t, "second promotion", 10*time.Second, func() bool {
		return len(promotedReplicas(g, 0)) >= 2
	})
	time.Sleep(300 * time.Millisecond)
	winners := promotedReplicas(g, 0)
	if len(winners) != 2 {
		t.Fatalf("%d replicas promoted over two failovers, want exactly 2", len(winners))
	}
	second := winners[0]
	if second == first {
		second = winners[1]
	}
	if got := second.Epoch(); got != epoch {
		t.Errorf("second winner serves epoch %d, first winner died at %d", got, epoch)
	}
	if got := second.MemberIDs(); !reflect.DeepEqual(got, members) {
		t.Errorf("second winner serves members %v, first winner had %v", got, members)
	}
	if second.HasMember("mb") {
		t.Error("second winner re-admitted the member that left at the first winner")
	}

	// Members verify takeover notices against the first replica's key
	// (the one their welcomes advertised), so they can only follow the
	// second failover when that replica is alive to vouch for it.
	if firstIdx == 0 {
		t.Log("the announcer replica won the first election; skipping the data check")
		return
	}
	waitFor(t, "data to flow through the second winner", 10*time.Second, func() bool {
		if err := ma.Send([]byte("post-second-failover")); err != nil {
			return false
		}
		return recvC.has("ma:post-second-failover")
	})
	time.Sleep(50 * time.Millisecond)
	if n := recvB.count(); n != 0 {
		t.Errorf("departed member opened %d messages sent after the second failover (forward secrecy)", n)
	}
	if got := second.Stats().Value(area.StatRejoins); got != 0 {
		t.Errorf("second winner counted %d rejoins, want 0", got)
	}
}

// TestAreaSplitOnWatermark: the seventh member pushes area-0 over the
// split watermark; the upper half of the sorted membership must migrate
// to an automatically spawned sibling and the multicast group must stay
// whole across the new area boundary.
func TestAreaSplitOnWatermark(t *testing.T) {
	g, err := New(append(fastTiming(1), WithAreaWatermarks(6, 0))...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer g.Close()

	const n = 7
	recv := make([]*collector, n)
	members := make([]*member.Member, n)
	for i := 0; i < n; i++ {
		recv[i] = &collector{}
		m, err := g.AddMember(fmt.Sprintf("m%d", i), MemberConfig{OnData: recv[i].onData})
		if err != nil {
			t.Fatalf("AddMember %d: %v", i, err)
		}
		members[i] = m
	}

	waitFor(t, "watermark split to spawn a sibling", 10*time.Second, func() bool {
		return len(g.Directory()) == 2
	})
	// Upper half of the sorted IDs m0..m6: m4, m5, m6.
	waitFor(t, "migration of the upper half", 15*time.Second, func() bool {
		for i := 4; i < n; i++ {
			if members[i].ControllerID() != ACID(1) || !members[i].Connected() {
				return false
			}
		}
		return true
	})
	for i := 0; i < 4; i++ {
		if got := members[i].ControllerID(); got != ACID(0) {
			t.Errorf("m%d moved to %s, want to stay on %s", i, got, ACID(0))
		}
	}

	// A migrated member multicasts; everyone — old area and new — must
	// decrypt it with their post-split keys.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if err := members[4].Send([]byte("post-split")); err != nil {
			t.Logf("send: %v", err)
		}
		ok := true
		for i := 0; i < n; i++ {
			if i != 4 && !recv[i].has("m4:post-split") {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			for i := 0; i < n; i++ {
				t.Logf("m%d: ctrl=%s area=%s connected=%v got=%v", i,
					members[i].ControllerID(), members[i].AreaID(), members[i].Connected(), recv[i].has("m4:post-split"))
			}
			t.Fatal("timed out waiting for post-split multicast delivery")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestAreaMergeOnWatermark: after a watermark split, enough migrants
// leave that the sibling sinks under the merge watermark; it must drain
// its remnant back into its parent and retire, restoring the single-area
// topology.
func TestAreaMergeOnWatermark(t *testing.T) {
	g, err := New(append(fastTiming(1), WithAreaWatermarks(6, 3))...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer g.Close()

	const n = 7
	recv := make([]*collector, n)
	members := make([]*member.Member, n)
	for i := 0; i < n; i++ {
		recv[i] = &collector{}
		m, err := g.AddMember(fmt.Sprintf("m%d", i), MemberConfig{OnData: recv[i].onData})
		if err != nil {
			t.Fatalf("AddMember %d: %v", i, err)
		}
		members[i] = m
	}
	waitFor(t, "watermark split", 10*time.Second, func() bool {
		return len(g.Directory()) == 2
	})
	waitFor(t, "migration to the sibling", 15*time.Second, func() bool {
		for i := 4; i < n; i++ {
			if members[i].ControllerID() != ACID(1) || !members[i].Connected() {
				return false
			}
		}
		return true
	})

	// Two of the three migrants leave: the sibling dips under the merge
	// watermark and folds its last member back into the parent.
	if err := members[4].Leave(); err != nil {
		t.Fatalf("Leave m4: %v", err)
	}
	if err := members[5].Leave(); err != nil {
		t.Fatalf("Leave m5: %v", err)
	}
	waitFor(t, "sibling retirement", 15*time.Second, func() bool {
		return len(g.Directory()) == 1
	})
	waitFor(t, "remnant back on the parent", 15*time.Second, func() bool {
		return members[6].ControllerID() == ACID(0) && members[6].Connected()
	})
	waitFor(t, "post-merge multicast delivery", 15*time.Second, func() bool {
		if err := members[6].Send([]byte("post-merge")); err != nil {
			return false
		}
		for i := 0; i < 4; i++ {
			if !recv[i].has("m6:post-merge") {
				return false
			}
		}
		return true
	})
}

// TestSplitTwoThousandMembers is the acceptance-scale split: a
// 2000-member area crosses the watermark, exactly the upper thousand
// migrate to the sibling, and multicasts from both sides of the new
// boundary reach the whole group — every migrated member decrypts the
// post-split rekeys.
func TestSplitTwoThousandMembers(t *testing.T) {
	if testing.Short() {
		t.Skip("2k-member split soak; skipped with -short")
	}
	const population = 2000
	pool, err := crypt.NewKeyPool(32, 512, 7)
	if err != nil {
		t.Fatalf("NewKeyPool: %v", err)
	}
	g, err := New(
		WithAreas(1),
		WithRSABits(512),
		WithTestKeyPool(pool),
		WithBatching(),
		WithTIdle(2*time.Second),
		WithTActive(time.Second),
		WithRekeyInterval(time.Second),
		WithVerifyTimeout(5*time.Second),
		WithHeartbeatEvery(250*time.Millisecond),
		WithOpTimeout(3*time.Minute),
		WithAreaWatermarks(population-1, 0),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer g.Close()

	var delivered atomic.Int64
	members := make([]*member.Member, population)
	var (
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
	)
	sem := make(chan struct{}, 32)
	for i := 0; i < population; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			m, err := g.AddMember(fmt.Sprintf("m%04d", i), MemberConfig{
				OnData: func([]byte, string) { delivered.Add(1) },
			})
			if err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("m%04d: %w", i, err))
				mu.Unlock()
				return
			}
			members[i] = m
		}(i)
	}
	wg.Wait()
	if len(errs) > 0 {
		t.Fatalf("%d joins failed; first: %v", len(errs), errs[0])
	}

	waitFor(t, "watermark split at 2000 members", 60*time.Second, func() bool {
		return len(g.Directory()) == 2
	})
	// The deterministic partition moves exactly the upper half of the
	// sorted IDs: m1000..m1999.
	waitFor(t, "migration of the upper thousand", 120*time.Second, func() bool {
		for i := population / 2; i < population; i++ {
			if members[i].ControllerID() != ACID(1) || !members[i].Connected() {
				return false
			}
		}
		return true
	})
	for i := 0; i < population/2; i++ {
		if got := members[i].ControllerID(); got != ACID(0) {
			t.Fatalf("m%04d moved to %s, want to stay on %s", i, got, ACID(0))
		}
	}

	// One multicast from each side of the split boundary: 2×1999
	// deliveries proves every member — migrated or not — holds working
	// post-split keys.
	base := delivered.Load()
	if err := members[1500].Send([]byte("from the new area")); err != nil {
		t.Fatalf("Send from migrant: %v", err)
	}
	if err := members[1].Send([]byte("from the old area")); err != nil {
		t.Fatalf("Send from remainer: %v", err)
	}
	want := base + 2*(population-1)
	waitFor(t, "full-group delivery across the split", 120*time.Second, func() bool {
		return delivered.Load() >= want
	})
}
