package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mykil/internal/area"
	"mykil/internal/member"
)

// fastTiming returns options with millisecond-scale protocol timers so
// failure-detection scenarios complete quickly under the real clock.
func fastTiming(areas int) []Option {
	return []Option{
		WithAreas(areas),
		WithRSABits(512),
		WithTIdle(30 * time.Millisecond),
		WithTActive(60 * time.Millisecond),
		WithRekeyInterval(50 * time.Millisecond),
		WithVerifyTimeout(200 * time.Millisecond),
		WithHeartbeatEvery(30 * time.Millisecond),
		WithOpTimeout(5 * time.Second),
	}
}

// waitFor polls cond until true or the deadline passes.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitLeft blocks until controller acID no longer lists the member. A
// LeaveNotice and the next rejoin's verify request travel on different
// links; a verify that overtakes the notice is answered "still a member"
// and the move is denied.
func waitLeft(t *testing.T, g *Group, acID, memberID string) {
	t.Helper()
	waitFor(t, memberID+" to leave "+acID, 5*time.Second, func() bool {
		for i := 0; i < g.NumAreas(); i++ {
			if ACID(i) == acID && g.Controller(i).HasMember(memberID) {
				return false
			}
		}
		return true
	})
}

// collector accumulates delivered payloads.
type collector struct {
	mu   sync.Mutex
	msgs []string
}

func (c *collector) onData(payload []byte, origin string) {
	c.mu.Lock()
	c.msgs = append(c.msgs, origin+":"+string(payload))
	c.mu.Unlock()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *collector) has(msg string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.msgs {
		if m == msg {
			return true
		}
	}
	return false
}

func TestSingleAreaJoinAndMulticast(t *testing.T) {
	g, err := New(fastTiming(1)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer g.Close()

	var recv [3]collector
	var members [3]*member.Member
	for i := range members {
		m, err := g.AddMember(fmt.Sprintf("m%d", i), MemberConfig{OnData: recv[i].onData})
		if err != nil {
			t.Fatalf("AddMember %d: %v", i, err)
		}
		members[i] = m
	}
	if got := g.Controller(0).NumMembers(); got != 3 {
		t.Fatalf("controller members = %d, want 3", got)
	}
	for i, m := range members {
		if !m.Connected() {
			t.Fatalf("member %d not connected", i)
		}
	}

	if err := members[0].Send([]byte("hello group")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	waitFor(t, "delivery to m1", 5*time.Second, func() bool { return recv[1].has("m0:hello group") })
	waitFor(t, "delivery to m2", 5*time.Second, func() bool { return recv[2].has("m0:hello group") })
	// The sender must not hear its own message back.
	time.Sleep(50 * time.Millisecond)
	if recv[0].count() != 0 {
		t.Errorf("sender received its own multicast")
	}
}

func TestCrossAreaMulticast(t *testing.T) {
	g, err := New(fastTiming(3)...) // ac-0 root, ac-1 and ac-2 children
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer g.Close()

	// One member per area; round-robin assignment places m0->ac-0,
	// m1->ac-1, m2->ac-2.
	var recv [3]collector
	var members [3]*member.Member
	for i := range members {
		m, err := g.AddMember(fmt.Sprintf("m%d", i), MemberConfig{OnData: recv[i].onData})
		if err != nil {
			t.Fatalf("AddMember %d: %v", i, err)
		}
		members[i] = m
	}
	areas := map[string]bool{}
	for _, m := range members {
		areas[m.AreaID()] = true
	}
	if len(areas) != 3 {
		t.Fatalf("members spread over %d areas, want 3 (%v)", len(areas), areas)
	}

	// A message from the member in a leaf area must reach both other
	// areas (up through the root and down the other branch).
	if err := members[1].Send([]byte("cross")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	waitFor(t, "delivery to m0 (root area)", 5*time.Second, func() bool { return recv[0].has("m1:cross") })
	waitFor(t, "delivery to m2 (sibling area)", 5*time.Second, func() bool { return recv[2].has("m1:cross") })
}

func TestDeepAreaTreeMulticast(t *testing.T) {
	// Seven areas in a three-level tree (ac-0; ac-1, ac-2; ac-3..ac-6):
	// data from a grandchild area must climb two boundaries and descend
	// the other branch, re-encrypted at every crossing.
	g, err := New(fastTiming(7)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer g.Close()
	if err := g.WarmMemberKeys(7); err != nil {
		t.Fatalf("WarmMemberKeys: %v", err)
	}

	// Wait for the full area tree to assemble.
	waitFor(t, "area tree assembly", 10*time.Second, func() bool {
		for i := 1; i < 7; i++ {
			if g.Controller(i).ParentID() == "" {
				return false
			}
		}
		return true
	})

	var recv [7]collector
	var members [7]*member.Member
	for i := range members {
		m, err := g.AddMember(fmt.Sprintf("d%d", i), MemberConfig{OnData: recv[i].onData})
		if err != nil {
			t.Fatalf("AddMember %d: %v", i, err)
		}
		members[i] = m
	}
	// Round-robin puts d_i in area i: d3 lives in a grandchild area.
	if members[3].ControllerID() != ACID(3) {
		t.Fatalf("d3 on %s, want ac-3", members[3].ControllerID())
	}
	if err := members[3].Send([]byte("from the leaves")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	for i := 0; i < 7; i++ {
		if i == 3 {
			continue
		}
		i := i
		waitFor(t, fmt.Sprintf("delivery to d%d", i), 10*time.Second, func() bool {
			return recv[i].has("d3:from the leaves")
		})
	}
}

func TestTicketExpiryBlocksRejoin(t *testing.T) {
	g, err := New(append(fastTiming(2),
		WithAuthDB(map[string]time.Duration{"short": 300 * time.Millisecond}))...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer g.Close()

	m, err := g.AddMember("ephemeral", MemberConfig{AuthInfo: "short"})
	if err != nil {
		t.Fatalf("AddMember: %v", err)
	}
	home := m.ControllerID()
	var target string
	for _, e := range g.Directory() {
		if e.ID != home {
			target = e.ID
		}
	}
	if err := m.Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	time.Sleep(400 * time.Millisecond) // let the ticket expire
	err = m.Rejoin(target)
	if err == nil {
		t.Fatal("rejoin succeeded with an expired ticket")
	}
	// Depending on timing the controller answers with a denial or stays
	// silent (ticket rejected before a session forms); either way the
	// member is not admitted.
	if m.Connected() {
		t.Fatal("member connected despite expired ticket")
	}
}

func TestLeaveRevokesAccess(t *testing.T) {
	g, err := New(fastTiming(1)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer g.Close()

	var recvA, recvB, recvC collector
	ma, err := g.AddMember("ma", MemberConfig{OnData: recvA.onData})
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

	if err := mb.Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	waitFor(t, "controller to process leave", 5*time.Second, func() bool {
		return g.Controller(0).NumMembers() == 2
	})
	// Remaining members must converge to the post-leave epoch before the
	// next data packet, or they could not decrypt it.
	waitFor(t, "rekey to reach ma and mc", 5*time.Second, func() bool {
		return ma.Epoch() == g.Controller(0).Epoch() && mc.Epoch() == g.Controller(0).Epoch()
	})

	if err := ma.Send([]byte("post-leave")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	waitFor(t, "delivery to mc", 5*time.Second, func() bool { return recvC.has("ma:post-leave") })
	time.Sleep(50 * time.Millisecond)
	if recvB.count() != 0 {
		t.Errorf("departed member received %d post-leave messages (forward secrecy)", recvB.count())
	}
}

func TestLiveRekeyMatchesAnalysis(t *testing.T) {
	// Bridge the protocol and the analysis: after a deterministic member
	// sequence the controller's rekey-entry counter must equal the tree
	// arithmetic. Four sequential joins on an arity-4 tree put m0 at
	// child0 (displaced from the root) and m1..m3 at the other children;
	// m0's leave then changes only the root, encrypted under the three
	// occupied sibling leaves: exactly 3 entries.
	g, err := New(fastTiming(1)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer g.Close()
	for i := 0; i < 4; i++ {
		if _, err := g.AddMember(fmt.Sprintf("m%d", i), MemberConfig{}); err != nil {
			t.Fatalf("AddMember %d: %v", i, err)
		}
	}
	entriesBefore := g.Controller(0).Stats().Value(area.StatRekeyEntries)
	if err := g.Member("m0").Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	waitFor(t, "leave rekey", 5*time.Second, func() bool {
		return g.Controller(0).NumMembers() == 3
	})
	if got := g.Controller(0).Stats().Value(area.StatRekeyEntries) - entriesBefore; got != 3 {
		t.Errorf("live leave produced %d rekey entries, analysis predicts 3", got)
	}
}

func TestJoinDeniedBadAuth(t *testing.T) {
	g, err := New(fastTiming(1)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer g.Close()

	m, err := g.NewMember("intruder", MemberConfig{AuthInfo: "bogus"})
	if err != nil {
		t.Fatalf("NewMember: %v", err)
	}
	if err := m.Join(); !errors.Is(err, member.ErrDenied) {
		t.Errorf("Join with bad auth: err=%v, want ErrDenied", err)
	}
	if g.Controller(0).NumMembers() != 0 {
		t.Error("intruder was admitted")
	}
}

func TestBatchingFlushOnData(t *testing.T) {
	// An hour-long rekey interval: the flush must come from data, not timer.
	g, err := New(append(fastTiming(1), WithBatching(), WithRekeyInterval(time.Hour))...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer g.Close()

	// Under batching a blocking Join only completes at a flush; join the
	// first member asynchronously and force the flush.
	var recvA collector
	ma, err := g.NewMember("ma", MemberConfig{OnData: recvA.onData})
	if err != nil {
		t.Fatalf("NewMember ma: %v", err)
	}
	maJoin := make(chan error, 1)
	go func() { maJoin <- ma.Join() }()
	waitFor(t, "ma queued", 5*time.Second, func() bool { return g.Controller(0).PendingEvents() == 1 })
	g.Controller(0).FlushBatch()
	if err := <-maJoin; err != nil {
		t.Fatalf("ma join: %v", err)
	}

	// mb joins under batching: admission is deferred.
	joinDone := make(chan error, 1)
	mb, err := g.NewMember("mb", MemberConfig{})
	if err != nil {
		t.Fatalf("NewMember mb: %v", err)
	}
	go func() { joinDone <- mb.Join() }()
	waitFor(t, "mb queued", 5*time.Second, func() bool { return g.Controller(0).PendingEvents() == 1 })
	select {
	case err := <-joinDone:
		t.Fatalf("join completed before flush: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	// A data packet forces the flush (§III-E) and then delivers.
	if err := ma.Send([]byte("trigger")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := <-joinDone; err != nil {
		t.Fatalf("mb join after flush: %v", err)
	}
	if g.Controller(0).PendingEvents() != 0 {
		t.Error("pending events not flushed by data")
	}
	waitFor(t, "mb receives subsequent data", 5*time.Second, func() bool {
		if err := ma.Send([]byte("after")); err != nil {
			return false
		}
		return mb.Received() > 0
	})
}

func TestBatchingFlushOnTimer(t *testing.T) {
	g, err := New(append(fastTiming(1), WithBatching(), WithRekeyInterval(80*time.Millisecond))...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer g.Close()

	m, err := g.NewMember("m0", MemberConfig{})
	if err != nil {
		t.Fatalf("NewMember: %v", err)
	}
	// No data traffic at all: the rekey-interval timer must flush the
	// pending admission.
	if err := m.Join(); err != nil {
		t.Fatalf("Join (timer flush): %v", err)
	}
}

func TestMemberEvictionOnSilence(t *testing.T) {
	g, err := New(fastTiming(1)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer g.Close()

	m, err := g.AddMember("quiet", MemberConfig{})
	if err != nil {
		t.Fatalf("AddMember: %v", err)
	}
	if got := g.Controller(0).NumMembers(); got != 1 {
		t.Fatalf("members = %d", got)
	}
	// Kill the member silently (no LeaveNotice): crash its node.
	g.Net.Crash("quiet")
	m.Close()

	// 5×TActive = 300ms; the controller must evict within a few sweeps.
	waitFor(t, "silent member eviction", 5*time.Second, func() bool {
		return g.Controller(0).NumMembers() == 0
	})
}

func TestTicketRejoinToAnotherArea(t *testing.T) {
	g, err := New(fastTiming(2)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer g.Close()

	m, err := g.AddMember("roamer", MemberConfig{})
	if err != nil {
		t.Fatalf("AddMember: %v", err)
	}
	firstAC := m.ControllerID()
	var target string
	for _, e := range g.Directory() {
		if e.ID != firstAC {
			target = e.ID
			break
		}
	}

	// Tell the old controller we are leaving, then rejoin the new area
	// with the ticket only — no registration server involved.
	if err := m.Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	waitLeft(t, g, firstAC, "roamer")
	rsJoins := g.RS.Joins()
	if err := m.Rejoin(target); err != nil {
		t.Fatalf("Rejoin: %v", err)
	}
	if m.ControllerID() != target {
		t.Errorf("rejoined to %s, want %s", m.ControllerID(), target)
	}
	if g.RS.Joins() != rsJoins {
		t.Error("rejoin involved the registration server")
	}
}

func TestRejoinDeniedWhileStillMember(t *testing.T) {
	// The §IV-B anti-cohort check: a ticket whose holder is still an
	// active member of its old area must be rejected elsewhere.
	g, err := New(fastTiming(2)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer g.Close()

	m, err := g.AddMember("cohort", MemberConfig{})
	if err != nil {
		t.Fatalf("AddMember: %v", err)
	}
	firstAC := m.ControllerID()
	var target string
	for _, e := range g.Directory() {
		if e.ID != firstAC {
			target = e.ID
			break
		}
	}
	// Keep the membership alive (member loop sends alives) and attempt a
	// second concurrent membership via rejoin.
	err = m.Rejoin(target)
	if !errors.Is(err, member.ErrDenied) {
		t.Errorf("concurrent rejoin: err=%v, want ErrDenied", err)
	}
}

func TestAutoRejoinAfterPartition(t *testing.T) {
	g, err := New(append(fastTiming(2), WithPolicy(area.AdmitOnPartition))...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer g.Close()

	m, err := g.AddMember("mobile", MemberConfig{AutoRejoin: true})
	if err != nil {
		t.Fatalf("AddMember: %v", err)
	}
	firstAC := m.ControllerID()

	// Partition the member away from its controller only; it can still
	// reach the other controller.
	g.Net.SetPartitions([]string{firstAC})
	waitFor(t, "member to detect disconnect and rejoin", 10*time.Second, func() bool {
		return m.Connected() && m.ControllerID() != firstAC
	})
}

func TestControllerFailover(t *testing.T) {
	g, err := New(append(fastTiming(1), WithReplicas(1), WithJournal(t.TempDir(), "never"))...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer g.Close()

	var recvB collector
	ma, err := g.AddMember("ma", MemberConfig{})
	if err != nil {
		t.Fatalf("AddMember: %v", err)
	}
	mb, err := g.AddMember("mb", MemberConfig{OnData: recvB.onData})
	if err != nil {
		t.Fatalf("AddMember: %v", err)
	}
	backup := g.Replica(0, 0)
	waitFor(t, "replica to absorb both joins", 5*time.Second, func() bool {
		return backup.AppliedLSN() == g.Controller(0).JournalLSN()
	})

	// Crash the primary; the backup must take over and members must
	// keep exchanging data through it.
	g.Net.Crash(ACAddr(0))
	waitFor(t, "backup promotion", 10*time.Second, func() bool {
		_, err := backup.Promoted()
		return err == nil
	})
	waitFor(t, "members to switch to the backup", 10*time.Second, func() bool {
		return ma.ControllerID() != ACID(0) && mb.ControllerID() != ACID(0)
	})
	waitFor(t, "data flows through the backup", 10*time.Second, func() bool {
		if err := ma.Send([]byte("via backup")); err != nil {
			return false
		}
		return recvB.has("ma:via backup")
	})
}

// TestReplicasNeedJournal: replicas follow their controller's journal;
// there is no second protocol to fall back to without one.
func TestReplicasNeedJournal(t *testing.T) {
	g, err := New(append(fastTiming(1), WithReplicas(1))...)
	if err == nil {
		g.Close()
		t.Fatal("New accepted replicas without a journal")
	}
}

func TestReparentAfterParentFailure(t *testing.T) {
	g, err := New(fastTiming(3)...) // ac-0 root; ac-1, ac-2 its children
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer g.Close()

	waitFor(t, "initial parenting", 5*time.Second, func() bool {
		return g.Controller(1).ParentID() == ACID(0) && g.Controller(2).ParentID() == ACID(0)
	})

	// Kill the root; ac-1 and ac-2 must adopt new parents from their
	// preferred lists (each other).
	g.Net.Crash(ACAddr(0))
	waitFor(t, "re-parenting away from the dead root", 10*time.Second, func() bool {
		p1, p2 := g.Controller(1).ParentID(), g.Controller(2).ParentID()
		return p1 != ACID(0) && p2 != ACID(0) && (p1 != "" || p2 != "")
	})
}

func TestEpochGapRecovery(t *testing.T) {
	g, err := New(fastTiming(1)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer g.Close()
	// Pre-generate keys so the partition below lasts only as long as the
	// join handshakes: ma must stay under the 5×T_idle silence threshold
	// (it has no AutoRejoin) or it would detach for good.
	if err := g.WarmMemberKeys(6); err != nil {
		t.Fatalf("WarmMemberKeys: %v", err)
	}

	ma, err := g.AddMember("ma", MemberConfig{})
	if err != nil {
		t.Fatalf("AddMember: %v", err)
	}
	if _, err := g.AddMember("mb", MemberConfig{}); err != nil {
		t.Fatalf("AddMember: %v", err)
	}

	// Drop every frame to ma while churn advances the epoch, then heal:
	// ma must detect the gap and recover via a path request.
	g.Net.SetPartitions([]string{"ma"})
	for i := 0; i < 3; i++ {
		if _, err := g.AddMember(fmt.Sprintf("extra%d", i), MemberConfig{}); err != nil {
			t.Fatalf("AddMember extra%d: %v", i, err)
		}
	}
	g.Net.Heal()
	waitFor(t, "ma to converge after gap", 10*time.Second, func() bool {
		return ma.Connected() && ma.Epoch() == g.Controller(0).Epoch()
	})
}

func TestManyMembersChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("churn test in -short mode")
	}
	g, err := New(fastTiming(2)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer g.Close()
	if err := g.WarmMemberKeys(16); err != nil {
		t.Fatalf("WarmMemberKeys: %v", err)
	}

	var members []*member.Member
	for i := 0; i < 16; i++ {
		m, err := g.AddMember(fmt.Sprintf("m%d", i), MemberConfig{})
		if err != nil {
			t.Fatalf("AddMember %d: %v", i, err)
		}
		members = append(members, m)
	}
	for i := 0; i < 16; i += 3 {
		if err := members[i].Leave(); err != nil {
			t.Fatalf("Leave %d: %v", i, err)
		}
	}
	total := func() int {
		return g.Controller(0).NumMembers() + g.Controller(1).NumMembers() - countChildACs(g)
	}
	waitFor(t, "membership to settle at 10", 10*time.Second, func() bool { return total() == 10 })

	// Everyone still attached must share their controller's epoch.
	waitFor(t, "epochs to converge", 10*time.Second, func() bool {
		for _, m := range members {
			if !m.Connected() {
				continue
			}
			var ctl *area.Controller
			for i := 0; i < g.NumAreas(); i++ {
				if ACID(i) == m.ControllerID() {
					ctl = g.Controller(i)
				}
			}
			if ctl == nil || m.Epoch() != ctl.Epoch() {
				return false
			}
		}
		return true
	})
}

// countChildACs counts controller-as-member entries, which inflate
// NumMembers in multi-area groups.
func countChildACs(g *Group) int {
	n := 0
	for i := 0; i < g.NumAreas(); i++ {
		for j := 0; j < g.NumAreas(); j++ {
			if g.Controller(i).HasMember(ACID(j)) {
				n++
			}
		}
	}
	return n
}
