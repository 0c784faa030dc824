package keytree

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"mykil/internal/crypt"
)

// areaSim drives a Tree and a full set of MemberViews the way an area
// controller and its members would: every BatchResult's multicast goes to
// all current members, Joined/Displaced path keys arrive by unicast, and
// departed members keep their stale views (the adversary's vantage point
// for the secrecy tests).
type areaSim struct {
	t        *testing.T
	tree     *Tree
	views    map[MemberID]*MemberView
	departed map[MemberID]*MemberView
	updates  []*KeyUpdate // full multicast history, for backward-secrecy checks
	enc      Encryptor
}

func newAreaSim(t *testing.T, cfg Config) *areaSim {
	if cfg.Encryptor == nil {
		cfg.Encryptor = NewSuiteEncryptor(nil)
	}
	return &areaSim{
		t:        t,
		tree:     New(cfg),
		views:    make(map[MemberID]*MemberView),
		departed: make(map[MemberID]*MemberView),
		updates:  nil,
		enc:      cfg.Encryptor,
	}
}

func (s *areaSim) batch(joins, leaves []MemberID) *BatchResult {
	s.t.Helper()
	res, err := s.tree.Batch(joins, leaves)
	if err != nil {
		s.t.Fatalf("Batch(%v, %v): %v", joins, leaves, err)
	}
	s.updates = append(s.updates, res.Update)

	// Members that left stop receiving; their stale views persist.
	for _, m := range leaves {
		s.departed[m] = s.views[m]
		delete(s.views, m)
	}
	// Remaining members that got no unicast apply the multicast.
	for m, v := range s.views {
		if _, ok := res.Displaced[m]; ok {
			continue
		}
		if _, err := v.Apply(res.Update); err != nil {
			s.t.Fatalf("member %s applying update: %v", m, err)
		}
	}
	for m, pk := range res.Displaced {
		s.views[m].Rebase(pk, res.Epoch)
	}
	for m, pk := range res.Joined {
		s.views[m] = NewMemberView(pk, res.Epoch, s.enc)
	}
	return res
}

// checkSync asserts every current member's area key matches the tree's.
func (s *areaSim) checkSync() {
	s.t.Helper()
	for m, v := range s.views {
		if !v.AreaKey().Equal(s.tree.AreaKey()) {
			s.t.Fatalf("member %s area key out of sync at epoch %d", m, s.tree.Epoch())
		}
		if v.Epoch() != s.tree.Epoch() {
			s.t.Fatalf("member %s epoch %d, tree %d", m, v.Epoch(), s.tree.Epoch())
		}
	}
}

func TestViewsTrackTreeThroughChurn(t *testing.T) {
	s := newAreaSim(t, Config{Arity: 4})
	for i := 0; i < 20; i++ {
		s.batch([]MemberID{mid(i)}, nil)
		s.checkSync()
	}
	for i := 0; i < 10; i += 2 {
		s.batch(nil, []MemberID{mid(i)})
		s.checkSync()
	}
	s.batch([]MemberID{mid(100), mid(101), mid(102)}, []MemberID{mid(1), mid(3)})
	s.checkSync()
}

func TestViewsTrackTreeRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := newAreaSim(t, Config{Arity: 2})
	next := 0
	current := make([]MemberID, 0, 64)
	for step := 0; step < 120; step++ {
		var joins, leaves []MemberID
		nJoin := rng.Intn(3)
		if len(current) == 0 {
			nJoin = 1 + rng.Intn(3)
		}
		for i := 0; i < nJoin; i++ {
			joins = append(joins, mid(next))
			next++
		}
		nLeave := 0
		if len(current) > 2 {
			nLeave = rng.Intn(3)
		}
		for i := 0; i < nLeave; i++ {
			idx := rng.Intn(len(current))
			leaves = append(leaves, current[idx])
			current = append(current[:idx], current[idx+1:]...)
		}
		if len(joins) == 0 && len(leaves) == 0 {
			continue
		}
		s.batch(joins, leaves)
		current = append(current, joins...)
		s.checkSync()
	}
}

func TestForwardSecrecy(t *testing.T) {
	// §II property 4: after leaving, a member's retained keys decrypt no
	// subsequent rekey entry, so it can never learn a newer area key.
	s := newAreaSim(t, Config{Arity: 2})
	for i := 0; i < 8; i++ {
		s.batch([]MemberID{mid(i)}, nil)
	}
	s.batch(nil, []MemberID{mid(3)})
	leaver := s.departed[mid(3)]
	oldAreaKey := leaver.AreaKey()
	if oldAreaKey.Equal(s.tree.AreaKey()) {
		t.Fatal("area key did not change on leave")
	}

	// Run more churn; the leaver watches every multicast.
	s.batch([]MemberID{mid(100)}, nil)
	s.batch(nil, []MemberID{mid(5)})
	for _, u := range s.updates[len(s.updates)-3:] {
		for _, e := range u.Entries {
			for _, pk := range leaver.PathKeys() {
				if _, err := s.enc.DecryptKey(pk.Key, e.Ciphertext); err == nil {
					t.Fatalf("leaver's key for node %d decrypts entry (%d under %d): forward secrecy broken",
						pk.Node, e.Node, e.Under)
				}
			}
		}
	}
}

func TestBackwardSecrecy(t *testing.T) {
	// §II property 3: a new member's keys decrypt no earlier rekey entry,
	// so it cannot recover previous area keys from recorded traffic.
	s := newAreaSim(t, Config{Arity: 2})
	for i := 0; i < 8; i++ {
		s.batch([]MemberID{mid(i)}, nil)
	}
	s.batch(nil, []MemberID{mid(2)})
	history := make([]*KeyUpdate, len(s.updates))
	copy(history, s.updates)

	s.batch([]MemberID{"late-joiner"}, nil)
	joiner := s.views["late-joiner"]
	for _, u := range history {
		for _, e := range u.Entries {
			for _, pk := range joiner.PathKeys() {
				if _, err := s.enc.DecryptKey(pk.Key, e.Ciphertext); err == nil {
					t.Fatalf("joiner's key for node %d decrypts pre-join entry (%d under %d): backward secrecy broken",
						pk.Node, e.Node, e.Under)
				}
			}
		}
	}
}

func TestGroupKeySecrecyOutsider(t *testing.T) {
	// §II property 2: an outsider holding every multicast but no keys has
	// nothing to decrypt with — every entry is sealed. Verify entries are
	// real ciphertexts: random keys fail to open them.
	s := newAreaSim(t, Config{Arity: 2})
	for i := 0; i < 6; i++ {
		s.batch([]MemberID{mid(i)}, nil)
	}
	s.batch(nil, []MemberID{mid(1)})
	for _, u := range s.updates {
		for _, e := range u.Entries {
			for trial := 0; trial < 3; trial++ {
				if _, err := s.enc.DecryptKey(crypt.NewSymKey(), e.Ciphertext); err == nil {
					t.Fatal("random key opened a rekey entry")
				}
			}
		}
	}
}

func TestDepartedViewCannotFollow(t *testing.T) {
	s := newAreaSim(t, Config{Arity: 2})
	for i := 0; i < 8; i++ {
		s.batch([]MemberID{mid(i)}, nil)
	}
	res := s.batch(nil, []MemberID{mid(0)})
	leaver := s.departed[mid(0)]
	// The leaver replays the multicast it can still observe.
	updated, err := leaver.Apply(res.Update)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if updated != 0 {
		t.Fatalf("leaver updated %d keys from post-leave rekey", updated)
	}
	if leaver.AreaKey().Equal(s.tree.AreaKey()) {
		t.Fatal("leaver derived the new area key")
	}
}

func TestApplyStaleAndGapDetection(t *testing.T) {
	s := newAreaSim(t, Config{Arity: 2})
	s.batch([]MemberID{"a"}, nil)
	s.batch([]MemberID{"b"}, nil)
	v := s.views["a"]

	res1 := s.batch([]MemberID{"c"}, nil) // v applied it inside batch()
	if _, err := v.Apply(res1.Update); !errors.Is(err, ErrStale) {
		t.Errorf("re-apply: err=%v, want ErrStale", err)
	}

	// Simulate a partition: "a" misses one update, then receives the next.
	res2, err := s.tree.Batch([]MemberID{"d"}, nil)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	res3, err := s.tree.Batch([]MemberID{"e"}, nil)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	_ = res2 // dropped by the partition
	if _, err := v.Apply(res3.Update); !errors.Is(err, ErrEpochGap) {
		t.Errorf("gap apply: err=%v, want ErrEpochGap", err)
	}
}

func TestViewStorageMatchesPaper(t *testing.T) {
	// §V-A: a member stores one key per path level. In a 5000-member
	// binary-depth area the paper counts ~11-12 keys (they round to 12
	// path keys at 16 bytes: 176-192 B).
	s := newAreaSim(t, Config{Arity: 2, Encryptor: AccountingEncryptor{}})
	var members []MemberID
	for i := 0; i < 512; i++ {
		members = append(members, mid(i))
	}
	if _, err := s.tree.BatchJoin(members); err != nil {
		t.Fatalf("BatchJoin: %v", err)
	}
	pks, err := s.tree.PathKeys(mid(100))
	if err != nil {
		t.Fatalf("PathKeys: %v", err)
	}
	if got := len(pks); got != 10 { // 512 = 2^9 members -> depth 9 -> 10 path keys
		t.Errorf("path keys = %d, want 10 for complete 512-member binary tree", got)
	}
}

func TestCPUUpdateDistribution(t *testing.T) {
	// §V-B: on one leave in a binary tree, ~half the members update one
	// key, a quarter two keys, etc.
	tr := New(Config{Arity: 2, Encryptor: AccountingEncryptor{}})
	const n = 256
	var members []MemberID
	for i := 0; i < n; i++ {
		members = append(members, mid(i))
	}
	if _, err := tr.BatchJoin(members); err != nil {
		t.Fatalf("BatchJoin: %v", err)
	}
	res, err := tr.Leave(mid(0))
	if err != nil {
		t.Fatalf("Leave: %v", err)
	}
	changed := make(map[NodeID]bool)
	for _, e := range res.Update.Entries {
		changed[e.Node] = true
	}
	counts := make(map[int]int)
	for _, m := range tr.Members() {
		ids, err := tr.PathNodeIDs(m)
		if err != nil {
			t.Fatalf("PathNodeIDs: %v", err)
		}
		k := 0
		for _, id := range ids {
			if changed[id] {
				k++
			}
		}
		counts[k]++
	}
	// Complete binary tree of 256: depth 8. Members in the far half of
	// the root update 1 key (128 members), next quarter 2 keys, etc.
	if counts[1] != 128 {
		t.Errorf("members updating 1 key = %d, want 128 (%v)", counts[1], counts)
	}
	if counts[2] != 64 {
		t.Errorf("members updating 2 keys = %d, want 64 (%v)", counts[2], counts)
	}
	if counts[3] != 32 {
		t.Errorf("members updating 3 keys = %d, want 32 (%v)", counts[3], counts)
	}
}

func TestApplyReportsUpdateCounts(t *testing.T) {
	// The member-side Apply count should equal the path-intersection
	// count used in the CPU experiment.
	s := newAreaSim(t, Config{Arity: 2})
	for i := 0; i < 16; i++ {
		s.batch([]MemberID{mid(i)}, nil)
	}
	res, err := s.tree.Batch(nil, []MemberID{mid(0)})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	total := 0
	for m, v := range s.views {
		if m == mid(0) {
			continue
		}
		n, err := v.Apply(res.Update)
		if err != nil {
			t.Fatalf("Apply(%s): %v", m, err)
		}
		if n == 0 {
			t.Errorf("member %s updated 0 keys after a leave; root must always change", m)
		}
		total += n
	}
	if total == 0 {
		t.Fatal("no member updated any key")
	}
}

func TestFreshnessRefreshAreaKey(t *testing.T) {
	// §III-E condition 2: the area key rotates with no membership
	// change; members derive the new key from one E_old(new) entry.
	s := newAreaSim(t, Config{Arity: 2})
	for i := 0; i < 5; i++ {
		s.batch([]MemberID{mid(i)}, nil)
	}
	oldKey := s.tree.AreaKey()
	res := s.tree.RefreshAreaKey()
	if s.tree.AreaKey().Equal(oldKey) {
		t.Fatal("area key unchanged")
	}
	if res.Update.NumKeys() != 1 {
		t.Fatalf("freshness update carries %d entries, want 1", res.Update.NumKeys())
	}
	for m, v := range s.views {
		if _, err := v.Apply(res.Update); err != nil {
			t.Fatalf("member %s: %v", m, err)
		}
		if !v.AreaKey().Equal(s.tree.AreaKey()) {
			t.Fatalf("member %s did not derive the fresh area key", m)
		}
	}
	// An outsider holding the update but not the old key learns nothing.
	if _, err := NewSuiteEncryptor(nil).DecryptKey(crypt.NewSymKey(), res.Update.Entries[0].Ciphertext); err == nil {
		t.Error("random key decrypted the freshness entry")
	}
}

func TestRefreshAreaKeyEmptyTree(t *testing.T) {
	tr := New(Config{Arity: 2})
	res := tr.RefreshAreaKey()
	if res.Update.NumKeys() != 0 {
		t.Errorf("empty tree freshness update carries %d entries", res.Update.NumKeys())
	}
	if tr.Epoch() != 1 {
		t.Errorf("epoch = %d", tr.Epoch())
	}
}

func TestRebaseResetsView(t *testing.T) {
	enc := NewSuiteEncryptor(nil)
	v := NewMemberView(PathKeys{{Node: 1, Key: crypt.NewSymKey()}, {Node: 0, Key: crypt.NewSymKey()}}, 3, enc)
	if v.PathLen() != 2 || v.NumKeys() != 2 || v.Epoch() != 3 {
		t.Fatalf("initial view wrong: len=%d keys=%d epoch=%d", v.PathLen(), v.NumKeys(), v.Epoch())
	}
	fresh := PathKeys{
		{Node: 9, Key: crypt.NewSymKey()},
		{Node: 4, Key: crypt.NewSymKey()},
		{Node: 0, Key: crypt.NewSymKey()},
	}
	v.Rebase(fresh, 7)
	if v.PathLen() != 3 || v.NumKeys() != 3 || v.Epoch() != 7 {
		t.Errorf("rebased view wrong: len=%d keys=%d epoch=%d", v.PathLen(), v.NumKeys(), v.Epoch())
	}
	if !v.AreaKey().Equal(fresh.Root().Key) {
		t.Error("rebased area key mismatch")
	}
}

func TestEmptyViewAreaKey(t *testing.T) {
	v := NewMemberView(nil, 0, NewSuiteEncryptor(nil))
	if !v.AreaKey().IsZero() {
		t.Error("empty view returned a non-zero area key")
	}
}

func TestManyAreasIndependence(t *testing.T) {
	// Keys never leak across trees: two areas evolve independently and
	// member views in one never match the other's area key.
	a := newAreaSim(t, Config{Arity: 2})
	b := newAreaSim(t, Config{Arity: 2})
	for i := 0; i < 6; i++ {
		a.batch([]MemberID{MemberID(fmt.Sprintf("a%d", i))}, nil)
		b.batch([]MemberID{MemberID(fmt.Sprintf("b%d", i))}, nil)
	}
	if a.tree.AreaKey().Equal(b.tree.AreaKey()) {
		t.Fatal("two areas share an area key")
	}
}
