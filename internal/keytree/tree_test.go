package keytree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"mykil/internal/crypt"
)

// detKeyGen returns a deterministic key generator for structure-comparison
// tests.
func detKeyGen() func() crypt.SymKey {
	var ctr uint64
	return func() crypt.SymKey {
		ctr++
		var k crypt.SymKey
		binary.BigEndian.PutUint64(k[:8], ctr)
		return k
	}
}

func mid(i int) MemberID { return MemberID(fmt.Sprintf("m%d", i)) }

// joinN admits members m0..m(n-1) one at a time.
func joinN(t *testing.T, tr *Tree, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := tr.Join(mid(i)); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
}

func TestFirstJoinOccupiesRoot(t *testing.T) {
	tr := New(Config{})
	res, err := tr.Join("alice")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if tr.NumMembers() != 1 || tr.NumNodes() != 1 || tr.Depth() != 0 {
		t.Errorf("members=%d nodes=%d depth=%d, want 1/1/0",
			tr.NumMembers(), tr.NumNodes(), tr.Depth())
	}
	pks := res.Joined["alice"]
	if len(pks) != 1 {
		t.Fatalf("path length %d, want 1 (root leaf)", len(pks))
	}
	if !pks.Root().Key.Equal(tr.AreaKey()) {
		t.Error("joined path root key != area key")
	}
	if res.Update.NumKeys() != 0 {
		t.Errorf("first join produced %d multicast entries, want 0", res.Update.NumKeys())
	}
	if res.Epoch != 1 || tr.Epoch() != 1 {
		t.Errorf("epoch = %d/%d, want 1", res.Epoch, tr.Epoch())
	}
}

func TestSecondJoinSplitsRoot(t *testing.T) {
	tr := New(Config{Arity: 4})
	if _, err := tr.Join("alice"); err != nil {
		t.Fatalf("Join alice: %v", err)
	}
	res, err := tr.Join("bob")
	if err != nil {
		t.Fatalf("Join bob: %v", err)
	}
	if tr.NumNodes() != 5 { // root + 4 children
		t.Errorf("NumNodes = %d, want 5", tr.NumNodes())
	}
	if tr.Depth() != 1 {
		t.Errorf("Depth = %d, want 1", tr.Depth())
	}
	if _, ok := res.Displaced["alice"]; !ok {
		t.Error("alice not reported displaced by the split")
	}
	for _, m := range []MemberID{"alice", "bob"} {
		pks, err := tr.PathKeys(m)
		if err != nil {
			t.Fatalf("PathKeys(%s): %v", m, err)
		}
		if len(pks) != 2 {
			t.Errorf("%s path length %d, want 2", m, len(pks))
		}
		if !pks.Root().Key.Equal(tr.AreaKey()) {
			t.Errorf("%s path root != area key", m)
		}
	}
}

func TestJoinsStayBalanced(t *testing.T) {
	for _, arity := range []int{2, 4} {
		tr := New(Config{Arity: arity, Encryptor: AccountingEncryptor{}})
		const n = 300
		joinN(t, tr, n)
		bound := int(math.Ceil(math.Log(float64(n))/math.Log(float64(arity)))) + 1
		if tr.Depth() > bound {
			t.Errorf("arity %d: depth %d exceeds bound %d for %d members",
				arity, tr.Depth(), bound, n)
		}
		if tr.NumMembers() != n {
			t.Errorf("arity %d: NumMembers = %d", arity, tr.NumMembers())
		}
	}
}

func TestCompleteBinaryTreeDepth(t *testing.T) {
	tr := New(Config{Arity: 2, Encryptor: AccountingEncryptor{}})
	joinN(t, tr, 16)
	if tr.Depth() != 4 {
		t.Errorf("depth = %d for 16 members arity 2, want 4 (complete)", tr.Depth())
	}
	if tr.NumNodes() != 31 {
		t.Errorf("NumNodes = %d, want 31", tr.NumNodes())
	}
}

func TestLeaveKeepsLeafNoPrune(t *testing.T) {
	tr := New(Config{Arity: 2})
	joinN(t, tr, 4)
	nodesBefore := tr.NumNodes()
	if _, err := tr.Leave(mid(0)); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if tr.NumNodes() != nodesBefore {
		t.Errorf("NumNodes changed %d -> %d on leave; paper keeps vacated leaves",
			nodesBefore, tr.NumNodes())
	}
	if tr.HasMember(mid(0)) {
		t.Error("member still present after leave")
	}
	// A later join must reuse the vacated leaf: no new nodes.
	if _, err := tr.Join("newcomer"); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if tr.NumNodes() != nodesBefore {
		t.Errorf("join after leave grew the tree %d -> %d; vacant leaf not reused",
			nodesBefore, tr.NumNodes())
	}
}

func TestPruneModeShrinksTree(t *testing.T) {
	tr := New(Config{Arity: 2, Prune: true})
	joinN(t, tr, 4)
	nodesBefore := tr.NumNodes() // 7
	// Remove both members of one sibling pair; their parent's subtree
	// should collapse.
	if _, err := tr.BatchLeave([]MemberID{mid(0), mid(1), mid(2)}); err != nil {
		t.Fatalf("BatchLeave: %v", err)
	}
	if tr.NumNodes() >= nodesBefore {
		t.Errorf("prune mode: NumNodes %d not reduced from %d", tr.NumNodes(), nodesBefore)
	}
	// The remaining member must still resolve and the tree stay usable.
	if _, err := tr.PathKeys(mid(3)); err != nil {
		t.Fatalf("PathKeys after prune: %v", err)
	}
	if _, err := tr.Join("again"); err != nil {
		t.Fatalf("Join after prune: %v", err)
	}
}

func TestLeaveUpdateStructureBinary(t *testing.T) {
	// Complete binary tree of 4 members, depth 2. One leave changes the
	// two ancestors; entries: parent encrypted under the sibling leaf
	// (1), root under both its children (2) = 3 entries.
	tr := New(Config{Arity: 2, Encryptor: AccountingEncryptor{}})
	joinN(t, tr, 4)
	res, err := tr.Leave(mid(0))
	if err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if got := res.Update.NumKeys(); got != 3 {
		t.Errorf("leave update entries = %d, want 3", got)
	}
	if got := res.Update.PaperBytes(); got != 3*crypt.SymKeyLen {
		t.Errorf("PaperBytes = %d, want %d", got, 3*crypt.SymKeyLen)
	}
}

func TestLeaveEntryCountFormula(t *testing.T) {
	// For a complete arity-a tree with a^d members, a single leave yields
	// a*d - 1 entries (each of d ancestors encrypts under its a children,
	// minus the vacated leaf).
	for _, tc := range []struct{ arity, members, wantEntries int }{
		{2, 16, 2*4 - 1},
		{2, 128, 2*7 - 1},
		{4, 64, 4*3 - 1},
	} {
		tr := New(Config{Arity: tc.arity, Encryptor: AccountingEncryptor{}})
		joinN(t, tr, tc.members)
		res, err := tr.Leave(mid(3))
		if err != nil {
			t.Fatalf("Leave: %v", err)
		}
		if got := res.Update.NumKeys(); got != tc.wantEntries {
			t.Errorf("arity=%d members=%d: entries = %d, want %d",
				tc.arity, tc.members, got, tc.wantEntries)
		}
	}
}

func TestBatchLeaveDeduplicatesSharedPath(t *testing.T) {
	// Paper Fig. 6: aggregating two leaves updates shared ancestors once.
	tr := New(Config{Arity: 2, Encryptor: AccountingEncryptor{}})
	joinN(t, tr, 8)

	// Measure two individual leaves on a clone via snapshot.
	clone, err := Import(tr.Export(), Config{Encryptor: AccountingEncryptor{}})
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	res1, err := clone.Leave(mid(0))
	if err != nil {
		t.Fatalf("clone leave 1: %v", err)
	}
	res2, err := clone.Leave(mid(1))
	if err != nil {
		t.Fatalf("clone leave 2: %v", err)
	}
	separate := res1.Update.NumKeys() + res2.Update.NumKeys()

	batch, err := tr.BatchLeave([]MemberID{mid(0), mid(1)})
	if err != nil {
		t.Fatalf("BatchLeave: %v", err)
	}
	if got := batch.Update.NumKeys(); got >= separate {
		t.Errorf("batched entries %d not smaller than separate %d", got, separate)
	}
}

func TestPaperFigure6Scenario(t *testing.T) {
	// Paper Fig. 6: a complete binary tree over 8 members m1..m8 with
	// nodes K1 (root), K2/K3, K4..K7, leaves K8..K15. Members m5 and m6
	// (leaves K12, K13 under K6) leave together. Individually the two
	// operations would update {K1,K3,K6} twice; aggregated, each changed
	// node updates once.
	tr := New(Config{Arity: 2, Encryptor: AccountingEncryptor{}})
	var ms []MemberID
	for i := 1; i <= 8; i++ {
		ms = append(ms, MemberID(fmt.Sprintf("m%d", i)))
	}
	if err := tr.Preload(ms); err != nil {
		t.Fatal(err)
	}
	// Balanced preload in member order: m5 and m6 are the 5th and 6th
	// leaves — siblings under one depth-2 node, like the paper's K6.
	cohort, err := tr.CohortOf("m5", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cohort) != 2 || (cohort[0] != "m5" && cohort[1] != "m5") {
		t.Fatalf("m5's sibling cohort = %v", cohort)
	}

	res, err := tr.BatchLeave([]MemberID{"m5", "m6"})
	if err != nil {
		t.Fatalf("BatchLeave: %v", err)
	}
	// Changed nodes: K6 (emptied — contributes no entries), K3, K1.
	//   K3 -> encrypted under K7 only (K6's subtree is empty):   1 entry
	//   K1 -> encrypted under K2 and the new K3:                 2 entries
	if got := res.Update.NumKeys(); got != 3 {
		t.Errorf("aggregated entries = %d, want 3", got)
	}
	// The six survivors must all still derive the new area key; check
	// via fresh views built from current paths... the authoritative tree
	// already agrees, so assert the vacated leaves were kept (§III-D).
	if tr.NumNodes() != 15 {
		t.Errorf("NumNodes = %d, want 15 (no pruning)", tr.NumNodes())
	}
	if tr.NumMembers() != 6 {
		t.Errorf("NumMembers = %d, want 6", tr.NumMembers())
	}
	// The two vacated leaves are reused by the next two joins.
	if _, err := tr.BatchJoin([]MemberID{"m9", "m10"}); err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 15 {
		t.Errorf("NumNodes after rejoins = %d, want 15 (leaf reuse)", tr.NumNodes())
	}
}

func TestBatchLeaveBestVsWorstCase(t *testing.T) {
	// Fig. 10: leaves clustered under one subtree (best case) share more
	// path than leaves spread across the tree (worst case).
	build := func() *Tree {
		tr := New(Config{Arity: 2, Encryptor: AccountingEncryptor{}})
		joinN(t, tr, 64)
		return tr
	}
	best := build()
	cohort, err := best.CohortOf(mid(0), 4)
	if err != nil {
		t.Fatalf("CohortOf: %v", err)
	}
	if len(cohort) != 4 {
		t.Fatalf("CohortOf returned %d members, want 4", len(cohort))
	}
	resBest, err := best.BatchLeave(cohort)
	if err != nil {
		t.Fatalf("best-case BatchLeave: %v", err)
	}
	worst := build()
	spread := worst.SpreadMembers(4)
	if len(spread) != 4 {
		t.Fatalf("SpreadMembers returned %d members, want 4", len(spread))
	}
	resWorst, err := worst.BatchLeave(spread)
	if err != nil {
		t.Fatalf("worst-case BatchLeave: %v", err)
	}
	if resBest.Update.NumKeys() >= resWorst.Update.NumKeys() {
		t.Errorf("clustered leaves produced %d entries, spread %d; want clustered < spread",
			resBest.Update.NumKeys(), resWorst.Update.NumKeys())
	}
}

func TestBatchLeaveSkipsEmptiedSubtrees(t *testing.T) {
	// When a whole sibling cohort leaves, the nodes of the emptied
	// subtree need no rekey entries: no current member holds them. Only
	// the shared path above the cohort is re-encrypted.
	tr := New(Config{Arity: 2, Encryptor: AccountingEncryptor{}})
	joinN(t, tr, 64) // complete: depth 6
	cohort, err := tr.CohortOf(mid(0), 8)
	if err != nil {
		t.Fatalf("CohortOf: %v", err)
	}
	res, err := tr.BatchLeave(cohort)
	if err != nil {
		t.Fatalf("BatchLeave: %v", err)
	}
	// Cohort subtree root at depth 3; shared path = 3 levels × 2
	// children − 1 emptied branch = 5 entries.
	if got := res.Update.NumKeys(); got != 5 {
		t.Errorf("entries = %d, want 5 (no entries for the emptied subtree)", got)
	}
}

func TestMemberCountInvariant(t *testing.T) {
	tr := New(Config{Arity: 4, Encryptor: AccountingEncryptor{}})
	joinN(t, tr, 30)
	check := func(when string) {
		t.Helper()
		if tr.root.memberCount != tr.NumMembers() {
			t.Fatalf("%s: root.memberCount=%d, NumMembers=%d",
				when, tr.root.memberCount, tr.NumMembers())
		}
	}
	check("after joins")
	if _, err := tr.BatchLeave([]MemberID{mid(0), mid(5), mid(9)}); err != nil {
		t.Fatal(err)
	}
	check("after batch leave")
	if _, err := tr.Batch([]MemberID{"x", "y"}, []MemberID{mid(1)}); err != nil {
		t.Fatal(err)
	}
	check("after mixed batch")
	imported, err := Import(tr.Export(), Config{Encryptor: AccountingEncryptor{}})
	if err != nil {
		t.Fatal(err)
	}
	if imported.root.memberCount != imported.NumMembers() {
		t.Fatalf("import: root.memberCount=%d, NumMembers=%d",
			imported.root.memberCount, imported.NumMembers())
	}
}

func TestMixedBatch(t *testing.T) {
	tr := New(Config{Arity: 2})
	joinN(t, tr, 6)
	res, err := tr.Batch([]MemberID{"newA", "newB"}, []MemberID{mid(0), mid(5)})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if tr.NumMembers() != 6 {
		t.Errorf("NumMembers = %d, want 6", tr.NumMembers())
	}
	if len(res.Joined) != 2 {
		t.Errorf("Joined = %d entries, want 2", len(res.Joined))
	}
	if tr.HasMember(mid(0)) || tr.HasMember(mid(5)) {
		t.Error("left members still present")
	}
	if !tr.HasMember("newA") || !tr.HasMember("newB") {
		t.Error("joined members missing")
	}
}

func TestBatchValidation(t *testing.T) {
	tr := New(Config{})
	joinN(t, tr, 2)
	cases := []struct {
		name          string
		joins, leaves []MemberID
		wantErr       error
	}{
		{"empty", nil, nil, ErrEmptyBatch},
		{"join existing", []MemberID{mid(0)}, nil, ErrMemberExists},
		{"leave unknown", nil, []MemberID{"ghost"}, ErrMemberUnknown},
		{"dup join", []MemberID{"x", "x"}, nil, ErrDuplicate},
		{"dup leave", nil, []MemberID{mid(0), mid(0)}, ErrDuplicate},
		{"join and leave same", []MemberID{"y"}, []MemberID{"y"}, ErrDuplicate},
	}
	for _, tc := range cases {
		if _, err := tr.Batch(tc.joins, tc.leaves); !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: err=%v, want %v", tc.name, err, tc.wantErr)
		}
	}
}

func TestAreaKeyChangesOnEveryOperation(t *testing.T) {
	tr := New(Config{Arity: 2})
	joinN(t, tr, 3)
	seen := map[crypt.SymKey]bool{tr.AreaKey(): true}
	ops := []func() error{
		func() error { _, err := tr.Join("n1"); return err },
		func() error { _, err := tr.Leave(mid(0)); return err },
		func() error { _, err := tr.BatchJoin([]MemberID{"n2", "n3"}); return err },
		func() error { _, err := tr.BatchLeave([]MemberID{"n2", "n3"}); return err },
	}
	for i, op := range ops {
		if err := op(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		k := tr.AreaKey()
		if seen[k] {
			t.Errorf("op %d: area key repeated — key freshness violated", i)
		}
		seen[k] = true
	}
}

func TestPathKeysLeafFirstRootLast(t *testing.T) {
	tr := New(Config{Arity: 2})
	joinN(t, tr, 8)
	pks, err := tr.PathKeys(mid(5))
	if err != nil {
		t.Fatalf("PathKeys: %v", err)
	}
	if !pks.Root().Key.Equal(tr.AreaKey()) {
		t.Error("last path entry is not the area key")
	}
	ids, err := tr.PathNodeIDs(mid(5))
	if err != nil {
		t.Fatalf("PathNodeIDs: %v", err)
	}
	if len(ids) != len(pks) {
		t.Fatalf("PathNodeIDs %d entries vs PathKeys %d", len(ids), len(pks))
	}
	for i := range ids {
		if ids[i] != pks[i].Node {
			t.Errorf("path id mismatch at %d", i)
		}
	}
}

func TestArityClamped(t *testing.T) {
	tr := New(Config{Arity: 1})
	if tr.Arity() != 2 {
		t.Errorf("Arity = %d, want clamped to 2", tr.Arity())
	}
	tr = New(Config{})
	if tr.Arity() != DefaultArity {
		t.Errorf("Arity = %d, want %d", tr.Arity(), DefaultArity)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	tr := New(Config{Arity: 4, KeyGen: detKeyGen()})
	joinN(t, tr, 20)
	if _, err := tr.Leave(mid(7)); err != nil {
		t.Fatalf("Leave: %v", err)
	}

	snap := tr.Export()
	got, err := Import(snap, Config{})
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	if got.NumMembers() != tr.NumMembers() || got.NumNodes() != tr.NumNodes() ||
		got.Depth() != tr.Depth() || got.Epoch() != tr.Epoch() || got.Arity() != tr.Arity() {
		t.Errorf("imported tree shape differs: members %d/%d nodes %d/%d depth %d/%d epoch %d/%d",
			got.NumMembers(), tr.NumMembers(), got.NumNodes(), tr.NumNodes(),
			got.Depth(), tr.Depth(), got.Epoch(), tr.Epoch())
	}
	if !got.AreaKey().Equal(tr.AreaKey()) {
		t.Error("imported area key differs")
	}
	for _, m := range tr.Members() {
		want, err := tr.PathKeys(m)
		if err != nil {
			t.Fatalf("PathKeys(%s): %v", m, err)
		}
		have, err := got.PathKeys(m)
		if err != nil {
			t.Fatalf("imported PathKeys(%s): %v", m, err)
		}
		if len(want) != len(have) {
			t.Fatalf("%s: path length %d vs %d", m, len(have), len(want))
		}
		for i := range want {
			if want[i] != have[i] {
				t.Errorf("%s: path entry %d differs", m, i)
			}
		}
	}
}

func TestSnapshotContinuesIdentically(t *testing.T) {
	// With a deterministic keygen, the imported tree must evolve exactly
	// like the original — the property primary-backup failover needs.
	mk := func() (*Tree, *Tree) {
		a := New(Config{Arity: 2, KeyGen: detKeyGen(), Encryptor: AccountingEncryptor{}})
		joinN(t, a, 10)
		b, err := Import(a.Export(), Config{KeyGen: detKeyGen(), Encryptor: AccountingEncryptor{}})
		if err != nil {
			t.Fatalf("Import: %v", err)
		}
		return a, b
	}
	a, b := mk()
	// Drain both keygens to the same point: they were constructed with
	// independent counters, so compare structure rather than key bytes.
	resA, err := a.Leave(mid(4))
	if err != nil {
		t.Fatalf("a.Leave: %v", err)
	}
	resB, err := b.Leave(mid(4))
	if err != nil {
		t.Fatalf("b.Leave: %v", err)
	}
	if resA.Update.NumKeys() != resB.Update.NumKeys() {
		t.Errorf("post-import update structure differs: %d vs %d entries",
			resA.Update.NumKeys(), resB.Update.NumKeys())
	}
	for i := range resA.Update.Entries {
		ea, eb := resA.Update.Entries[i], resB.Update.Entries[i]
		if ea.Node != eb.Node || ea.Under != eb.Under {
			t.Errorf("entry %d: (%d under %d) vs (%d under %d)",
				i, ea.Node, ea.Under, eb.Node, eb.Under)
		}
	}
}

func TestImportRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		snap *Snapshot
	}{
		{"empty", &Snapshot{Arity: 2}},
		{"non-root first", &Snapshot{Arity: 2, Nodes: []SnapshotNode{{ID: 0, Parent: 3}}}},
		{"forward parent", &Snapshot{Arity: 2, Nodes: []SnapshotNode{
			{ID: 0, Parent: -1}, {ID: 1, Parent: 2}, {ID: 2, Parent: 0},
		}}},
		{"second root", &Snapshot{Arity: 2, Nodes: []SnapshotNode{
			{ID: 0, Parent: -1}, {ID: 1, Parent: -1},
		}}},
		{"over arity", &Snapshot{Arity: 2, Nodes: []SnapshotNode{
			{ID: 0, Parent: -1}, {ID: 1, Parent: 0}, {ID: 2, Parent: 0}, {ID: 3, Parent: 0},
		}}},
		{"member on internal", &Snapshot{Arity: 2, Nodes: []SnapshotNode{
			{ID: 0, Parent: -1, Member: "x"}, {ID: 1, Parent: 0},
		}}},
		{"duplicate member", &Snapshot{Arity: 2, Nodes: []SnapshotNode{
			{ID: 0, Parent: -1}, {ID: 1, Parent: 0, Member: "x"}, {ID: 2, Parent: 0, Member: "x"},
		}}},
	}
	for _, tc := range cases {
		if _, err := Import(tc.snap, Config{}); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err=%v, want ErrBadSnapshot", tc.name, err)
		}
	}
}

func TestAccountingEncryptorEntrySize(t *testing.T) {
	tr := New(Config{Arity: 2, Encryptor: AccountingEncryptor{}})
	joinN(t, tr, 8)
	res, err := tr.Leave(mid(2))
	if err != nil {
		t.Fatalf("Leave: %v", err)
	}
	for _, e := range res.Update.Entries {
		if len(e.Ciphertext) != crypt.SymKeyLen {
			t.Fatalf("accounting ciphertext %d bytes, want %d", len(e.Ciphertext), crypt.SymKeyLen)
		}
	}
	if res.Update.WireBytes() != res.Update.PaperBytes() {
		t.Error("accounting mode: wire and paper bytes should match")
	}
}

func TestRealEncryptionOverhead(t *testing.T) {
	tr := New(Config{Arity: 2})
	joinN(t, tr, 8)
	res, err := tr.Leave(mid(2))
	if err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if res.Update.WireBytes() <= res.Update.PaperBytes() {
		t.Error("real encryption should cost more than the paper's accounting")
	}
}

func TestNilUpdateAccessors(t *testing.T) {
	var u *KeyUpdate
	if u.NumKeys() != 0 || u.PaperBytes() != 0 || u.WireBytes() != 0 {
		t.Error("nil update accessors not zero")
	}
}
