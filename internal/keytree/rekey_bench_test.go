package keytree

import (
	"fmt"
	"runtime"
	"testing"

	"mykil/internal/crypt"
	"mykil/internal/race"
)

// leaveWorkload builds a tree of treeSize members, performs one real
// batch leave of batchSize spread members, and returns the tree plus
// the exact buildUpdate inputs that leave produced — a fixed, realistic
// §III-D construction workload that can be re-run without mutating the
// tree.
func leaveWorkload(tb testing.TB, enc Encryptor, reuse bool, treeSize, batchSize int) (*Tree, map[NodeID]*node, map[NodeID]bool, map[NodeID]crypt.SymKey) {
	tb.Helper()
	tr := New(Config{Encryptor: enc, KeyGen: benchKeyGen(), ReuseUpdates: reuse})
	ids := make([]MemberID, treeSize)
	for i := range ids {
		ids[i] = MemberID(fmt.Sprintf("m%05d", i))
	}
	if err := tr.Preload(ids); err != nil {
		tb.Fatalf("preload: %v", err)
	}
	leavers := tr.SpreadMembers(batchSize)
	leaves := make([]*node, len(leavers))
	for i, m := range leavers {
		leaves[i] = tr.members[m]
	}
	if _, err := tr.BatchLeave(leavers); err != nil {
		tb.Fatalf("batch leave: %v", err)
	}
	changed := make(map[NodeID]*node)
	for _, leaf := range leaves {
		for n := leaf.parent; n != nil; n = n.parent {
			changed[n.id] = n
		}
	}
	// leaveMode construction never consults fresh or oldKeys entries for
	// pre-existing nodes; empty maps reproduce the real batch's inputs.
	return tr, changed, map[NodeID]bool{}, map[NodeID]crypt.SymKey{}
}

// BenchmarkRekeyConstruction measures batch-rekey message construction
// — the §III-E ciphertext fill an area controller performs per leave
// batch — for every cipher suite, with and without the pooled
// (ReuseUpdates arena) path. Reports ns/member and
// allocs/member where "member" is one departed member whose leave the
// batch processes; the pooled path must report 0 allocs/member (CI
// gates on it).
func BenchmarkRekeyConstruction(b *testing.B) {
	const (
		treeSize  = 4096
		batchSize = 64
	)
	for _, s := range crypt.Suites() {
		for _, pooled := range []bool{true, false} {
			label := "alloc"
			if pooled {
				label = "pooled"
			}
			b.Run(fmt.Sprintf("%s/%s", s.Name(), label), func(b *testing.B) {
				tr, changed, fresh, oldKeys := leaveWorkload(b, NewSuiteEncryptor(s), pooled, treeSize, batchSize)
				u := tr.buildUpdate(changed, fresh, oldKeys, true) // warm scratch + schedules
				entries := len(u.Entries)
				b.ReportAllocs()
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tr.buildUpdate(changed, fresh, oldKeys, true)
				}
				b.StopTimer()
				runtime.ReadMemStats(&m1)
				perOp := float64(m1.Mallocs-m0.Mallocs) / float64(b.N)
				b.ReportMetric(perOp/batchSize, "allocs/member")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batchSize, "ns/member")
				b.ReportMetric(float64(entries), "entries/op")
			})
		}
	}
}

// TestRekeyConstructionZeroAlloc is the in-tree form of the CI
// allocs-per-rekey gate: with ReuseUpdates and a suite encryptor, the
// steady-state construction path must not allocate, for any suite.
func TestRekeyConstructionZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector; the exact-alloc pin runs in the non-race CI step")
	}
	for _, s := range crypt.Suites() {
		tr, changed, fresh, oldKeys := leaveWorkload(t, NewSuiteEncryptor(s), true, 512, 16)
		tr.buildUpdate(changed, fresh, oldKeys, true) // warm scratch + schedules
		allocs := testing.AllocsPerRun(50, func() {
			tr.buildUpdate(changed, fresh, oldKeys, true)
		})
		if allocs != 0 {
			t.Errorf("%s: rekey construction allocates %.1f/op on the pooled path, want 0", s.Name(), allocs)
		}
	}
}

// TestReuseUpdatesMatchesAllocated pins that the pooled construction
// path emits byte-identical structure (and, for the deterministic
// accounting encryptor, byte-identical ciphertexts) to the allocating
// path it replaces.
func TestReuseUpdatesMatchesAllocated(t *testing.T) {
	trA, changedA, freshA, oldA := leaveWorkload(t, AccountingEncryptor{}, false, 512, 16)
	trB, changedB, freshB, oldB := leaveWorkload(t, AccountingEncryptor{}, true, 512, 16)
	ua := trA.buildUpdate(changedA, freshA, oldA, true)
	ub := trB.buildUpdate(changedB, freshB, oldB, true)
	if len(ua.Entries) != len(ub.Entries) {
		t.Fatalf("entry counts differ: %d vs %d", len(ua.Entries), len(ub.Entries))
	}
	for i := range ua.Entries {
		ea, eb := ua.Entries[i], ub.Entries[i]
		if ea.Node != eb.Node || ea.Under != eb.Under {
			t.Fatalf("entry %d structure differs: %+v vs %+v", i, ea, eb)
		}
		if string(ea.Ciphertext) != string(eb.Ciphertext) {
			t.Fatalf("entry %d ciphertext differs", i)
		}
	}
}
