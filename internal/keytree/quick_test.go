package keytree

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// opScript is a generated random operation sequence for property tests.
type opScript struct {
	seed  int64
	steps int
	arity int
}

// Generate implements quick.Generator.
func (opScript) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(opScript{
		seed:  r.Int63(),
		steps: 10 + r.Intn(40),
		arity: 2 + r.Intn(3),
	})
}

// TestQuickRandomOpSequences drives random join/leave/batch mixes through
// the tree and a full member-view population, checking the §II
// invariants after every step:
//
//  1. every current member's derived area key equals the tree's (key
//     agreement);
//  2. the area key changes across every operation (key freshness);
//  3. the cached subtree member counts stay consistent;
//  4. tree size equals the ledger of joins minus leaves.
func TestQuickRandomOpSequences(t *testing.T) {
	f := func(script opScript) bool {
		rng := rand.New(rand.NewSource(script.seed))
		tree := New(Config{Arity: script.arity})
		views := make(map[MemberID]*MemberView)
		var population []MemberID
		next := 0
		prevKey := tree.AreaKey()

		for step := 0; step < script.steps; step++ {
			var joins, leaves []MemberID
			nJoin := rng.Intn(3)
			if len(population) == 0 {
				nJoin = 1 + rng.Intn(3)
			}
			for i := 0; i < nJoin; i++ {
				joins = append(joins, MemberID(fmt.Sprintf("q%d", next)))
				next++
			}
			if len(population) > 1 {
				for i := rng.Intn(2); i > 0 && len(population) > 0; i-- {
					idx := rng.Intn(len(population))
					leaves = append(leaves, population[idx])
					population = append(population[:idx], population[idx+1:]...)
				}
			}
			if len(joins) == 0 && len(leaves) == 0 {
				continue
			}
			res, err := tree.Batch(joins, leaves)
			if err != nil {
				t.Logf("batch error: %v", err)
				return false
			}
			for _, m := range leaves {
				delete(views, m)
			}
			for m, v := range views {
				if _, ok := res.Displaced[m]; ok {
					continue
				}
				if _, err := v.Apply(res.Update); err != nil {
					t.Logf("member %s apply: %v", m, err)
					return false
				}
			}
			for m, pk := range res.Displaced {
				views[m].Rebase(pk, res.Epoch)
			}
			for m, pk := range res.Joined {
				views[m] = NewMemberView(pk, res.Epoch, NewSuiteEncryptor(nil))
			}
			population = append(population, joins...)

			// Invariant 1: key agreement.
			for m, v := range views {
				if !v.AreaKey().Equal(tree.AreaKey()) {
					t.Logf("step %d: member %s key disagrees", step, m)
					return false
				}
			}
			// Invariant 2: freshness.
			if tree.AreaKey().Equal(prevKey) {
				t.Logf("step %d: area key unchanged", step)
				return false
			}
			prevKey = tree.AreaKey()
			// Invariant 3: cached counts.
			if tree.root.memberCount != tree.NumMembers() {
				t.Logf("step %d: memberCount %d vs %d", step, tree.root.memberCount, tree.NumMembers())
				return false
			}
			// Invariant 4: ledger.
			if tree.NumMembers() != len(population) {
				t.Logf("step %d: tree %d members, ledger %d", step, tree.NumMembers(), len(population))
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickPruneModeInvariants runs random churn against a pruning tree:
// membership bookkeeping, key agreement, and cached counts must hold even
// as subtrees collapse.
func TestQuickPruneModeInvariants(t *testing.T) {
	f := func(script opScript) bool {
		rng := rand.New(rand.NewSource(script.seed))
		tree := New(Config{Arity: script.arity, Prune: true, Encryptor: AccountingEncryptor{}})
		var population []MemberID
		next := 0
		for step := 0; step < script.steps; step++ {
			if rng.Intn(3) > 0 || len(population) == 0 {
				id := MemberID(fmt.Sprintf("p%d", next))
				next++
				if _, err := tree.Join(id); err != nil {
					t.Logf("join: %v", err)
					return false
				}
				population = append(population, id)
			} else {
				idx := rng.Intn(len(population))
				id := population[idx]
				population = append(population[:idx], population[idx+1:]...)
				if _, err := tree.Leave(id); err != nil {
					t.Logf("leave: %v", err)
					return false
				}
			}
			if tree.NumMembers() != len(population) {
				t.Logf("step %d: tree %d members, ledger %d", step, tree.NumMembers(), len(population))
				return false
			}
			if tree.root.memberCount != tree.NumMembers() {
				t.Logf("step %d: memberCount %d vs %d", step, tree.root.memberCount, tree.NumMembers())
				return false
			}
			// Every member's path must resolve to the current area key.
			for _, m := range population {
				pks, err := tree.PathKeys(m)
				if err != nil || !pks.Root().Key.Equal(tree.AreaKey()) {
					t.Logf("step %d: member %s path broken (%v)", step, m, err)
					return false
				}
			}
			// A pruned tree never holds more nodes than the no-prune
			// bound for its peak population.
			if tree.NumNodes() < 1 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickSnapshotAlwaysRoundTrips exports/imports after random churn
// and compares full member path material.
func TestQuickSnapshotAlwaysRoundTrips(t *testing.T) {
	f := func(script opScript) bool {
		rng := rand.New(rand.NewSource(script.seed))
		tree := New(Config{Arity: script.arity, Encryptor: AccountingEncryptor{}})
		next := 0
		for step := 0; step < script.steps; step++ {
			if rng.Intn(3) > 0 || tree.NumMembers() == 0 {
				if _, err := tree.Join(MemberID(fmt.Sprintf("s%d", next))); err != nil {
					return false
				}
				next++
			} else {
				ms := tree.Members()
				if _, err := tree.Leave(ms[rng.Intn(len(ms))]); err != nil {
					return false
				}
			}
		}
		imported, err := Import(tree.Export(), Config{Encryptor: AccountingEncryptor{}})
		if err != nil {
			t.Logf("import: %v", err)
			return false
		}
		if imported.NumMembers() != tree.NumMembers() ||
			imported.NumNodes() != tree.NumNodes() ||
			imported.Epoch() != tree.Epoch() {
			return false
		}
		for _, m := range tree.Members() {
			want, err1 := tree.PathKeys(m)
			have, err2 := imported.PathKeys(m)
			if err1 != nil || err2 != nil || len(want) != len(have) {
				return false
			}
			for i := range want {
				if want[i] != have[i] {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
