package keytree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"mykil/internal/crypt"
	"mykil/internal/race"
	"mykil/internal/wire/codec"
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

// TestQuickPartAloneEqualsWholeUpdate is the cut's contract (Tree.Cut):
// over random join, leave, mixed and freshness rekeys, cut for every
// surviving member that was not moved,
//
//   - each receiver's part is exactly the update's entries whose Under is
//     on the receiver's path, in the update's order — for a freshness
//     rekey, the one entry under the root;
//   - the leaf key the cut names for it is the one its view holds before
//     the update;
//   - applying the part alone leaves the same keys and epoch as applying
//     the whole update.
func TestQuickPartAloneEqualsWholeUpdate(t *testing.T) {
	f := func(script opScript) bool {
		rng := rand.New(rand.NewSource(script.seed))
		tree := New(Config{Arity: script.arity})
		enc := NewSuiteEncryptor(nil)
		type pair struct{ whole, part *MemberView }
		views := make(map[MemberID]pair)
		var population []MemberID
		var cut Cut
		next := 0

		for step := 0; step < script.steps; step++ {
			var res *BatchResult
			freshness := len(population) > 0 && rng.Intn(6) == 0
			if freshness {
				res = tree.RefreshAreaKey()
			} else {
				var joins, leaves []MemberID
				for i := rng.Intn(3); i > 0 || len(population)+len(joins) == 0; i-- {
					joins = append(joins, MemberID(fmt.Sprintf("c%d", next)))
					next++
				}
				for i := rng.Intn(3); i > 0 && len(population) > 1; i-- {
					idx := rng.Intn(len(population))
					leaves = append(leaves, population[idx])
					population = append(population[:idx], population[idx+1:]...)
				}
				if len(joins)+len(leaves) == 0 {
					continue
				}
				var err error
				if res, err = tree.Batch(joins, leaves); err != nil {
					t.Logf("batch error: %v", err)
					return false
				}
				for _, m := range leaves {
					delete(views, m)
				}
				population = append(population, joins...)
			}
			u := res.Update
			var receivers []MemberID
			for m := range views {
				if _, moved := res.Displaced[m]; !moved {
					receivers = append(receivers, m)
				}
			}
			tree.Cut(u, receivers, &cut)

			for i, m := range receivers {
				v := views[m]
				path, err := tree.PathNodeIDs(m)
				if err != nil {
					t.Logf("step %d: %v", step, err)
					return false
				}
				var own []Entry
				for _, e := range u.Entries {
					if slices.Contains(path, e.Under) {
						own = append(own, e)
					}
				}
				part := cut.AppendEntries(nil, i)
				if !bytes.Equal(part, AppendEntries(nil, own)) || cut.EntriesLen(i) != len(part) {
					t.Logf("step %d: %s's part is not exactly the entries on its path, or not %d B long", step, m, cut.EntriesLen(i))
					return false
				}
				if freshness && len(own) != 1 {
					t.Logf("step %d: %s's part of a freshness rekey holds %d entries", step, m, len(own))
					return false
				}
				if leaf, ok := cut.Leaf(i); !ok || leaf != v.part.LeafKey() {
					t.Logf("step %d: the cut names a leaf key %s does not hold (member %v)", step, m, ok)
					return false
				}
				if _, err := v.whole.Apply(u); err != nil {
					t.Logf("step %d: %s applying the whole update: %v", step, m, err)
					return false
				}
				if _, err := v.part.ApplyWire(u.Epoch, codec.NewReader(part)); err != nil {
					t.Logf("step %d: %s applying its part: %v", step, m, err)
					return false
				}
				if v.part.Epoch() != v.whole.Epoch() || !reflect.DeepEqual(v.part.PathKeys(), v.whole.PathKeys()) {
					t.Logf("step %d: %s holds different keys after its part than after the whole update", step, m)
					return false
				}
				if !v.part.AreaKey().Equal(tree.AreaKey()) {
					t.Logf("step %d: %s lost the area key on its part", step, m)
					return false
				}
			}
			for m, pk := range res.Displaced {
				views[m].whole.Rebase(pk, res.Epoch)
				views[m].part.Rebase(pk, res.Epoch)
			}
			for m, pk := range res.Joined {
				views[m] = pair{NewMemberView(pk, res.Epoch, enc), NewMemberView(pk, res.Epoch, enc)}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
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

// mapView is the map-indexed MemberView this package shipped before the
// keys moved into a slice parallel to the path. It is kept here, verbatim
// in behaviour, as the reference the slice-backed view is checked
// against.
type mapView struct {
	epoch uint64
	path  []NodeID
	keys  map[NodeID]crypt.SymKey
	enc   Encryptor
}

func newMapView(initial PathKeys, epoch uint64, enc Encryptor) *mapView {
	v := &mapView{keys: make(map[NodeID]crypt.SymKey), enc: enc}
	v.rebase(initial, epoch)
	return v
}

func (v *mapView) rebase(fresh PathKeys, epoch uint64) {
	v.path = v.path[:0]
	for k := range v.keys {
		delete(v.keys, k)
	}
	for _, pk := range fresh {
		v.path = append(v.path, pk.Node)
		v.keys[pk.Node] = pk.Key
	}
	v.epoch = epoch
}

func (v *mapView) pathKeys() PathKeys {
	out := make(PathKeys, 0, len(v.path))
	for _, id := range v.path {
		out = append(out, PathKey{Node: id, Key: v.keys[id]})
	}
	return out
}

func (v *mapView) apply(u *KeyUpdate) (updated int, err error) {
	if u.Epoch <= v.epoch {
		return 0, ErrStale
	}
	if u.Epoch != v.epoch+1 {
		return 0, ErrEpochGap
	}
	onPath := make(map[NodeID]bool, len(v.path))
	for _, id := range v.path {
		onPath[id] = true
	}
	for _, e := range u.Entries {
		if !onPath[e.Node] {
			continue
		}
		underKey, ok := v.keys[e.Under]
		if !ok {
			continue
		}
		newKey, decErr := v.enc.DecryptKey(underKey, e.Ciphertext)
		if decErr != nil {
			continue
		}
		if existing, ok := v.keys[e.Node]; ok && existing.Equal(newKey) {
			continue
		}
		v.keys[e.Node] = newKey
		updated++
	}
	v.epoch = u.Epoch
	return updated, nil
}

// viewPair is one member's slice-backed view and its map reference.
type viewPair struct {
	got  *MemberView
	want *mapView
}

func (p viewPair) agree(t *testing.T, who MemberID, step int) bool {
	if p.got.Epoch() != p.want.epoch || p.got.NumKeys() != len(p.want.keys) ||
		p.got.PathLen() != len(p.want.path) || !reflect.DeepEqual(p.got.PathKeys(), p.want.pathKeys()) {
		t.Logf("step %d: member %s: view (epoch %d, %d keys) diverged from map reference (epoch %d, %d keys)",
			step, who, p.got.Epoch(), p.got.NumKeys(), p.want.epoch, len(p.want.keys))
		return false
	}
	return true
}

// TestQuickViewMatchesMapSemantics drives the slice-backed MemberView and
// the old map-indexed one through the same random join/leave/batch
// sequences — residents, displaced members (Rebase) and departed members
// who keep listening with stale keys — and requires the same `updated`
// count and error from every Apply and the same Epoch, NumKeys, PathLen
// and PathKeys after every step. It runs under real key wrapping (a
// wrong key fails to open) and under the accounting cipher (a wrong key
// opens to garbage, so the stale views take the store path too).
func TestQuickViewMatchesMapSemantics(t *testing.T) {
	for _, enc := range []Encryptor{NewSuiteEncryptor(nil), AccountingEncryptor{}} {
		f := func(script opScript) bool {
			rng := rand.New(rand.NewSource(script.seed))
			tree := New(Config{Arity: script.arity, Encryptor: enc})
			views := make(map[MemberID]viewPair)
			departed := make(map[MemberID]viewPair)
			var population []MemberID
			next := 0
			for step := 0; step < script.steps; step++ {
				var joins, leaves []MemberID
				for i := rng.Intn(3); i > 0 || len(population)+len(joins) == 0; i-- {
					joins = append(joins, MemberID(fmt.Sprintf("v%d", next)))
					next++
				}
				if len(population) > 1 {
					for i := rng.Intn(3); i > 0 && len(population) > 0; i-- {
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
					t.Logf("batch: %v", err)
					return false
				}
				for _, m := range leaves {
					departed[m] = views[m]
					delete(views, m)
				}
				for _, set := range []map[MemberID]viewPair{views, departed} {
					for m, p := range set {
						if _, ok := res.Displaced[m]; ok {
							continue
						}
						gotN, gotErr := p.got.Apply(res.Update)
						wantN, wantErr := p.want.apply(res.Update)
						if gotN != wantN || !errors.Is(gotErr, wantErr) {
							t.Logf("step %d: member %s: Apply = (%d, %v), map reference (%d, %v)",
								step, m, gotN, gotErr, wantN, wantErr)
							return false
						}
					}
				}
				for m, pk := range res.Displaced {
					views[m].got.Rebase(pk, res.Epoch)
					views[m].want.rebase(pk, res.Epoch)
				}
				for m, pk := range res.Joined {
					views[m] = viewPair{NewMemberView(pk, res.Epoch, enc), newMapView(pk, res.Epoch, enc)}
				}
				population = append(population, joins...)
				for _, set := range []map[MemberID]viewPair{views, departed} {
					for m, p := range set {
						if !p.agree(t, m, step) {
							return false
						}
					}
				}
				for m, p := range views {
					if !p.got.AreaKey().Equal(tree.AreaKey()) {
						t.Logf("step %d: member %s lost the area key", step, m)
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%T: %v", enc, err)
		}
	}
}

// TestMemberViewApplyZeroAlloc pins that Apply over materialised entries
// allocates nothing of its own: with the accounting cipher a 128-entry
// leave rekey applies in 0 allocs/op. The receive path's pin — from the
// wire, under every real suite, whose unwrap goes to pooled scratch and
// never back into the shared ciphertext — is wire's
// TestKeyUpdateReceiveZeroAlloc.
func TestMemberViewApplyZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("exact allocation counts are not meaningful under the race detector")
	}
	tr, changed, fresh, oldKeys := leaveWorkload(t, AccountingEncryptor{}, false, 2048, 32)
	u := tr.buildUpdate(changed, fresh, oldKeys, true)
	if len(u.Entries) < 100 {
		t.Fatalf("workload built %d entries, want a leave-sized rekey", len(u.Entries))
	}
	resident := tr.SpreadMembers(1)[0]
	pk, err := tr.PathKeys(resident)
	if err != nil {
		t.Fatal(err)
	}
	v := NewMemberView(pk, 0, AccountingEncryptor{})
	step := *u
	allocs := testing.AllocsPerRun(100, func() {
		step.Epoch = v.Epoch() + 1
		if _, err := v.Apply(&step); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("MemberView.Apply allocates %.1f/op over %d entries, want 0", allocs, len(u.Entries))
	}
}
