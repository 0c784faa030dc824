package keytree

import (
	"fmt"
	"slices"
	"testing"

	"mykil/internal/wire/codec"
)

// TestCutOwnPathAndLeaf: one join into a full 64-member, arity-4 area
// rekeys the joiner's root path in join mode, one entry per level. Each
// resident is cut exactly the entries on its own path — 1 to 3 of them,
// by how much of its path the joiner shares — with the key of its own
// leaf; a receiver outside the tree gets nothing.
func TestCutOwnPathAndLeaf(t *testing.T) {
	tr := New(Config{Encryptor: AccountingEncryptor{}})
	ids := make([]MemberID, 64)
	for i := range ids {
		ids[i] = MemberID(fmt.Sprintf("m%02d", i))
	}
	if err := tr.Preload(ids); err != nil {
		t.Fatal(err)
	}
	res, err := tr.Join("joiner")
	if err != nil {
		t.Fatal(err)
	}
	var receivers []MemberID
	for _, m := range ids {
		if _, moved := res.Displaced[m]; !moved {
			receivers = append(receivers, m)
		}
	}
	var c Cut
	tr.Cut(res.Update, receivers, &c)
	if c.Len() != len(receivers) {
		t.Fatalf("cut for %d receivers, want %d", c.Len(), len(receivers))
	}
	sizes := map[int]int{}
	for i, m := range receivers {
		path, err := tr.PathNodeIDs(m)
		if err != nil {
			t.Fatal(err)
		}
		pk, err := tr.PathKeys(m)
		if err != nil {
			t.Fatal(err)
		}
		if leaf, ok := c.Leaf(i); !ok || leaf != pk[0].Key {
			t.Fatalf("%s: cut names leaf key %x (member %v), tree holds %x", m, leaf, ok, pk[0].Key)
		}
		entries, err := ReadEntries(codec.NewReader(c.AppendEntries(nil, i)))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !slices.Contains(path, e.Under) {
				t.Fatalf("%s was cut entry under %d, off its path", m, e.Under)
			}
		}
		sizes[len(entries)]++
	}
	if len(sizes) != 3 || sizes[1] == 0 || sizes[2] == 0 || sizes[3] == 0 {
		t.Errorf("part sizes %v, want residents cut 1, 2 and 3 entries", sizes)
	}
	tr.Cut(res.Update, []MemberID{"stranger"}, &c)
	if _, ok := c.Leaf(0); ok {
		t.Fatal("a receiver outside the tree was cut a part")
	}
}

// TestCutLoneRootMemberFreshness: a lone member sits at the root, so a
// freshness rekey rekeys its leaf in place; the cut names the key it
// still holds, the root's previous one, and its part opens under it.
func TestCutLoneRootMemberFreshness(t *testing.T) {
	tr := New(Config{})
	res, err := tr.Join("solo")
	if err != nil {
		t.Fatal(err)
	}
	v := NewMemberView(res.Joined["solo"], res.Epoch, NewSuiteEncryptor(nil))
	fresh := tr.RefreshAreaKey()
	var c Cut
	tr.Cut(fresh.Update, []MemberID{"solo"}, &c)
	if leaf, ok := c.Leaf(0); !ok || leaf != v.LeafKey() || leaf == tr.AreaKey() {
		t.Fatalf("cut names leaf %x (member %v); the member holds %x, the new root is %x", leaf, ok, v.LeafKey(), tr.AreaKey())
	}
	if _, err := v.ApplyWire(fresh.Epoch, codec.NewReader(c.AppendEntries(nil, 0))); err != nil || v.AreaKey() != tr.AreaKey() {
		t.Fatalf("applying its part: %v (area key match %v)", err, v.AreaKey() == tr.AreaKey())
	}
}
