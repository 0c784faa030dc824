package keytree

import (
	"mykil/internal/crypt"
	"mykil/internal/wire/codec"
)

// Cut is one KeyUpdate cut per receiver (Tree.Cut): each member that
// applies the update is sent the entries whose Under lies on its own
// root path, in the update's bottom-up order, and nothing else — what
// its MemberView can open. A freshness rekey, one entry under the root,
// is that one entry for everyone. With each part goes the key of the
// receiver's leaf, which only the receiver and its controller hold, so
// the part can be authenticated to that receiver alone.
//
// A cut reads the tree and the receivers it was made from, so it is
// valid until the tree's next operation or a change to receivers; it
// keeps nothing per receiver, walking a receiver's path when asked. The
// zero value is ready to use, and Tree.Cut reuses its map, so a
// controller keeps one.
type Cut struct {
	t         *Tree
	u         *KeyUpdate
	under     map[NodeID]int32 // entry index by its Under
	receivers []MemberID
}

// Cut cuts u — the update this tree's last operation returned — for
// receivers, into c. A receiver that is not a member gets no part.
func (t *Tree) Cut(u *KeyUpdate, receivers []MemberID, c *Cut) {
	c.t, c.u, c.receivers = t, u, receivers
	if c.under == nil {
		c.under = make(map[NodeID]int32)
	}
	clear(c.under)
	for i := range u.Entries {
		c.under[u.Entries[i].Under] = int32(i)
	}
}

// Len returns how many receivers the update was cut for.
func (c *Cut) Len() int { return len(c.receivers) }

// Leaf returns the key receiver i holds for its leaf as it receives the
// update, or false if it is not a member.
func (c *Cut) Leaf(i int) (crypt.SymKey, bool) {
	leaf, ok := c.t.members[c.receivers[i]]
	if !ok {
		return crypt.SymKey{}, false
	}
	if j, on := c.under[leaf.id]; on && c.u.Entries[j].Node == leaf.id {
		// The update rekeyed the receiver's own leaf in place — a lone
		// member at the root, under a freshness rekey — so it still
		// holds the key the root had before.
		return c.t.rootWas, true
	}
	return leaf.key, true
}

// EntriesLen returns the length of member receiver i's AppendEntries
// list.
func (c *Cut) EntriesLen(i int) int {
	n, size := 0, 0
	for v := c.t.members[c.receivers[i]]; v != nil; v = v.parent {
		if j, on := c.under[v.id]; on {
			n++
			size += c.u.Entries[j].WireLen()
		}
	}
	return codec.UvarintLen(uint64(n)) + size
}

// AppendEntries appends member receiver i's entries as an AppendEntries
// list.
func (c *Cut) AppendEntries(b []byte, i int) []byte {
	leaf := c.t.members[c.receivers[i]]
	n := 0
	for v := leaf; v != nil; v = v.parent {
		if _, on := c.under[v.id]; on {
			n++
		}
	}
	b = codec.AppendUvarint(b, uint64(n))
	for v := leaf; v != nil; v = v.parent {
		if j, on := c.under[v.id]; on {
			b = c.u.Entries[j].AppendWire(b)
		}
	}
	return b
}
