package keytree

import (
	"sort"

	"mykil/internal/wire/codec"
)

// Cut is one KeyUpdate cut for the members that apply it (Tree.Cut), so
// that each is sent the entries on its own path and nothing else.
//
// The cut sits at the update's untouched frontier. A receiver's scope is
// the highest node on its root path with no entry's Under strictly below
// it; its part is every entry whose Under is that scope or one of the
// scope's ancestors — exactly the entries on the receiver's own path, in
// the update's bottom-up order. Scopes with the same list (siblings with
// no entry of their own) share one part. The scopes form an antichain
// that covers every receiver, so a part with a scope on a receiver's path
// is that receiver's part: the check wire.ReceiveKeyUpdate makes. A
// freshness rekey, one entry under the root, is one part for everyone.
//
// The zero value is ready to use, and Tree.Cut reuses its buffers, so a
// controller keeps one.
type Cut struct {
	u     *KeyUpdate
	under map[NodeID]int32    // entry index by its Under
	hot   map[NodeID]struct{} // nodes with some entry's Under strictly below
	at    map[NodeID]int32    // index into front by scope
	front []scope             // the receivers' distinct scopes
	order []int32             // front, sorted into part order
	recv  []int32             // receiver i's index into front, then its part
	// Part p's scopes are scopes[ends[p-1].scopes:ends[p].scopes] and its
	// entries u.Entries[lists[ends[p-1].list:ends[p].list]].
	scopes []NodeID
	lists  []int32
	ends   []partEnd
}

type scope struct {
	n *node
	// first is the deepest entry on n's root path, which fixes n's whole
	// list (the rest are the entries above its Under); -1 for none.
	first int32
	part  int32
}

type partEnd struct{ scopes, list int32 }

// Cut cuts u — the update this tree's last operation returned — for
// receivers, into c. A receiver that is not a member gets no part.
func (t *Tree) Cut(u *KeyUpdate, receivers []MemberID, c *Cut) {
	c.u = u
	if c.under == nil {
		c.under = make(map[NodeID]int32)
		c.hot = make(map[NodeID]struct{})
		c.at = make(map[NodeID]int32)
	}
	clear(c.under)
	clear(c.hot)
	clear(c.at)
	c.front, c.order, c.recv = c.front[:0], c.order[:0], c.recv[:0]
	c.scopes, c.lists, c.ends = c.scopes[:0], c.lists[:0], c.ends[:0]
	for i := range u.Entries {
		c.under[u.Entries[i].Under] = int32(i)
	}
	// Mark every strict ancestor of an Under hot. buildUpdate wraps no key
	// under a node without members, so walking up from every member's
	// leaf passes every Under; hot is closed upwards, so a walk stops at
	// the first node an earlier walk marked.
	for _, leaf := range t.members {
		below := false
		for n := leaf; n != nil; n = n.parent {
			if below {
				if _, done := c.hot[n.id]; done {
					break
				}
				c.hot[n.id] = struct{}{}
			}
			_, isUnder := c.under[n.id]
			below = below || isUnder
		}
	}

	for _, m := range receivers {
		s, ok := t.members[m]
		if !ok {
			c.recv = append(c.recv, -1)
			continue
		}
		for s.parent != nil {
			if _, hot := c.hot[s.parent.id]; hot {
				break
			}
			s = s.parent
		}
		i, ok := c.at[s.id]
		if !ok {
			i = int32(len(c.front))
			c.at[s.id] = i
			c.front = append(c.front, scope{n: s, first: c.firstOnPath(s)})
			c.order = append(c.order, i)
		}
		c.recv = append(c.recv, i)
	}

	sort.Sort((*partOrder)(c))
	for k, i := range c.order {
		s := &c.front[i]
		if k == 0 || s.first != c.front[c.order[k-1]].first {
			for n := s.n; n != nil; n = n.parent {
				if j, ok := c.under[n.id]; ok {
					c.lists = append(c.lists, j)
				}
			}
		}
		s.part = int32(len(c.ends))
		c.scopes = append(c.scopes, s.n.id)
		if k+1 == len(c.order) || c.front[c.order[k+1]].first != s.first {
			c.ends = append(c.ends, partEnd{int32(len(c.scopes)), int32(len(c.lists))})
		}
	}
	for i, f := range c.recv {
		if f >= 0 {
			c.recv[i] = c.front[f].part
		}
	}
}

func (c *Cut) firstOnPath(n *node) int32 {
	for ; n != nil; n = n.parent {
		if j, ok := c.under[n.id]; ok {
			return j
		}
	}
	return -1
}

// Parts returns how many parts the update was cut into.
func (c *Cut) Parts() int { return len(c.ends) }

// Part returns receiver i's part, or -1 if it is not a member.
func (c *Cut) Part(i int) int { return int(c.recv[i]) }

// AppendLeaf appends part p in AppendLeaf's encoding: its scopes, then its
// entries.
func (c *Cut) AppendLeaf(b []byte, p int) []byte {
	var from partEnd
	if p > 0 {
		from = c.ends[p-1]
	}
	to := c.ends[p]
	b = appendScopes(b, c.scopes[from.scopes:to.scopes])
	list := c.lists[from.list:to.list]
	b = codec.AppendUvarint(b, uint64(len(list)))
	for _, j := range list {
		b = c.u.Entries[j].AppendWire(b)
	}
	return b
}

// partOrder sorts a cut's scopes into part order: by their lists' first
// entries, so parts follow the update's bottom-up order and scopes with
// equal lists are adjacent, then by node ID.
type partOrder Cut

func (p *partOrder) Len() int { return len(p.order) }
func (p *partOrder) Less(i, j int) bool {
	a, b := &p.front[p.order[i]], &p.front[p.order[j]]
	if a.first != b.first {
		return a.first < b.first
	}
	return a.n.id < b.n.id
}
func (p *partOrder) Swap(i, j int) { p.order[i], p.order[j] = p.order[j], p.order[i] }
