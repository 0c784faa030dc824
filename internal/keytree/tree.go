// Package keytree implements Mykil's per-area auxiliary-key tree (§III-C
// through §III-E of the paper): an LKH-style hierarchy of symmetric keys
// maintained by an area controller. Each member occupies a leaf and holds
// the keys on its root path; the root key is the area key.
//
// The implementation follows the paper's specific choices:
//
//   - the tree is kept balanced with a configurable arity (the paper
//     prescribes 4 children per node, while its bandwidth arithmetic uses
//     binary-tree depths — both are one Config field away);
//   - when no empty leaf exists, a join splits the shallowest, oldest
//     occupied leaf, moving the displaced member to the first new child
//     (§III-C, Fig. 4);
//   - a leave does NOT prune the vacated leaf, keeping future joins cheap
//     (§III-D); pruning is available behind a flag for the ablation bench;
//   - join, leave, and mixed batches produce a single KeyUpdate with the
//     per-path de-duplication of §III-E (Fig. 6).
package keytree

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"

	"mykil/internal/crypt"
)

// DefaultArity is the fan-out the paper prescribes (§III-C: "up to four
// children ... best overall performance").
const DefaultArity = 4

// Errors returned by tree operations.
var (
	ErrMemberExists  = errors.New("keytree: member already in tree")
	ErrMemberUnknown = errors.New("keytree: member not in tree")
	ErrEmptyBatch    = errors.New("keytree: batch contains no events")
	ErrDuplicate     = errors.New("keytree: duplicate member in batch")
)

// Config parameterizes a Tree. The zero value yields a 4-ary, no-prune,
// real-encryption tree.
type Config struct {
	// Arity is the maximum children per node; 0 means DefaultArity.
	Arity int
	// Encryptor wraps rekey entries; nil means NewSuiteEncryptor(nil),
	// real encryption under the legacy suite.
	Encryptor Encryptor
	// KeyGen supplies fresh keys; nil means crypt.NewSymKey. Large-scale
	// accounting experiments may inject a cheaper PRNG.
	KeyGen func() crypt.SymKey
	// Prune removes fully empty subtrees after leaves. The paper keeps
	// vacated leaves (cheap future joins); this flag exists for the
	// ablation benchmark.
	Prune bool
	// Parallel, if set, runs n independent tasks (task(i) for i in
	// [0,n)) concurrently and returns when all have completed. Large
	// updates use it to fan per-entry key encryption out across cores;
	// the Encryptor must then be safe for concurrent use (all provided
	// implementations are). Nil means serial encryption.
	Parallel func(n int, task func(i int))
	// ReuseUpdates, if set, makes BatchResult.Update (its Entries slice
	// AND every entry's Ciphertext) alias tree-owned scratch that is
	// overwritten by the NEXT tree operation. Steady-state rekey
	// construction then performs zero heap allocations; without it every
	// update owns a freshly allocated arena. Callers must fully consume
	// (encode or copy) each update before issuing another operation; the
	// area controller qualifies because it encodes rekey frames
	// synchronously.
	ReuseUpdates bool
}

// parallelUpdateMin is the entry count below which an update is encrypted
// serially even when Config.Parallel is set: tiny batches are cheaper on
// one core than the hand-off costs.
const parallelUpdateMin = 8

type node struct {
	id       NodeID
	depth    int
	key      crypt.SymKey
	parent   *node
	children []*node
	member   MemberID // empty string for internal nodes and vacant leaves
	detached bool     // true once pruned out of the tree
	// memberCount caches the number of members in this subtree, kept
	// incrementally so rekey generation can skip key material no current
	// member holds.
	memberCount int
}

func (n *node) isLeaf() bool     { return len(n.children) == 0 }
func (n *node) occupied() bool   { return !n.detached && n.isLeaf() && n.member != "" }
func (n *node) vacantLeaf() bool { return !n.detached && n.isLeaf() && n.member == "" }

// nodeChunkSize is how many nodes one arena chunk holds. Chunked
// allocation replaces one heap object per node with one per 512 nodes: a
// 100k-member area tree allocates ~400 chunks instead of ~200k node
// objects, cutting allocator overhead and improving locality for the
// path walks every rekey performs.
const nodeChunkSize = 512

// Tree is the authoritative auxiliary-key tree an area controller (or the
// LKH baseline's key server) maintains. Not safe for concurrent use; the
// area controller serializes operations.
type Tree struct {
	cfg      Config
	root     *node
	nextID   NodeID
	epoch    uint64
	members  map[MemberID]*node
	vacant   *nodeHeap // vacant leaves, shallowest first
	occupied *nodeHeap // occupied leaves, split candidates, shallowest first
	maxDepth int
	numNodes int
	// rootWas is the root's key before the last operation (Cut).
	rootWas crypt.SymKey
	// chunks is the node arena. Nodes are never freed individually
	// (pruned nodes stay detached in place — the prune path is an
	// ablation flag, and stale heap entries may still reference them),
	// so the arena only ever grows, one chunk at a time.
	chunks [][]node

	// Reusable update-construction scratch, live only under
	// Config.ReuseUpdates: the KeyUpdate handed out by the last
	// operation, its entries' ciphertext arena, and the ordering/pair
	// buffers buildUpdate works in. Each operation overwrites all four.
	updScratch   KeyUpdate
	ctArena      []byte
	nodesScratch []*node
	pairsScratch []encPair
	sorter       nodeSorter
}

// nodeSorter orders update nodes deepest-first (ties by ID) through a
// pointer receiver: sort.Slice boxes its slice and closure arguments on
// every call, while sort.Sort on a tree-owned *nodeSorter does not —
// which keeps the ReuseUpdates construction path allocation-free.
type nodeSorter struct{ nodes []*node }

func (s *nodeSorter) Len() int { return len(s.nodes) }
func (s *nodeSorter) Less(i, j int) bool {
	if s.nodes[i].depth != s.nodes[j].depth {
		return s.nodes[i].depth > s.nodes[j].depth
	}
	return s.nodes[i].id < s.nodes[j].id
}
func (s *nodeSorter) Swap(i, j int) { s.nodes[i], s.nodes[j] = s.nodes[j], s.nodes[i] }

// encPair is one pending entry encryption: new key `key` wrapped under
// `under`.
type encPair struct{ under, key crypt.SymKey }

// New creates an empty tree.
func New(cfg Config) *Tree {
	if cfg.Arity == 0 {
		cfg.Arity = DefaultArity
	}
	if cfg.Arity < 2 {
		cfg.Arity = 2
	}
	if cfg.Encryptor == nil {
		cfg.Encryptor = NewSuiteEncryptor(nil)
	}
	if cfg.KeyGen == nil {
		cfg.KeyGen = crypt.NewSymKey
	}
	t := &Tree{
		cfg:      cfg,
		members:  make(map[MemberID]*node),
		vacant:   &nodeHeap{},
		occupied: &nodeHeap{},
	}
	t.root = t.newNode(nil)
	heap.Push(t.vacant, t.root)
	return t
}

func (t *Tree) newNode(parent *node) *node {
	n := t.allocNode()
	n.id = t.nextID
	n.key = t.cfg.KeyGen()
	n.parent = parent
	t.nextID++
	t.numNodes++
	if parent != nil {
		n.depth = parent.depth + 1
		if n.depth > t.maxDepth {
			t.maxDepth = n.depth
		}
	}
	return n
}

// allocNode carves a zeroed node out of the arena, growing it by one
// chunk when the current one is full. Returned pointers are stable: a
// chunk's backing array is never reallocated once created.
func (t *Tree) allocNode() *node {
	if len(t.chunks) == 0 || len(t.chunks[len(t.chunks)-1]) == nodeChunkSize {
		t.chunks = append(t.chunks, make([]node, 0, nodeChunkSize))
	}
	c := &t.chunks[len(t.chunks)-1]
	*c = append(*c, node{})
	return &(*c)[len(*c)-1]
}

// Arity returns the tree's fan-out.
func (t *Tree) Arity() int { return t.cfg.Arity }

// Epoch returns the current key epoch, incremented by every update.
func (t *Tree) Epoch() uint64 { return t.epoch }

// AreaKey returns the current root (area) key.
func (t *Tree) AreaKey() crypt.SymKey { return t.root.key }

// NumMembers returns the number of members in the tree.
func (t *Tree) NumMembers() int { return len(t.members) }

// NumNodes returns the number of live nodes — the count of auxiliary keys
// the area controller stores (§V-A).
func (t *Tree) NumNodes() int { return t.numNodes }

// Depth returns the maximum leaf depth (root = 0).
func (t *Tree) Depth() int { return t.maxDepth }

// HasMember reports whether m currently occupies a leaf.
func (t *Tree) HasMember(m MemberID) bool {
	_, ok := t.members[m]
	return ok
}

// Members returns all member IDs in no particular order.
func (t *Tree) Members() []MemberID {
	out := make([]MemberID, 0, len(t.members))
	for m := range t.members {
		out = append(out, m)
	}
	return out
}

// PathNodeIDs returns the node IDs on m's path, leaf first.
func (t *Tree) PathNodeIDs(m MemberID) ([]NodeID, error) {
	leaf, ok := t.members[m]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrMemberUnknown, m)
	}
	var ids []NodeID
	for n := leaf; n != nil; n = n.parent {
		ids = append(ids, n.id)
	}
	return ids, nil
}

// PathKeys returns m's current path key material, leaf first — what join
// step 7 or a replica-restored controller hands the member.
func (t *Tree) PathKeys(m MemberID) (PathKeys, error) {
	leaf, ok := t.members[m]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrMemberUnknown, m)
	}
	var pks PathKeys
	for n := leaf; n != nil; n = n.parent {
		pks = append(pks, PathKey{Node: n.id, Key: n.key})
	}
	return pks, nil
}

// Preload bulk-admits members without generating rekey messages or path
// material — the fast path experiment harnesses use to stand up
// 100,000-member trees. On an empty tree it builds an evenly balanced
// tree (sibling subtree populations differ by at most one), matching the
// complete-tree assumption in the paper's §V analysis; on a populated
// tree it falls back to one-by-one placement. Epoch advances once. Must
// not be mixed with in-flight member views (they would miss the epoch).
func (t *Tree) Preload(ms []MemberID) error {
	if err := t.validateBatch(ms, nil); err != nil {
		return err
	}
	if len(ms) == 0 {
		return nil
	}
	if len(t.members) == 0 && t.numNodes == 1 {
		t.fillBalanced(t.root, ms)
	} else {
		fresh := make(map[NodeID]bool)
		for _, m := range ms {
			t.place(m, fresh)
		}
	}
	t.epoch++
	return nil
}

// fillBalanced recursively assigns members to an evenly divided subtree
// rooted at n.
func (t *Tree) fillBalanced(n *node, ms []MemberID) {
	n.memberCount = len(ms)
	if len(ms) == 1 {
		n.member = ms[0]
		t.members[ms[0]] = n
		heap.Push(t.occupied, n)
		return
	}
	parts := t.cfg.Arity
	if len(ms) < parts {
		parts = len(ms)
	}
	n.children = make([]*node, parts)
	base, rem := len(ms)/parts, len(ms)%parts
	idx := 0
	for i := 0; i < parts; i++ {
		size := base
		if i < rem {
			size++
		}
		c := t.newNode(n)
		n.children[i] = c
		t.fillBalanced(c, ms[idx:idx+size])
		idx += size
	}
}

// CohortOf returns up to k members (including m) occupying one subtree —
// the "leave in same group, best case" population of the paper's Fig. 10
// aggregation experiment. It walks up from m's leaf until the enclosing
// subtree holds at least k members, then returns the first k in DFS order.
func (t *Tree) CohortOf(m MemberID, k int) ([]MemberID, error) {
	leaf, ok := t.members[m]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrMemberUnknown, m)
	}
	n := leaf
	for n.parent != nil && countMembers(n) < k {
		n = n.parent
	}
	out := make([]MemberID, 0, k)
	collectMembers(n, k, &out)
	return out, nil
}

// SpreadMembers returns up to k members with maximally disjoint root paths
// — the Fig. 10 "worst case" population. It descends breadth-first until at
// least k populated subtrees exist, then takes one member from each.
func (t *Tree) SpreadMembers(k int) []MemberID {
	frontier := []*node{t.root}
	for {
		populated := 0
		var next []*node
		for _, n := range frontier {
			if countMembers(n) > 0 {
				populated++
			}
			next = append(next, n.children...)
		}
		if populated >= k || len(next) == 0 {
			break
		}
		// Only descend while we can still widen the populated frontier.
		nextPopulated := 0
		for _, n := range next {
			if countMembers(n) > 0 {
				nextPopulated++
			}
		}
		if nextPopulated <= populated && populated > 0 {
			break
		}
		frontier = next
	}
	out := make([]MemberID, 0, k)
	for _, n := range frontier {
		if len(out) == k {
			break
		}
		var one []MemberID
		collectMembers(n, 1, &one)
		out = append(out, one...)
	}
	return out
}

func countMembers(n *node) int { return n.memberCount }

func collectMembers(n *node, k int, out *[]MemberID) {
	if len(*out) >= k {
		return
	}
	if n.isLeaf() {
		if n.member != "" {
			*out = append(*out, n.member)
		}
		return
	}
	for _, c := range n.children {
		collectMembers(c, k, out)
	}
}

// BatchResult reports everything an area controller must transmit after
// one rekey operation.
type BatchResult struct {
	// Epoch is the tree epoch after the operation.
	Epoch uint64
	// Update is the rekey message multicast to existing area members. Nil
	// when there are no existing members to inform.
	Update *KeyUpdate
	// Joined holds, per newly admitted member, the full path keys to
	// unicast (join protocol step 7 / rejoin step 6).
	Joined map[MemberID]PathKeys
	// Displaced holds fresh path keys for members whose leaf moved during
	// a split (§III-C: "Unicast the list of new auxiliary keys ... to m_c").
	Displaced map[MemberID]PathKeys
}

// Join admits one member immediately (no batching).
func (t *Tree) Join(m MemberID) (*BatchResult, error) {
	return t.Batch([]MemberID{m}, nil)
}

// Leave removes one member immediately (no batching).
func (t *Tree) Leave(m MemberID) (*BatchResult, error) {
	return t.Batch(nil, []MemberID{m})
}

// BatchJoin admits several members in one rekey operation (§III-E join
// aggregation).
func (t *Tree) BatchJoin(ms []MemberID) (*BatchResult, error) {
	return t.Batch(ms, nil)
}

// BatchLeave removes several members in one rekey operation (§III-E leave
// aggregation, Fig. 6).
func (t *Tree) BatchLeave(ms []MemberID) (*BatchResult, error) {
	return t.Batch(nil, ms)
}

// RefreshAreaKey rotates only the root (area) key, leaving the auxiliary
// hierarchy untouched — the paper's §III-E freshness rekey, performed
// when the rekey interval elapses with no membership events. The update
// carries one entry: the new area key encrypted under the previous one.
func (t *Tree) RefreshAreaKey() *BatchResult {
	oldKey := t.root.key
	t.rootWas = oldKey
	t.root.key = t.cfg.KeyGen()
	t.epoch++
	update := &KeyUpdate{Epoch: t.epoch}
	if t.NumMembers() > 0 {
		update.Entries = append(update.Entries, Entry{
			Node:       t.root.id,
			Under:      t.root.id,
			Ciphertext: t.cfg.Encryptor.EncryptKeyTo(nil, oldKey, t.root.key),
		})
	}
	return &BatchResult{
		Epoch:     t.epoch,
		Update:    update,
		Joined:    map[MemberID]PathKeys{},
		Displaced: map[MemberID]PathKeys{},
	}
}

// Batch performs one rekey operation covering all given joins and leaves
// (§III-E joint aggregation). Path updates shared between events are
// applied once. A member may not appear in both lists.
func (t *Tree) Batch(joins, leaves []MemberID) (*BatchResult, error) {
	if len(joins) == 0 && len(leaves) == 0 {
		return nil, ErrEmptyBatch
	}
	if err := t.validateBatch(joins, leaves); err != nil {
		return nil, err
	}
	t.rootWas = t.root.key

	// fresh tracks nodes created or freshly keyed during this operation:
	// no prior member holds their old key, so they never appear as a
	// multicast entry and never serve as an encryption target.
	fresh := make(map[NodeID]bool)
	changed := make(map[NodeID]*node)

	// Leaves first: vacated leaves become placement targets for joins in
	// the same batch, maximizing reuse.
	for _, m := range leaves {
		leaf := t.members[m]
		t.detachMember(leaf)
		if t.cfg.Prune {
			t.prune(leaf)
		} else {
			heap.Push(t.vacant, leaf)
		}
		// Paper §III-D / Fig. 5: all keys on the path from the vacated
		// leaf to the root change. The vacated leaf itself holds no
		// member, so only strict ancestors are refreshed.
		for n := leaf.parent; n != nil; n = n.parent {
			changed[n.id] = n
		}
	}

	result := &BatchResult{
		Joined:    make(map[MemberID]PathKeys, len(joins)),
		Displaced: make(map[MemberID]PathKeys),
	}
	joining := make(map[MemberID]bool, len(joins))
	for _, m := range joins {
		joining[m] = true
	}
	displaced := make(map[MemberID]bool)

	for _, m := range joins {
		leaf, moved := t.place(m, fresh)
		// A member that joined earlier in this same batch and was then
		// displaced by a split is reported once, via Joined, with its
		// final path.
		if moved != "" && !joining[moved] {
			displaced[moved] = true
		}
		for n := leaf.parent; n != nil; n = n.parent {
			changed[n.id] = n
		}
	}

	// Assign new keys to every changed node that was not freshly created,
	// in sorted node order: KeyGen draws must happen in a reproducible
	// sequence so a journaled batch replays to the identical tree (map
	// iteration order would scramble seeded key streams).
	changedIDs := make([]NodeID, 0, len(changed))
	for id := range changed {
		changedIDs = append(changedIDs, id)
	}
	sort.Slice(changedIDs, func(a, b int) bool { return changedIDs[a] < changedIDs[b] })
	oldKeys := make(map[NodeID]crypt.SymKey, len(changed))
	for _, id := range changedIDs {
		if fresh[id] {
			continue
		}
		n := changed[id]
		oldKeys[id] = n.key
		n.key = t.cfg.KeyGen()
	}

	t.epoch++
	result.Epoch = t.epoch
	result.Update = t.buildUpdate(changed, fresh, oldKeys, len(leaves) > 0)

	for _, m := range joins {
		pks, err := t.PathKeys(m)
		if err != nil {
			return nil, err // unreachable: member placed above
		}
		result.Joined[m] = pks
	}
	for m := range displaced {
		if _, stillIn := t.members[m]; !stillIn {
			continue // displaced and also left in the same batch: nothing to send
		}
		pks, err := t.PathKeys(m)
		if err != nil {
			return nil, err
		}
		result.Displaced[m] = pks
	}
	return result, nil
}

func (t *Tree) validateBatch(joins, leaves []MemberID) error {
	seen := make(map[MemberID]bool, len(joins)+len(leaves))
	for _, m := range joins {
		if seen[m] {
			return fmt.Errorf("%w: %q", ErrDuplicate, m)
		}
		seen[m] = true
		if _, ok := t.members[m]; ok {
			return fmt.Errorf("%w: %q", ErrMemberExists, m)
		}
	}
	for _, m := range leaves {
		if seen[m] {
			return fmt.Errorf("%w: %q", ErrDuplicate, m)
		}
		seen[m] = true
		if _, ok := t.members[m]; !ok {
			return fmt.Errorf("%w: %q", ErrMemberUnknown, m)
		}
	}
	return nil
}

// place finds a leaf for m per §III-C: reuse the shallowest vacant leaf if
// one exists, otherwise split the shallowest occupied leaf. Returns the
// new leaf and the member displaced by a split ("" if none). Nodes whose
// keys no prior member could hold are recorded in fresh.
func (t *Tree) place(m MemberID, fresh map[NodeID]bool) (leaf *node, moved MemberID) {
	if v := t.popVacant(); v != nil {
		// The vacated leaf's old key may be known to a departed member;
		// re-key it before reuse.
		v.key = t.cfg.KeyGen()
		t.attachMember(v, m)
		fresh[v.id] = true
		heap.Push(t.occupied, v)
		return v, ""
	}

	target := t.popOccupied()
	if target == nil {
		// Tree has no occupied leaf either: first member sits at the root.
		t.root.key = t.cfg.KeyGen()
		t.attachMember(t.root, m)
		fresh[t.root.id] = true
		heap.Push(t.occupied, t.root)
		return t.root, ""
	}

	// Split: target stops being a leaf; its member moves to child 0, the
	// newcomer takes child 1, the rest start vacant (Fig. 4).
	moved = target.member
	t.detachMember(target)
	target.children = make([]*node, t.cfg.Arity)
	for i := range target.children {
		c := t.newNode(target)
		target.children[i] = c
		fresh[c.id] = true
	}
	movedLeaf := target.children[0]
	t.attachMember(movedLeaf, moved)
	heap.Push(t.occupied, movedLeaf)

	leaf = target.children[1]
	t.attachMember(leaf, m)
	heap.Push(t.occupied, leaf)

	for _, c := range target.children[2:] {
		heap.Push(t.vacant, c)
	}
	return leaf, moved
}

// attachMember assigns m to an empty leaf, updating subtree counts.
func (t *Tree) attachMember(leaf *node, m MemberID) {
	leaf.member = m
	t.members[m] = leaf
	for n := leaf; n != nil; n = n.parent {
		n.memberCount++
	}
}

// detachMember vacates a leaf, updating subtree counts.
func (t *Tree) detachMember(leaf *node) {
	delete(t.members, leaf.member)
	leaf.member = ""
	for n := leaf; n != nil; n = n.parent {
		n.memberCount--
	}
}

// popVacant pops the shallowest currently-valid vacant leaf, discarding
// stale heap entries.
func (t *Tree) popVacant() *node {
	for t.vacant.Len() > 0 {
		n := heap.Pop(t.vacant).(*node)
		if n.vacantLeaf() {
			return n
		}
	}
	return nil
}

// popOccupied pops the shallowest currently-valid occupied leaf.
func (t *Tree) popOccupied() *node {
	for t.occupied.Len() > 0 {
		n := heap.Pop(t.occupied).(*node)
		if n.occupied() {
			return n
		}
	}
	return nil
}

// prune removes leaf and, if that empties its parent of children entirely,
// recurses upward (ablation path only).
func (t *Tree) prune(leaf *node) {
	parent := leaf.parent
	if parent == nil {
		// Root leaf: keep it as the tree's single vacant leaf.
		heap.Push(t.vacant, leaf)
		return
	}
	// Only prune when every sibling is a vacant leaf; otherwise keep the
	// vacated leaf for reuse.
	for _, c := range parent.children {
		if c != leaf && !c.vacantLeaf() {
			heap.Push(t.vacant, leaf)
			return
		}
	}
	for _, c := range parent.children {
		c.detached = true
	}
	t.numNodes -= len(parent.children)
	parent.children = nil
	t.prune(parent)
}

// buildUpdate produces the multicast rekey message. leaveMode selects the
// §III-D per-child encryption (required when a leaver knows old keys);
// pure joins use the cheaper self-encryption E_old(new).
func (t *Tree) buildUpdate(changed map[NodeID]*node, fresh map[NodeID]bool,
	oldKeys map[NodeID]crypt.SymKey, leaveMode bool) *KeyUpdate {

	reuse := t.cfg.ReuseUpdates
	nodes := t.nodesScratch[:0]
	if !reuse {
		nodes = make([]*node, 0, len(changed))
	}
	for _, n := range changed {
		nodes = append(nodes, n)
	}
	// Bottom-up: deepest first so members can apply entries sequentially.
	// Ties broken by ID for deterministic output.
	t.sorter.nodes = nodes
	sort.Sort(&t.sorter)

	// Two phases: collect every entry's structure and key pair first,
	// then fill the ciphertexts — serially, or fanned out through
	// Config.Parallel for large updates. The entry order is identical
	// either way (it was fixed by the collection pass).
	var u *KeyUpdate
	var pairs []encPair
	if reuse {
		t.updScratch = KeyUpdate{Epoch: t.epoch, Entries: t.updScratch.Entries[:0]}
		u = &t.updScratch
		pairs = t.pairsScratch[:0]
	} else {
		u = &KeyUpdate{Epoch: t.epoch}
		pairs = make([]encPair, 0, len(changed))
	}
	for _, n := range nodes {
		if fresh[n.id] {
			// Newly created node: holders receive it by unicast only.
			continue
		}
		if leaveMode {
			if n.memberCount == 0 {
				// The whole subtree emptied: no current member needs
				// this node's key at all.
				continue
			}
			for _, c := range n.children {
				if c.vacantLeaf() || fresh[c.id] || c.memberCount == 0 {
					// No current member holds this child's key (vacant
					// leaf or emptied subtree), or its holders get fresh
					// paths by unicast.
					continue
				}
				u.Entries = append(u.Entries, Entry{Node: n.id, Under: c.id})
				pairs = append(pairs, encPair{c.key, n.key})
			}
		} else {
			u.Entries = append(u.Entries, Entry{Node: n.id, Under: n.id})
			pairs = append(pairs, encPair{oldKeys[n.id], n.key})
		}
	}
	if reuse {
		// Keep grown capacity for the next operation.
		t.nodesScratch = nodes
		t.pairsScratch = pairs
	}

	// Ciphertext placement: all entries share one arena — the tree's
	// scratch under ReuseUpdates, a fresh one otherwise — each assigned a
	// disjoint zero-length sub-slice up front so parallel fills stay
	// race-free.
	enc := t.cfg.Encryptor
	ctLen := enc.KeyCiphertextLen()
	need := len(pairs) * ctLen
	var arena []byte
	if !reuse {
		arena = make([]byte, need)
	} else {
		if cap(t.ctArena) < need {
			t.ctArena = make([]byte, 0, need)
		}
		arena = t.ctArena[:cap(t.ctArena)]
	}
	// The closure exists only on the parallel branch: hoisting it would
	// heap-allocate it on the serial path too.
	if t.cfg.Parallel != nil && len(pairs) >= parallelUpdateMin {
		t.cfg.Parallel(len(pairs), func(i int) {
			u.Entries[i].Ciphertext = enc.EncryptKeyTo(arena[i*ctLen:i*ctLen:(i+1)*ctLen], pairs[i].under, pairs[i].key)
		})
	} else {
		for i := range pairs {
			u.Entries[i].Ciphertext = enc.EncryptKeyTo(arena[i*ctLen:i*ctLen:(i+1)*ctLen], pairs[i].under, pairs[i].key)
		}
	}
	return u
}

// nodeHeap orders leaves by (depth, id): shallowest first, oldest first
// within a depth — the paper's "shallowest, left-most" rule under
// creation order. Entries may be stale; consumers validate on pop.
type nodeHeap []*node

var _ heap.Interface = (*nodeHeap)(nil)

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].depth != h[j].depth {
		return h[i].depth < h[j].depth
	}
	return h[i].id < h[j].id
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return item
}
