package wire

import (
	"crypto/sha256"
	"hash"
	"sync"
)

// The Merkle tree over a KeyUpdate's parts is RFC 6962's (§2.1): a leaf
// hashes as SHA-256(0x00 ‖ leaf), an interior node as SHA-256(0x01 ‖
// left ‖ right). Built level by level from the leaves up, a level of odd
// size carries its last node up unchanged, which is the same tree as the
// RFC's split of n leaves at the largest power of two below n. An audit
// path lists, bottom-up, the sibling at every level where there is one.

type digest = [sha256.Size]byte

// appendLevels appends to tree, which holds n leaf hashes, every level
// above them, so that the root is tree's last element.
func appendLevels(tree []digest, n int) []digest {
	for lo, size := 0, n; size > 1; lo, size = lo+size, (size+1)/2 {
		for j := 0; j+1 < size; j += 2 {
			tree = append(tree, nodeHash(&tree[lo+j], &tree[lo+j+1]))
		}
		if size%2 == 1 {
			tree = append(tree, tree[lo+size-1])
		}
	}
	return tree
}

// appendProof appends leaf i's audit path out of a tree appendLevels built
// over n leaves.
func appendProof(b []byte, tree []digest, n, i int) []byte {
	for lo, size := 0, n; size > 1; lo, size, i = lo+size, (size+1)/2, i/2 {
		if sib := i ^ 1; sib < size {
			b = append(b, tree[lo+sib][:]...)
		}
	}
	return b
}

// proofLen returns how many hashes the audit path of leaf index holds in
// a tree of count > index leaves: one per level at which the index's node
// has a sibling, that is, is odd or not the level's last.
func proofLen(index, count uint64) int {
	n := 0
	for last := count - 1; last > 0; index, last = index/2, last/2 {
		if index%2 == 1 || index < last {
			n++
		}
	}
	return n
}

// foldProof hashes leaf and folds it up proof, leaf index's audit path in
// a tree of count leaves, into the root that path leads to; false when
// the index is out of range or the proof is not exactly that path long.
// It allocates nothing.
func foldProof(proof, leaf []byte, index, count uint64) (h digest, ok bool) {
	if index >= count || len(proof) != proofLen(index, count)*sha256.Size {
		return h, false
	}
	h = hashLeaf(leaf)
	for last := count - 1; last > 0; index, last = index/2, last/2 {
		if index%2 == 0 && index == last {
			continue // carried up unchanged
		}
		var sib digest
		copy(sib[:], proof)
		proof = proof[sha256.Size:]
		if index%2 == 1 {
			h = nodeHash(&sib, &h)
		} else {
			h = nodeHash(&h, &sib)
		}
	}
	return h, true
}

func nodeHash(left, right *digest) digest {
	var b [1 + 2*sha256.Size]byte
	b[0] = 0x01
	copy(b[1:], left[:])
	copy(b[1+sha256.Size:], right[:])
	return sha256.Sum256(b[:])
}

// leafHashers pools the streaming hashes leaves need — the 0x00 prefix
// and a leaf that is a window onto a shared delivery buffer cannot go to
// sha256.Sum256 as one slice without a copy — so a receiver hashes its
// leaf without allocating.
var leafHashers = sync.Pool{New: func() any { return &leafHasher{h: sha256.New()} }}

type leafHasher struct {
	h   hash.Hash
	sum []byte
}

var leafPrefix = []byte{0x00}

func hashLeaf(leaf []byte) (d digest) {
	lh := leafHashers.Get().(*leafHasher)
	lh.h.Reset()
	lh.h.Write(leafPrefix)
	lh.h.Write(leaf)
	lh.sum = lh.h.Sum(lh.sum[:0])
	copy(d[:], lh.sum)
	leafHashers.Put(lh)
	return d
}
