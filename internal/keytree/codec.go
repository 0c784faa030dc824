package keytree

import (
	"mykil/internal/crypt"
	"mykil/internal/wire/codec"
)

// This file defines the compact wire encoding of the key material this
// package produces — the rekey entries multicast in every KeyUpdate and
// the per-member path keys unicast at join — so the bytes the bandwidth
// experiments count are the bytes the deterministic codec actually puts
// on the wire, with no gob type descriptors inflating them.

// entryMinWire is the smallest possible encoded Entry: two one-byte
// varint node IDs plus an empty-ciphertext length prefix. Decoders use
// it to bound claimed entry counts against the input size.
const entryMinWire = 3

// pathKeyMinWire is the smallest encoded PathKey: a one-byte varint
// node ID plus the fixed-width key.
const pathKeyMinWire = 1 + crypt.SymKeyLen

// AppendWire appends the entry's compact encoding.
func (e Entry) AppendWire(b []byte) []byte {
	b = codec.AppendVarint(b, int64(e.Node))
	b = codec.AppendVarint(b, int64(e.Under))
	return codec.AppendBytes(b, e.Ciphertext)
}

// WireLen returns the length of the entry's AppendWire encoding.
func (e Entry) WireLen() int {
	return codec.VarintLen(int64(e.Node)) + codec.VarintLen(int64(e.Under)) +
		codec.UvarintLen(uint64(len(e.Ciphertext))) + len(e.Ciphertext)
}

// ReadWire decodes an Entry written by AppendWire. Ciphertext borrows
// the reader's input instead of copying it: a member unwraps the handful
// of entries on its own path into fresh keys and drops the rest, so a
// rekey's ~10 KB of ciphertext is not duplicated per receiver. The entry
// is valid only while that input (the delivered frame) is unmodified.
func (e *Entry) ReadWire(r *codec.Reader) error {
	e.Node = NodeID(r.Varint())
	e.Under = NodeID(r.Varint())
	e.Ciphertext = r.BorrowBytes()
	return r.Err()
}

// AppendEntries appends a counted list of rekey entries.
func AppendEntries(b []byte, es []Entry) []byte {
	b = codec.AppendUvarint(b, uint64(len(es)))
	for _, e := range es {
		b = e.AppendWire(b)
	}
	return b
}

// ReadEntries decodes an AppendEntries list.
func ReadEntries(r *codec.Reader) ([]Entry, error) {
	n := r.Count(entryMinWire)
	if n == 0 {
		return nil, r.Err()
	}
	es := make([]Entry, n)
	for i := range es {
		if err := es[i].ReadWire(r); err != nil {
			return nil, err
		}
	}
	return es, nil
}

// AppendWire appends the path key's compact encoding: the node ID and
// the raw fixed-width key.
func (p PathKey) AppendWire(b []byte) []byte {
	b = codec.AppendVarint(b, int64(p.Node))
	return codec.AppendRaw(b, p.Key[:])
}

// ReadWire decodes a PathKey written by AppendWire.
func (p *PathKey) ReadWire(r *codec.Reader) error {
	p.Node = NodeID(r.Varint())
	copy(p.Key[:], r.Raw(crypt.SymKeyLen))
	return r.Err()
}

// AppendPathKeys appends a counted list of path keys (leaf first, as
// produced by Tree.PathKeys).
func AppendPathKeys(b []byte, ps []PathKey) []byte {
	b = codec.AppendUvarint(b, uint64(len(ps)))
	for _, p := range ps {
		b = p.AppendWire(b)
	}
	return b
}

// ReadPathKeys decodes an AppendPathKeys list.
func ReadPathKeys(r *codec.Reader) ([]PathKey, error) {
	n := r.Count(pathKeyMinWire)
	if n == 0 {
		return nil, r.Err()
	}
	ps := make([]PathKey, n)
	for i := range ps {
		if err := ps[i].ReadWire(r); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

// snapshotNodeMinWire is the smallest encoded SnapshotNode: one-byte
// varint ID, one-byte varint parent index, the fixed-width key, and an
// empty member-ID length prefix.
const snapshotNodeMinWire = 2 + crypt.SymKeyLen + 1

// AppendWire appends the node's compact encoding.
func (sn SnapshotNode) AppendWire(b []byte) []byte {
	b = codec.AppendVarint(b, int64(sn.ID))
	b = codec.AppendVarint(b, int64(sn.Parent))
	b = codec.AppendRaw(b, sn.Key[:])
	return codec.AppendString(b, string(sn.Member))
}

// ReadWire decodes a SnapshotNode written by AppendWire.
func (sn *SnapshotNode) ReadWire(r *codec.Reader) error {
	sn.ID = NodeID(r.Varint())
	sn.Parent = int(r.Varint())
	copy(sn.Key[:], r.Raw(crypt.SymKeyLen))
	sn.Member = MemberID(r.String())
	return r.Err()
}

// AppendWire appends the full tree snapshot: arity, epoch, and the
// pre-order node list. This is the image the replica protocol ships and
// the journal persists; Import validates structure after decoding.
func (s *Snapshot) AppendWire(b []byte) []byte {
	b = codec.AppendUvarint(b, uint64(s.Arity))
	b = codec.AppendUvarint(b, s.Epoch)
	b = codec.AppendUvarint(b, uint64(len(s.Nodes)))
	for _, sn := range s.Nodes {
		b = sn.AppendWire(b)
	}
	return b
}

// ReadSnapshot decodes an AppendWire snapshot.
func ReadSnapshot(r *codec.Reader) (*Snapshot, error) {
	s := &Snapshot{
		Arity: int(r.Uvarint()),
		Epoch: r.Uvarint(),
	}
	n := r.Count(snapshotNodeMinWire)
	if n > 0 {
		s.Nodes = make([]SnapshotNode, n)
		for i := range s.Nodes {
			if err := s.Nodes[i].ReadWire(r); err != nil {
				return nil, err
			}
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return s, nil
}
