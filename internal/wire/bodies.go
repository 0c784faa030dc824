package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"mykil/internal/crypt"
	"mykil/internal/keytree"
	"mykil/internal/wire/codec"
)

// This file implements the Body interface — AppendWire (value receiver)
// and ReadWire (pointer receiver) — for every message struct, plus the
// kind→constructor registry that replaces gob's reflective type
// dispatch. Field order on the wire is declaration order; changing it,
// or a field's encoding, changes the wire format and must trip the
// golden-bytes test.
//
// Encoding conventions:
//   - strings and variable byte fields: uvarint length prefix + raw bytes
//   - nonces: 8 fixed little-endian bytes (uniformly random values would
//     cost 9–10 bytes as varints)
//   - epochs, sequence numbers, counts: uvarint
//   - node IDs: zig-zag varint (see internal/keytree/codec.go)
//   - timestamps: wall-clock seconds (varint) + nanoseconds (uvarint)
//   - durations: zig-zag varint nanoseconds

// bodyFactories maps every Kind to a constructor for its empty body.
// Append-only, like the Kind values themselves.
var bodyFactories = map[Kind]func() Body{
	KindJoinRequest:      func() Body { return new(JoinRequest) },
	KindJoinChallenge:    func() Body { return new(JoinChallenge) },
	KindJoinResponse:     func() Body { return new(JoinResponse) },
	KindJoinRefer:        func() Body { return new(JoinRefer) },
	KindJoinGrant:        func() Body { return new(JoinGrant) },
	KindJoinToAC:         func() Body { return new(JoinToAC) },
	KindJoinWelcome:      func() Body { return new(JoinWelcome) },
	KindJoinDenied:       func() Body { return new(JoinDenied) },
	KindRejoinRequest:    func() Body { return new(RejoinRequest) },
	KindRejoinChallenge:  func() Body { return new(RejoinChallenge) },
	KindRejoinResponse:   func() Body { return new(RejoinResponse) },
	KindRejoinVerifyReq:  func() Body { return new(RejoinVerifyReq) },
	KindRejoinVerifyResp: func() Body { return new(RejoinVerifyResp) },
	KindRejoinWelcome:    func() Body { return new(RejoinWelcome) },
	KindRejoinDenied:     func() Body { return new(RejoinDenied) },
	KindData:             func() Body { return new(Data) },
	KindKeyUpdate:        func() Body { return new(KeyUpdate) },
	KindPathUpdate:       func() Body { return new(PathUpdate) },
	KindACAlive:          func() Body { return new(ACAlive) },
	KindMemberAlive:      func() Body { return new(MemberAlive) },
	KindLeaveNotice:      func() Body { return new(LeaveNotice) },
	KindPathRequest:      func() Body { return new(PathRequest) },
	KindAreaJoinReq:      func() Body { return new(AreaJoinReq) },
	KindAreaJoinAck:      func() Body { return new(AreaJoinAck) },
	KindAreaJoinDenied:   func() Body { return new(AreaJoinDenied) },
	KindReplicaHeartbeat: func() Body { return new(ReplicaHeartbeat) },
	KindACFailover:       func() Body { return new(ACFailover) },
	KindElection:         func() Body { return new(Election) },
	KindElectionOK:       func() Body { return new(ElectionOK) },
	KindCoordinator:      func() Body { return new(Coordinator) },
	KindSegmentPull:      func() Body { return new(SegmentPull) },
	KindSegmentPush:      func() Body { return new(SegmentPush) },
	KindAreaReassign:     func() Body { return new(AreaReassign) },
}

// NewBody returns an empty body value for the given kind, or false for
// kinds this build does not know (a newer peer's frame: the dispatch
// layer drops it, the transport does not).
func NewBody(k Kind) (Body, bool) {
	f, ok := bodyFactories[k]
	if !ok {
		return nil, false
	}
	return f(), true
}

// ---- shared helpers ----

func appendACInfo(b []byte, a ACInfo) []byte {
	b = codec.AppendString(b, a.ID)
	b = codec.AppendString(b, a.Addr)
	return codec.AppendBytes(b, a.PubDER)
}

func readACInfo(r *codec.Reader, a *ACInfo) {
	a.ID = r.String()
	a.Addr = r.String()
	a.PubDER = r.Bytes()
}

// readSuiteID reads a uvarint cipher-suite ID, rejecting values beyond
// the ID's one byte: truncating them would give one suite many
// encodings.
func readSuiteID(r *codec.Reader) (crypt.SuiteID, error) {
	v := r.Uvarint()
	if v > math.MaxUint8 {
		return 0, fmt.Errorf("%w: suite id %d", codec.ErrValue, v)
	}
	return crypt.SuiteID(v), r.Err()
}

// acInfoMinWire bounds a directory entry count claim: two length
// prefixes and one byte-field prefix.
const acInfoMinWire = 3

// ---- Join protocol (Fig. 3) ----

// AppendWire implements Marshaler.
func (m JoinRequest) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.AuthInfo)
	b = codec.AppendString(b, m.ClientID)
	b = codec.AppendString(b, m.ClientAddr)
	b = codec.AppendBytes(b, m.ClientPub)
	return codec.AppendUint64(b, m.NonceCW)
}

// ReadWire implements Unmarshaler.
func (m *JoinRequest) ReadWire(r *codec.Reader) error {
	m.AuthInfo = r.String()
	m.ClientID = r.String()
	m.ClientAddr = r.String()
	m.ClientPub = r.Bytes()
	m.NonceCW = r.Uint64()
	return r.Err()
}

// AppendWire implements Marshaler.
func (m JoinChallenge) AppendWire(b []byte) []byte {
	b = codec.AppendUint64(b, m.NonceCWPlus1)
	return codec.AppendUint64(b, m.NonceWC)
}

// ReadWire implements Unmarshaler.
func (m *JoinChallenge) ReadWire(r *codec.Reader) error {
	m.NonceCWPlus1 = r.Uint64()
	m.NonceWC = r.Uint64()
	return r.Err()
}

// AppendWire implements Marshaler.
func (m JoinResponse) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.ClientID)
	return codec.AppendUint64(b, m.NonceWCPlus1)
}

// ReadWire implements Unmarshaler.
func (m *JoinResponse) ReadWire(r *codec.Reader) error {
	m.ClientID = r.String()
	m.NonceWCPlus1 = r.Uint64()
	return r.Err()
}

// AppendWire implements Marshaler.
func (m JoinRefer) AppendWire(b []byte) []byte {
	b = codec.AppendUint64(b, m.NonceAC)
	b = codec.AppendString(b, m.ClientID)
	b = codec.AppendString(b, m.ClientAddr)
	b = codec.AppendTime(b, m.Timestamp)
	b = codec.AppendBytes(b, m.ClientPub)
	return codec.AppendVarint(b, int64(m.Duration))
}

// ReadWire implements Unmarshaler.
func (m *JoinRefer) ReadWire(r *codec.Reader) error {
	m.NonceAC = r.Uint64()
	m.ClientID = r.String()
	m.ClientAddr = r.String()
	m.Timestamp = r.Time()
	m.ClientPub = r.Bytes()
	m.Duration = time.Duration(r.Varint())
	return r.Err()
}

// AppendWire implements Marshaler.
func (m JoinGrant) AppendWire(b []byte) []byte {
	b = codec.AppendUint64(b, m.NonceACPlus1)
	b = appendACInfo(b, m.AC)
	b = codec.AppendUvarint(b, uint64(len(m.Directory)))
	for _, e := range m.Directory {
		b = appendACInfo(b, e)
	}
	return b
}

// ReadWire implements Unmarshaler.
func (m *JoinGrant) ReadWire(r *codec.Reader) error {
	m.NonceACPlus1 = r.Uint64()
	readACInfo(r, &m.AC)
	if n := r.Count(acInfoMinWire); n > 0 {
		m.Directory = make([]ACInfo, n)
		for i := range m.Directory {
			readACInfo(r, &m.Directory[i])
		}
	} else {
		m.Directory = nil
	}
	return r.Err()
}

// AppendWire implements Marshaler.
func (m JoinToAC) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.ClientID)
	b = codec.AppendString(b, m.ClientAddr)
	b = codec.AppendUint64(b, m.NonceACPlus2)
	b = codec.AppendUint64(b, m.NonceCA)
	return codec.AppendUvarint(b, m.SuiteMask)
}

// ReadWire implements Unmarshaler.
func (m *JoinToAC) ReadWire(r *codec.Reader) error {
	m.ClientID = r.String()
	m.ClientAddr = r.String()
	m.NonceACPlus2 = r.Uint64()
	m.NonceCA = r.Uint64()
	m.SuiteMask = r.Uvarint()
	return r.Err()
}

// AppendWire implements Marshaler.
func (m JoinWelcome) AppendWire(b []byte) []byte {
	b = codec.AppendUint64(b, m.NonceCAPlus1)
	b = codec.AppendBytes(b, m.TicketBlob)
	b = keytree.AppendPathKeys(b, m.Path)
	b = codec.AppendUvarint(b, m.Epoch)
	b = codec.AppendString(b, m.AreaID)
	b = codec.AppendString(b, m.BackupAddr)
	b = codec.AppendBytes(b, m.BackupPub)
	return codec.AppendUvarint(b, uint64(m.Suite))
}

// ReadWire implements Unmarshaler.
func (m *JoinWelcome) ReadWire(r *codec.Reader) error {
	m.NonceCAPlus1 = r.Uint64()
	m.TicketBlob = r.Bytes()
	var err error
	if m.Path, err = keytree.ReadPathKeys(r); err != nil {
		return err
	}
	m.Epoch = r.Uvarint()
	m.AreaID = r.String()
	m.BackupAddr = r.String()
	m.BackupPub = r.Bytes()
	m.Suite, err = readSuiteID(r)
	return err
}

// AppendWire implements Marshaler.
func (m JoinDenied) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.ClientID)
	return codec.AppendString(b, m.Reason)
}

// ReadWire implements Unmarshaler.
func (m *JoinDenied) ReadWire(r *codec.Reader) error {
	m.ClientID = r.String()
	m.Reason = r.String()
	return r.Err()
}

// ---- Rejoin protocol (Fig. 7) ----

// AppendWire implements Marshaler.
func (m RejoinRequest) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.ClientID)
	b = codec.AppendString(b, m.ClientAddr)
	b = codec.AppendUint64(b, m.NonceCB)
	b = codec.AppendBytes(b, m.TicketBlob)
	return codec.AppendUvarint(b, m.SuiteMask)
}

// ReadWire implements Unmarshaler.
func (m *RejoinRequest) ReadWire(r *codec.Reader) error {
	m.ClientID = r.String()
	m.ClientAddr = r.String()
	m.NonceCB = r.Uint64()
	m.TicketBlob = r.Bytes()
	m.SuiteMask = r.Uvarint()
	return r.Err()
}

// AppendWire implements Marshaler.
func (m RejoinChallenge) AppendWire(b []byte) []byte {
	b = codec.AppendUint64(b, m.NonceCBPlus1)
	return codec.AppendUint64(b, m.NonceBC)
}

// ReadWire implements Unmarshaler.
func (m *RejoinChallenge) ReadWire(r *codec.Reader) error {
	m.NonceCBPlus1 = r.Uint64()
	m.NonceBC = r.Uint64()
	return r.Err()
}

// AppendWire implements Marshaler.
func (m RejoinResponse) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.ClientID)
	return codec.AppendUint64(b, m.NonceBCPlus1)
}

// ReadWire implements Unmarshaler.
func (m *RejoinResponse) ReadWire(r *codec.Reader) error {
	m.ClientID = r.String()
	m.NonceBCPlus1 = r.Uint64()
	return r.Err()
}

// AppendWire implements Marshaler.
func (m RejoinVerifyReq) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.ClientID)
	return codec.AppendTime(b, m.Timestamp)
}

// ReadWire implements Unmarshaler.
func (m *RejoinVerifyReq) ReadWire(r *codec.Reader) error {
	m.ClientID = r.String()
	m.Timestamp = r.Time()
	return r.Err()
}

// AppendWire implements Marshaler.
func (m RejoinVerifyResp) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.ClientID)
	b = codec.AppendBool(b, m.StillMember)
	b = codec.AppendBytes(b, m.TicketBlob)
	return codec.AppendTime(b, m.Timestamp)
}

// ReadWire implements Unmarshaler.
func (m *RejoinVerifyResp) ReadWire(r *codec.Reader) error {
	m.ClientID = r.String()
	m.StillMember = r.Bool()
	m.TicketBlob = r.Bytes()
	m.Timestamp = r.Time()
	return r.Err()
}

// AppendWire implements Marshaler.
func (m RejoinWelcome) AppendWire(b []byte) []byte {
	b = codec.AppendBytes(b, m.TicketBlob)
	b = keytree.AppendPathKeys(b, m.Path)
	b = codec.AppendUvarint(b, m.Epoch)
	b = codec.AppendString(b, m.AreaID)
	b = codec.AppendString(b, m.BackupAddr)
	b = codec.AppendBytes(b, m.BackupPub)
	return codec.AppendUvarint(b, uint64(m.Suite))
}

// ReadWire implements Unmarshaler.
func (m *RejoinWelcome) ReadWire(r *codec.Reader) error {
	m.TicketBlob = r.Bytes()
	var err error
	if m.Path, err = keytree.ReadPathKeys(r); err != nil {
		return err
	}
	m.Epoch = r.Uvarint()
	m.AreaID = r.String()
	m.BackupAddr = r.String()
	m.BackupPub = r.Bytes()
	m.Suite, err = readSuiteID(r)
	return err
}

// AppendWire implements Marshaler.
func (m RejoinDenied) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.ClientID)
	return codec.AppendString(b, m.Reason)
}

// ReadWire implements Unmarshaler.
func (m *RejoinDenied) ReadWire(r *codec.Reader) error {
	m.ClientID = r.String()
	m.Reason = r.String()
	return r.Err()
}

// ---- Data and key management (§III) ----

// AppendWire implements Marshaler.
func (m Data) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.Origin)
	b = codec.AppendString(b, m.OriginArea)
	b = codec.AppendUvarint(b, m.Seq)
	b = codec.AppendString(b, m.FromArea)
	b = codec.AppendByte(b, byte(m.Cipher))
	b = codec.AppendBytes(b, m.EncKey)
	return codec.AppendBytes(b, m.Payload)
}

// Encode returns the packet as a KindData frame body, built in one
// allocation sized up front — PlainBody would grow a 1 KiB payload's body
// from 64 bytes by doubling.
func (m Data) Encode() []byte {
	n := 1 + 6*binary.MaxVarintLen64 + len(m.Origin) + len(m.OriginArea) + len(m.FromArea) +
		len(m.EncKey) + len(m.Payload)
	return m.AppendWire(make([]byte, 0, n))
}

// ReadWire implements Unmarshaler. The identities are copied; EncKey and
// Payload borrow the input (the delivered frame's body, shared by every
// receiver of the multicast): open them into fresh output, never in place.
func (m *Data) ReadWire(r *codec.Reader) error {
	var ref DataRef
	err := ref.read(r)
	m.Origin = string(ref.Origin)
	m.OriginArea = string(ref.OriginArea)
	m.Seq = ref.Seq
	m.FromArea = string(ref.FromArea)
	m.Cipher = ref.Cipher
	m.EncKey = ref.EncKey
	m.Payload = ref.Payload
	return err
}

// DataRef is a Data body read in place: every variable-length field, the
// identities included, is a window onto the body it was read from. It is
// for a receiver that is done with the packet before its handler returns
// (a member), and it is read without allocating — compare an identity
// with string(ref.Origin) == id, which does not copy.
type DataRef struct {
	Origin     []byte
	OriginArea []byte
	Seq        uint64
	FromArea   []byte
	Cipher     DataCipher
	EncKey     []byte
	Payload    []byte
}

// ReadDataRef decodes a KindData body into d, requiring the body to be
// fully consumed, as DecodePlain does for Data. Nothing is copied and
// nothing escapes: the reader lives on the caller's stack and no
// Unmarshaler interface is involved.
func ReadDataRef(body []byte, d *DataRef) error {
	r := codec.NewReader(body)
	if err := d.read(r); err != nil {
		return fmt.Errorf("%w: %v", ErrBadBody, err)
	}
	if err := r.Finish(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadBody, err)
	}
	return nil
}

// read is the one decoder of the Data field order.
func (d *DataRef) read(r *codec.Reader) error {
	d.Origin = r.BorrowBytes()
	d.OriginArea = r.BorrowBytes()
	d.Seq = r.Uvarint()
	d.FromArea = r.BorrowBytes()
	d.Cipher = DataCipher(r.Byte())
	d.EncKey = r.BorrowBytes()
	d.Payload = r.BorrowBytes()
	return r.Err()
}

// AppendHeader appends the update's header — area, epoch, part count and
// Merkle root. These are the bytes the controller signs, and every part
// of one rekey carries them verbatim.
func (m KeyUpdate) AppendHeader(b []byte) []byte {
	b = codec.AppendString(b, m.AreaID)
	b = codec.AppendUvarint(b, m.Epoch)
	b = codec.AppendUvarint(b, uint64(m.Parts))
	return codec.AppendRaw(b, m.Root[:])
}

// AppendWire implements Marshaler: the header as one length-prefixed
// field (so a receiver can check its signature before decoding any of
// it), the leaf's index, its audit path, and the leaf.
func (m KeyUpdate) AppendWire(b []byte) []byte {
	b = codec.AppendBytes(b, m.AppendHeader(nil))
	b = codec.AppendUvarint(b, uint64(m.Index))
	b = codec.AppendUvarint(b, uint64(len(m.Proof)))
	for i := range m.Proof {
		b = codec.AppendRaw(b, m.Proof[i][:])
	}
	return keytree.AppendLeaf(b, m.Scopes, m.Entries)
}

// ReadWire implements Unmarshaler. It decodes structure only — an index
// beyond the count, a proof that does not lead to the root, a scope set
// off the receiver's path are ReceiveKeyUpdate's to reject. The entries'
// ciphertexts borrow the input (see keytree.ReadEntries).
func (m *KeyUpdate) ReadWire(r *codec.Reader) error {
	header := r.BorrowBytes()
	if err := r.Err(); err != nil {
		return err
	}
	hr := codec.NewReader(header)
	m.AreaID = hr.String()
	m.Epoch = hr.Uvarint()
	parts := hr.Uvarint()
	copy(m.Root[:], hr.BorrowRaw(sha256.Size))
	if err := hr.Finish(); err != nil {
		return fmt.Errorf("header: %w", err)
	}
	index := r.Uvarint()
	if parts > math.MaxInt32 || index > math.MaxInt32 {
		return fmt.Errorf("%w: part %d of %d", codec.ErrValue, index, parts)
	}
	m.Parts, m.Index = int(parts), int(index)
	m.Proof = nil
	if n := r.Count(sha256.Size); n > 0 {
		m.Proof = make([][sha256.Size]byte, n)
		for i := range m.Proof {
			copy(m.Proof[i][:], r.BorrowRaw(sha256.Size))
		}
	}
	var err error
	if m.Scopes, err = keytree.ReadScopes(r); err != nil {
		return err
	}
	m.Entries, err = keytree.ReadEntries(r)
	return err
}

// KeyUpdateLeaves is a rekey cut into parts, each encoded as its leaf —
// scope set, then entries (keytree.Cut).
type KeyUpdateLeaves interface {
	Parts() int
	AppendLeaf(b []byte, part int) []byte
}

// KeyUpdateCut is the send side of a KindKeyUpdate: one cut rekey encoded
// as the header to sign and one frame per part. The zero value is ready
// to use, and Encode reuses its buffers, so a controller keeps one.
type KeyUpdateCut struct {
	header []byte
	leaves []byte   // every part's leaf, back to back
	ends   []int    // leaf i ends at leaves[ends[i]]
	tree   []digest // the leaves' hashes, then every level above them
}

// Encode lays out the parts' leaves and the Merkle tree over them, and
// builds the header that carries its root.
func (c *KeyUpdateCut) Encode(areaID string, epoch uint64, parts KeyUpdateLeaves) {
	n := parts.Parts()
	c.leaves, c.ends, c.tree = c.leaves[:0], c.ends[:0], c.tree[:0]
	for i := 0; i < n; i++ {
		c.leaves = parts.AppendLeaf(c.leaves, i)
		c.ends = append(c.ends, len(c.leaves))
		c.tree = append(c.tree, hashLeaf(c.leaf(i)))
	}
	c.tree = appendLevels(c.tree, n)
	root := sha256.Sum256(nil) // RFC 6962's hash of no leaves
	if n > 0 {
		root = c.tree[len(c.tree)-1]
	}
	c.header = KeyUpdate{AreaID: areaID, Epoch: epoch, Parts: n, Root: root}.AppendHeader(c.header[:0])
}

func (c *KeyUpdateCut) leaf(i int) []byte {
	start := 0
	if i > 0 {
		start = c.ends[i-1]
	}
	return c.leaves[start:c.ends[i]]
}

// Header returns the bytes the controller signs, once, for every part.
// Valid until the next Encode.
func (c *KeyUpdateCut) Header() []byte { return c.header }

// bodyLen returns the length of part i's frame body.
func (c *KeyUpdateCut) bodyLen(i int) int {
	proof := proofLen(uint64(i), uint64(len(c.ends)))
	return codec.UvarintLen(uint64(len(c.header))) + len(c.header) + codec.UvarintLen(uint64(i)) +
		codec.UvarintLen(uint64(proof)) + proof*sha256.Size + len(c.leaf(i))
}

// appendBody appends part i's frame body, as KeyUpdate.AppendWire lays it
// out.
func (c *KeyUpdateCut) appendBody(b []byte, i int) []byte {
	b = codec.AppendBytes(b, c.header)
	b = codec.AppendUvarint(b, uint64(i))
	b = codec.AppendUvarint(b, uint64(proofLen(uint64(i), uint64(len(c.ends)))))
	b = appendProof(b, c.tree, len(c.ends), i)
	return codec.AppendRaw(b, c.leaf(i))
}

// Body returns a fresh frame body carrying part i.
func (c *KeyUpdateCut) Body(i int) []byte {
	return c.appendBody(make([]byte, 0, c.bodyLen(i)), i)
}

// Frames returns one frame per part, sent from `from` and signed by sig
// (over Header). The frames are encoded back to back in one buffer that
// they share as their cached encoding (frameEncoding.runEncoding): each
// frame's Body is a window onto it, and Encode answers with the frame's
// own bytes without building any. Every frame's Sig is sig itself, so a
// flush's frames visibly share one signature.
func (c *KeyUpdateCut) Frames(from string, sig []byte) []Frame {
	frames := make([]Frame, len(c.ends))
	head := 1 + codec.UvarintLen(uint64(len(from))) + len(from)
	tail := codec.UvarintLen(uint64(len(sig))) + len(sig)
	size := 0
	for i := range frames {
		n := c.bodyLen(i)
		size += head + codec.UvarintLen(uint64(n)) + n + tail
	}
	buf := make([]byte, 0, size)
	for i := range frames {
		n := c.bodyLen(i)
		buf = codec.AppendByte(buf, byte(KindKeyUpdate))
		buf = codec.AppendString(buf, from)
		buf = codec.AppendUvarint(buf, uint64(n))
		buf = c.appendBody(buf, i)
		f := &frames[i]
		f.Kind, f.From, f.Body, f.Sig = KindKeyUpdate, from, buf[len(buf)-n:], sig
		buf = codec.AppendBytes(buf, sig)
	}
	run := &frameEncoding{kind: KindKeyUpdate, from: from, body: buf, sig: sig, bytes: buf}
	for i := range frames {
		frames[i].enc.Store(run)
	}
	return frames
}

// ReceiveKeyUpdate is the receive side of a KindKeyUpdate frame, shared
// by its two receivers (a member, and a controller as a member of its
// parent's area). In order: the frame's header must be signed by signer
// (§III-E) — checked before a byte of it is decoded; it must name areaID,
// and the frame's leaf, folded up its audit path, must reach the root the
// header signs; some scope of the leaf must lie on view's path, which
// makes it the part cut for this receiver. Its entries are then streamed
// out of the frame into view (keytree.MemberView.ApplyWire), so no
// KeyUpdate value is built and f.Body is only read.
//
// It returns the update's epoch and nil once view stands at it;
// keytree.ErrStale for a duplicate delivery, to ignore;
// keytree.ErrEpochGap when updates were missed and the receiver must
// recover its path; and crypt.ErrBadSignature, ErrBadBody, ErrWrongArea,
// ErrBadDigest or ErrWrongPart for a frame to drop (KeyUpdateDropReason
// names them for counting). view is unchanged on every error.
func ReceiveKeyUpdate(f *Frame, signer crypt.PublicKey, areaID string, view *keytree.MemberView) (epoch uint64, err error) {
	p, err := splitKeyUpdate(f.Body)
	if err != nil {
		return 0, err
	}
	if err := signer.Verify(p.header, f.Sig); err != nil {
		return 0, err
	}
	return applyKeyUpdate(&p, areaID, view)
}

// keyUpdatePart is a KindKeyUpdate body framed but not decoded.
type keyUpdatePart struct {
	header, proof, leaf []byte
	index               uint64
}

// splitKeyUpdate frames a body into its signed header, leaf index, audit
// path and leaf without decoding the header or the leaf.
func splitKeyUpdate(body []byte) (p keyUpdatePart, err error) {
	r := codec.NewReader(body)
	p.header = r.BorrowBytes()
	p.index = r.Uvarint()
	hashes := r.Uvarint()
	if hashes > uint64(r.Len()/sha256.Size) {
		return p, fmt.Errorf("%w: audit path of %d hashes in %d bytes", ErrBadBody, hashes, r.Len())
	}
	p.proof = r.BorrowRaw(int(hashes) * sha256.Size)
	if err := r.Err(); err != nil {
		return p, fmt.Errorf("%w: %v", ErrBadBody, err)
	}
	p.leaf = r.BorrowRaw(r.Len())
	return p, nil
}

// applyKeyUpdate is ReceiveKeyUpdate after the signature check.
func applyKeyUpdate(p *keyUpdatePart, areaID string, view *keytree.MemberView) (epoch uint64, err error) {
	r := codec.NewReader(p.header)
	area := r.BorrowBytes()
	epoch = r.Uvarint()
	parts := r.Uvarint()
	root := r.BorrowRaw(sha256.Size)
	if err := r.Finish(); err != nil {
		return 0, fmt.Errorf("%w: header: %v", ErrBadBody, err)
	}
	if string(area) != areaID {
		return epoch, ErrWrongArea
	}
	if h, ok := foldProof(p.proof, p.leaf, p.index, parts); !ok || !bytes.Equal(h[:], root) {
		return epoch, fmt.Errorf("%w: key update part %d of %d", ErrBadDigest, p.index, parts)
	}
	lr := codec.NewReader(p.leaf)
	mine := false
	for n := lr.Count(1); n > 0; n-- {
		mine = view.OnPath(keytree.NodeID(lr.Varint())) || mine
	}
	if err := lr.Err(); err != nil {
		return epoch, fmt.Errorf("%w: scopes: %v", ErrBadBody, err)
	}
	if !mine {
		return epoch, fmt.Errorf("%w: part %d of %d has no scope on the receiver's path", ErrWrongPart, p.index, parts)
	}
	_, err = view.ApplyWire(epoch, lr)
	if err != nil && !errors.Is(err, keytree.ErrStale) && !errors.Is(err, keytree.ErrEpochGap) {
		err = fmt.Errorf("%w: %v", ErrBadBody, err)
	}
	return epoch, err
}

// KeyUpdateDropReason names why ReceiveKeyUpdate refused a frame, for the
// receivers' per-reason drop counters (obs.KeyUpdateDropped):
// "bad_signature", "bad_body", "wrong_area", "wrong_part" or
// "bad_digest"; "" for nil and for the two outcomes that are not drops,
// keytree.ErrStale and keytree.ErrEpochGap.
func KeyUpdateDropReason(err error) string {
	switch {
	case err == nil, errors.Is(err, keytree.ErrStale), errors.Is(err, keytree.ErrEpochGap):
		return ""
	case errors.Is(err, ErrWrongArea):
		return "wrong_area"
	case errors.Is(err, ErrWrongPart):
		return "wrong_part"
	case errors.Is(err, ErrBadDigest):
		return "bad_digest"
	case errors.Is(err, ErrBadBody):
		return "bad_body"
	default:
		return "bad_signature"
	}
}

// AppendWire implements Marshaler.
func (m PathUpdate) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.AreaID)
	b = codec.AppendUvarint(b, m.Epoch)
	return keytree.AppendPathKeys(b, m.Path)
}

// ReadWire implements Unmarshaler.
func (m *PathUpdate) ReadWire(r *codec.Reader) error {
	m.AreaID = r.String()
	m.Epoch = r.Uvarint()
	var err error
	m.Path, err = keytree.ReadPathKeys(r)
	return err
}

// ---- Failure detection (§IV-A) ----

// AppendWire implements Marshaler.
func (m ACAlive) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.AreaID)
	return codec.AppendUvarint(b, m.Epoch)
}

// ReadWire implements Unmarshaler.
func (m *ACAlive) ReadWire(r *codec.Reader) error {
	m.AreaID = r.String()
	m.Epoch = r.Uvarint()
	return r.Err()
}

// AppendWire implements Marshaler.
func (m MemberAlive) AppendWire(b []byte) []byte {
	return codec.AppendString(b, m.MemberID)
}

// ReadWire implements Unmarshaler.
func (m *MemberAlive) ReadWire(r *codec.Reader) error {
	m.MemberID = r.String()
	return r.Err()
}

// AppendWire implements Marshaler.
func (m LeaveNotice) AppendWire(b []byte) []byte {
	return codec.AppendString(b, m.MemberID)
}

// ReadWire implements Unmarshaler.
func (m *LeaveNotice) ReadWire(r *codec.Reader) error {
	m.MemberID = r.String()
	return r.Err()
}

// AppendWire implements Marshaler.
func (m PathRequest) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.MemberID)
	return codec.AppendUvarint(b, m.Epoch)
}

// ReadWire implements Unmarshaler.
func (m *PathRequest) ReadWire(r *codec.Reader) error {
	m.MemberID = r.String()
	m.Epoch = r.Uvarint()
	return r.Err()
}

// ---- Area-tree maintenance (§IV-C) ----

// AppendWire implements Marshaler.
func (m AreaJoinReq) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.ACID)
	b = codec.AppendString(b, m.ACAddr)
	b = codec.AppendString(b, m.AreaID)
	b = codec.AppendTime(b, m.Timestamp)
	return codec.AppendUvarint(b, m.SuiteMask)
}

// ReadWire implements Unmarshaler.
func (m *AreaJoinReq) ReadWire(r *codec.Reader) error {
	m.ACID = r.String()
	m.ACAddr = r.String()
	m.AreaID = r.String()
	m.Timestamp = r.Time()
	m.SuiteMask = r.Uvarint()
	return r.Err()
}

// AppendWire implements Marshaler.
func (m AreaJoinAck) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.ParentID)
	b = codec.AppendString(b, m.ParentAreaID)
	b = keytree.AppendPathKeys(b, m.Path)
	b = codec.AppendUvarint(b, m.Epoch)
	b = codec.AppendTime(b, m.Timestamp)
	return codec.AppendUvarint(b, uint64(m.Suite))
}

// ReadWire implements Unmarshaler.
func (m *AreaJoinAck) ReadWire(r *codec.Reader) error {
	m.ParentID = r.String()
	m.ParentAreaID = r.String()
	var err error
	if m.Path, err = keytree.ReadPathKeys(r); err != nil {
		return err
	}
	m.Epoch = r.Uvarint()
	m.Timestamp = r.Time()
	m.Suite, err = readSuiteID(r)
	return err
}

// AppendWire implements Marshaler.
func (m AreaJoinDenied) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.ACID)
	return codec.AppendString(b, m.Reason)
}

// ReadWire implements Unmarshaler.
func (m *AreaJoinDenied) ReadWire(r *codec.Reader) error {
	m.ACID = r.String()
	m.Reason = r.String()
	return r.Err()
}

// ---- Replication (§IV-C) ----

// AppendWire implements Marshaler.
func (m ReplicaHeartbeat) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.AreaID)
	return codec.AppendUvarint(b, m.Seq)
}

// ReadWire implements Unmarshaler.
func (m *ReplicaHeartbeat) ReadWire(r *codec.Reader) error {
	m.AreaID = r.String()
	m.Seq = r.Uvarint()
	return r.Err()
}

// AppendWire implements Marshaler.
func (m ACFailover) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.AreaID)
	b = codec.AppendString(b, m.NewAddr)
	b = codec.AppendBytes(b, m.NewPub)
	return codec.AppendUvarint(b, m.Epoch)
}

// ReadWire implements Unmarshaler.
func (m *ACFailover) ReadWire(r *codec.Reader) error {
	m.AreaID = r.String()
	m.NewAddr = r.String()
	m.NewPub = r.Bytes()
	m.Epoch = r.Uvarint()
	return r.Err()
}

// ---- Quorum leader election and segment replication ----

// AppendWire implements Marshaler.
func (m Election) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.AreaID)
	b = codec.AppendString(b, m.CandidateID)
	return codec.AppendUvarint(b, m.LSN)
}

// ReadWire implements Unmarshaler.
func (m *Election) ReadWire(r *codec.Reader) error {
	m.AreaID = r.String()
	m.CandidateID = r.String()
	m.LSN = r.Uvarint()
	return r.Err()
}

// AppendWire implements Marshaler.
func (m ElectionOK) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.AreaID)
	b = codec.AppendString(b, m.VoterID)
	return codec.AppendUvarint(b, m.LSN)
}

// ReadWire implements Unmarshaler.
func (m *ElectionOK) ReadWire(r *codec.Reader) error {
	m.AreaID = r.String()
	m.VoterID = r.String()
	m.LSN = r.Uvarint()
	return r.Err()
}

// AppendWire implements Marshaler.
func (m Coordinator) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.AreaID)
	b = codec.AppendString(b, m.LeaderID)
	b = codec.AppendString(b, m.Addr)
	b = codec.AppendBytes(b, m.PubDER)
	b = codec.AppendUvarint(b, m.Epoch)
	b = codec.AppendUvarint(b, uint64(len(m.MemberAddrs)))
	for _, a := range m.MemberAddrs {
		b = codec.AppendString(b, a)
	}
	return b
}

// ReadWire implements Unmarshaler.
func (m *Coordinator) ReadWire(r *codec.Reader) error {
	m.AreaID = r.String()
	m.LeaderID = r.String()
	m.Addr = r.String()
	m.PubDER = r.Bytes()
	m.Epoch = r.Uvarint()
	// An address is at minimum its own length prefix.
	if n := r.Count(1); n > 0 {
		m.MemberAddrs = make([]string, n)
		for i := range m.MemberAddrs {
			m.MemberAddrs[i] = r.String()
		}
	} else {
		m.MemberAddrs = nil
	}
	return r.Err()
}

// AppendWire implements Marshaler.
func (m SegmentPull) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.AreaID)
	return codec.AppendUvarint(b, m.FromLSN)
}

// ReadWire implements Unmarshaler.
func (m *SegmentPull) ReadWire(r *codec.Reader) error {
	m.AreaID = r.String()
	m.FromLSN = r.Uvarint()
	return r.Err()
}

// AppendWire implements Marshaler.
func (m SegmentPush) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.AreaID)
	b = codec.AppendUvarint(b, m.FromLSN)
	b = codec.AppendUvarint(b, m.NextLSN)
	b = codec.AppendUvarint(b, m.SnapshotLSN)
	b = codec.AppendBytes(b, m.Snapshot)
	b = codec.AppendUvarint(b, uint64(len(m.Records)))
	for _, rec := range m.Records {
		b = codec.AppendBytes(b, rec)
	}
	return codec.AppendVarint(b, int64(m.HeartbeatEvery))
}

// ReadWire implements Unmarshaler.
func (m *SegmentPush) ReadWire(r *codec.Reader) error {
	m.AreaID = r.String()
	m.FromLSN = r.Uvarint()
	m.NextLSN = r.Uvarint()
	m.SnapshotLSN = r.Uvarint()
	m.Snapshot = r.Bytes()
	// A record is at minimum its own length prefix.
	if n := r.Count(1); n > 0 {
		m.Records = make([][]byte, n)
		for i := range m.Records {
			m.Records[i] = r.Bytes()
		}
	} else {
		m.Records = nil
	}
	m.HeartbeatEvery = time.Duration(r.Varint())
	return r.Err()
}

// ---- Dynamic area topology ----

// AppendWire implements Marshaler.
func (m AreaReassign) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.AreaID)
	b = codec.AppendString(b, m.TargetID)
	b = codec.AppendString(b, m.TargetAddr)
	b = codec.AppendBytes(b, m.TargetPub)
	return codec.AppendString(b, m.Reason)
}

// ReadWire implements Unmarshaler.
func (m *AreaReassign) ReadWire(r *codec.Reader) error {
	m.AreaID = r.String()
	m.TargetID = r.String()
	m.TargetAddr = r.String()
	m.TargetPub = r.Bytes()
	m.Reason = r.String()
	return r.Err()
}
