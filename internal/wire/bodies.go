package wire

import (
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

// AppendWire implements Marshaler: area, epoch, entries, then the tag
// over them.
func (m KeyUpdate) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.AreaID)
	b = codec.AppendUvarint(b, m.Epoch)
	b = keytree.AppendEntries(b, m.Entries)
	return codec.AppendRaw(b, m.Tag[:])
}

// ReadWire implements Unmarshaler. It decodes structure only; the tag is
// ReceiveKeyUpdate's to check. The entries' ciphertexts borrow the input
// (see keytree.ReadEntries).
func (m *KeyUpdate) ReadWire(r *codec.Reader) error {
	m.AreaID = r.String()
	m.Epoch = r.Uvarint()
	var err error
	if m.Entries, err = keytree.ReadEntries(r); err != nil {
		return err
	}
	copy(m.Tag[:], r.BorrowRaw(len(m.Tag)))
	return r.Err()
}

// The labels that derive a member's MAC keys from its leaf key, one per
// message the leaf key authenticates.
var (
	keyUpdateLabel = []byte("keyupdate")
	leaveLabel     = []byte("leave")
)

// KeyUpdateKey is a receiver's KeyUpdate MAC key, derived from its leaf
// key and kept precomputed across the rekeys that leave the leaf alone.
// It is one pointer until the first KeyUpdate, so a holder of which a
// deployment keeps thousands (a member) grows by a word, not by its
// size class. The zero value is ready to use.
type KeyUpdateKey struct{ c *keyUpdateMAC }

type keyUpdateMAC struct {
	leaf crypt.SymKey
	mac  crypt.MACKey
}

// of returns the MAC key for leaf, deriving it only when leaf changed.
func (k *KeyUpdateKey) of(leaf crypt.SymKey) *crypt.MACKey {
	if k.c == nil {
		k.c = &keyUpdateMAC{leaf: leaf, mac: crypt.DeriveMACKey(leaf, keyUpdateLabel)}
	} else if k.c.leaf != leaf {
		k.c.leaf, k.c.mac = leaf, crypt.DeriveMACKey(leaf, keyUpdateLabel)
	}
	return &k.c.mac
}

// TagKeyUpdate overwrites the tag at the end of a KeyUpdate body with
// the one that authenticates it to the member whose leaf key is leaf.
func TagKeyUpdate(body []byte, leaf crypt.SymKey) {
	n := len(body) - crypt.MACTagLen
	mk := crypt.DeriveMACKey(leaf, keyUpdateLabel)
	mk.Tag(body[n:n], body[:n])
}

// KeyUpdateReceivers is a rekey cut per receiver (keytree.Cut).
type KeyUpdateReceivers interface {
	Len() int
	// Leaf returns the leaf key receiver i holds; false sends it nothing.
	Leaf(i int) (crypt.SymKey, bool)
	// EntriesLen returns the length of AppendEntries' output for member
	// receiver i.
	EntriesLen(i int) int
	// AppendEntries appends member receiver i's entries as a
	// keytree.AppendEntries list.
	AppendEntries(b []byte, i int) []byte
}

// KeyUpdateFrames is the send side of a KindKeyUpdate: it returns
// receiver i's frame at index i — its own entries, tagged under its leaf
// key, sent from `from` and carrying no signature; a zero Frame for a
// receiver recv.Leaf refuses. The frames are encoded back to back in one
// buffer that they share as their cached encoding
// (frameEncoding.runEncoding): each frame's Body is a window onto it,
// and Encode answers with the frame's own bytes without building any.
func KeyUpdateFrames(from, areaID string, epoch uint64, recv KeyUpdateReceivers) []Frame {
	n := recv.Len()
	head := 1 + codec.UvarintLen(uint64(len(from))) + len(from)
	prefix := codec.UvarintLen(uint64(len(areaID))) + len(areaID) + codec.UvarintLen(epoch)
	const tail = 1 // the empty signature's length
	size := 0
	for i := 0; i < n; i++ {
		if _, ok := recv.Leaf(i); ok {
			body := prefix + recv.EntriesLen(i) + crypt.MACTagLen
			size += head + codec.UvarintLen(uint64(body)) + body + tail
		}
	}
	frames := make([]Frame, n)
	buf := make([]byte, 0, size)
	for i := range frames {
		leaf, ok := recv.Leaf(i)
		if !ok {
			continue
		}
		buf = codec.AppendByte(buf, byte(KindKeyUpdate))
		buf = codec.AppendString(buf, from)
		buf = codec.AppendUvarint(buf, uint64(prefix+recv.EntriesLen(i)+crypt.MACTagLen))
		start := len(buf)
		buf = codec.AppendString(buf, areaID)
		buf = codec.AppendUvarint(buf, epoch)
		buf = recv.AppendEntries(buf, i)
		mk := crypt.DeriveMACKey(leaf, keyUpdateLabel)
		buf = mk.Tag(buf, buf[start:])
		frames[i].Kind, frames[i].From, frames[i].Body = KindKeyUpdate, from, buf[start:]
		buf = codec.AppendUvarint(buf, 0)
	}
	run := &frameEncoding{kind: KindKeyUpdate, from: from, body: buf, bytes: buf}
	for i := range frames {
		if frames[i].Kind != 0 {
			frames[i].enc.Store(run)
		}
	}
	return frames
}

// ReceiveKeyUpdate is the receive side of a KindKeyUpdate frame, shared
// by its two receivers (a member, and a controller as a member of its
// parent's area). In order: the body's tag must authenticate it under
// key, the MAC key derived from view's leaf key — checked in constant
// time before a byte of the body is decoded, so only the frame the
// controller cut for this receiver passes; it must name areaID. Its
// entries are then streamed out of the frame into view
// (keytree.MemberView.ApplyWire), so no KeyUpdate value is built and
// f.Body is only read.
//
// It returns the update's epoch and nil once view stands at it;
// keytree.ErrStale for a duplicate delivery, to ignore;
// keytree.ErrEpochGap when updates were missed and the receiver must
// recover its path; and ErrBadMAC, ErrBadBody or ErrWrongArea for a
// frame to drop (KeyUpdateDropReason names them for counting). view is
// unchanged on every error.
func ReceiveKeyUpdate(f *Frame, key *KeyUpdateKey, areaID string, view *keytree.MemberView) (epoch uint64, err error) {
	n := len(f.Body) - crypt.MACTagLen
	if n < 0 {
		return 0, fmt.Errorf("%w: key update of %d bytes", ErrBadBody, len(f.Body))
	}
	if !key.of(view.LeafKey()).Verify(f.Body[:n], f.Body[n:]) {
		return 0, ErrBadMAC
	}
	r := codec.NewReader(f.Body[:n])
	area := r.BorrowBytes()
	epoch = r.Uvarint()
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadBody, err)
	}
	if string(area) != areaID {
		return epoch, ErrWrongArea
	}
	_, err = view.ApplyWire(epoch, r)
	if err != nil && !errors.Is(err, keytree.ErrStale) && !errors.Is(err, keytree.ErrEpochGap) {
		err = fmt.Errorf("%w: %v", ErrBadBody, err)
	}
	return epoch, err
}

// KeyUpdateDropReason names why ReceiveKeyUpdate refused a frame, for the
// receivers' per-reason drop counters (obs.KeyUpdateDropped): "bad_mac",
// "bad_body" or "wrong_area"; "" for nil and for the two outcomes that
// are not drops, keytree.ErrStale and keytree.ErrEpochGap.
func KeyUpdateDropReason(err error) string {
	switch {
	case err == nil, errors.Is(err, keytree.ErrStale), errors.Is(err, keytree.ErrEpochGap):
		return ""
	case errors.Is(err, ErrWrongArea):
		return "wrong_area"
	case errors.Is(err, ErrBadBody):
		return "bad_body"
	default:
		return "bad_mac"
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

// NewLeaveNotice returns memberID's leave, tagged under the key derived
// from its leaf key: only the member and its controller hold that key.
func NewLeaveNotice(memberID string, leaf crypt.SymKey) LeaveNotice {
	m := LeaveNotice{MemberID: memberID}
	mk := crypt.DeriveMACKey(leaf, leaveLabel)
	mk.Tag(m.Tag[:0], codec.AppendString(nil, memberID))
	return m
}

// Verify reports, in constant time, whether the notice is tagged under
// the key derived from leaf, the leaf key of the member it names.
func (m *LeaveNotice) Verify(leaf crypt.SymKey) bool {
	mk := crypt.DeriveMACKey(leaf, leaveLabel)
	return mk.Verify(codec.AppendString(nil, m.MemberID), m.Tag[:])
}

// AppendWire implements Marshaler.
func (m LeaveNotice) AppendWire(b []byte) []byte {
	b = codec.AppendString(b, m.MemberID)
	return codec.AppendRaw(b, m.Tag[:])
}

// ReadWire implements Unmarshaler.
func (m *LeaveNotice) ReadWire(r *codec.Reader) error {
	m.MemberID = r.String()
	copy(m.Tag[:], r.BorrowRaw(len(m.Tag)))
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
