// Package wire defines Mykil's message formats: the seven join-protocol
// steps (paper Fig. 3), the six rejoin steps (Fig. 7), multicast data and
// rekey messages, failure-detection alive messages, area-tree maintenance,
// and primary-backup replication traffic.
//
// Every transport payload is a Frame: a message kind, the sender address,
// a body, and an optional RSA signature over the body. Bodies are encoded
// with the compact deterministic codec in internal/wire/codec — every
// message struct implements Marshaler/Unmarshaler by hand, so no
// reflection runs and no type descriptors ride along on the wire (the
// paper's bandwidth results count bytes; gob's self-describing streams
// would inflate them). Confidential bodies are produced with SealBody
// (public-key hybrid encryption over the encoding plus an integrity
// digest — the paper's "MAC computed over the first N pieces of
// information"); non-confidential bodies use PlainBody.
package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"mykil/internal/crypt"
	"mykil/internal/keytree"
	"mykil/internal/wire/codec"
)

// Marshaler is the encoding half of the Body interface: it appends the
// message's compact wire form. Implemented with value receivers, so
// both values and pointers marshal.
type Marshaler interface {
	AppendWire(b []byte) []byte
}

// Unmarshaler is the decoding half of the Body interface. Implemented
// with pointer receivers; pass &msg.
type Unmarshaler interface {
	ReadWire(r *codec.Reader) error
}

// Body is implemented by (a pointer to) every message struct in this
// package. NewBody builds an empty Body for a Kind, replacing gob's
// reflective type dispatch with an explicit registry.
type Body interface {
	Marshaler
	Unmarshaler
}

// Kind discriminates frame payload types.
type Kind uint8

// Frame kinds. Values are wire-stable; append only.
const (
	// Join protocol, paper Fig. 3.
	KindJoinRequest   Kind = iota + 1 // step 1, client -> registration server
	KindJoinChallenge                 // step 2, RS -> client
	KindJoinResponse                  // step 3, client -> RS
	KindJoinRefer                     // step 4, RS -> area controller
	KindJoinGrant                     // step 5, RS -> client
	KindJoinToAC                      // step 6, client -> AC
	KindJoinWelcome                   // step 7, AC -> client
	KindJoinDenied                    // refusal at any step

	// Rejoin protocol, paper Fig. 7.
	KindRejoinRequest    // step 1, client -> new AC
	KindRejoinChallenge  // step 2, AC -> client
	KindRejoinResponse   // step 3, client -> AC
	KindRejoinVerifyReq  // step 4, new AC -> old AC
	KindRejoinVerifyResp // step 5, old AC -> new AC
	KindRejoinWelcome    // step 6, AC -> client
	KindRejoinDenied     // refusal

	// Data and key management, §III.
	KindData       // encrypted multicast data
	KindKeyUpdate  // rekey message (tagged per receiver by the AC)
	KindPathUpdate // unicast fresh path keys (displacement/recovery)

	// Failure detection, §IV-A.
	KindACAlive     // AC -> area members on idle
	KindMemberAlive // member -> AC on inactivity
	KindLeaveNotice // member -> AC voluntary leave
	KindPathRequest // member -> AC: resend my path keys (epoch gap recovery)

	// Area-tree maintenance, §IV-C.
	KindAreaJoinReq    // orphaned AC -> candidate parent AC
	KindAreaJoinAck    // parent AC -> child AC
	KindAreaJoinDenied // refusal

	// Primary-backup replication, §IV-C. Value 26 carried the full-state
	// snapshot push until replication collapsed onto journal segments; the
	// slot stays unassigned so no other kind's wire value moves.
	_
	KindReplicaHeartbeat // primary -> backup liveness
	KindACFailover       // backup -> area on takeover

	// Quorum leader election and segment replication.
	KindElection    // candidate replica -> replica set
	KindElectionOK  // voter -> candidate acknowledgement
	KindCoordinator // winner -> replica set
	KindSegmentPull // replica -> primary: journal records wanted
	KindSegmentPush // primary -> replica: journal segment records

	// Dynamic area topology (split/merge).
	KindAreaReassign // AC -> member: rejoin this sibling controller
)

var kindNames = map[Kind]string{
	KindJoinRequest:      "JoinRequest",
	KindJoinChallenge:    "JoinChallenge",
	KindJoinResponse:     "JoinResponse",
	KindJoinRefer:        "JoinRefer",
	KindJoinGrant:        "JoinGrant",
	KindJoinToAC:         "JoinToAC",
	KindJoinWelcome:      "JoinWelcome",
	KindJoinDenied:       "JoinDenied",
	KindRejoinRequest:    "RejoinRequest",
	KindRejoinChallenge:  "RejoinChallenge",
	KindRejoinResponse:   "RejoinResponse",
	KindRejoinVerifyReq:  "RejoinVerifyReq",
	KindRejoinVerifyResp: "RejoinVerifyResp",
	KindRejoinWelcome:    "RejoinWelcome",
	KindRejoinDenied:     "RejoinDenied",
	KindData:             "Data",
	KindKeyUpdate:        "KeyUpdate",
	KindPathUpdate:       "PathUpdate",
	KindACAlive:          "ACAlive",
	KindMemberAlive:      "MemberAlive",
	KindLeaveNotice:      "LeaveNotice",
	KindPathRequest:      "PathRequest",
	KindAreaJoinReq:      "AreaJoinReq",
	KindAreaJoinAck:      "AreaJoinAck",
	KindAreaJoinDenied:   "AreaJoinDenied",
	KindReplicaHeartbeat: "ReplicaHeartbeat",
	KindACFailover:       "ACFailover",
	KindElection:         "Election",
	KindElectionOK:       "ElectionOK",
	KindCoordinator:      "Coordinator",
	KindSegmentPull:      "SegmentPull",
	KindSegmentPush:      "SegmentPush",
	KindAreaReassign:     "AreaReassign",
}

// String returns the kind's protocol name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Errors returned by this package.
var (
	ErrBadFrame  = errors.New("wire: malformed frame")
	ErrBadBody   = errors.New("wire: body does not decode")
	ErrBadDigest = errors.New("wire: body integrity digest mismatch")
	ErrWrongArea = errors.New("wire: key update names another area")
	ErrBadMAC    = errors.New("wire: tag does not authenticate the body to its receiver")
)

// Frame is the unit handed to the transport.
//
// A frame is immutable from its first Send: a multicast hands the same
// *Frame to the transport once per receiver and every receiver is given
// the one encoding, so neither the fields nor the bytes behind Body and
// Sig may change afterwards. Build a new Frame to send something else.
type Frame struct {
	Kind Kind
	From string
	Body []byte
	Sig  []byte // optional RSA signature over Body

	// enc is the encoding Encode last built, with the field values it was
	// built from. Atomic so that goroutines sending one frame may race to
	// encode it: each publishes a complete, identical encoding.
	enc atomic.Pointer[frameEncoding]
}

// frameEncoding is one cached Frame.Encode result, or — when body is
// bytes itself — the shared encoding of a run of frames that differ only
// in their bodies (see runEncoding). It is never modified after it is
// published.
type frameEncoding struct {
	kind      Kind
	from      string
	body, sig []byte // compared by identity, not content
	bytes     []byte
}

// runEncoding returns the encoding of the run's frame whose Body is body,
// or nil if body is not one of the run's bodies. The run's frames are
// encoded back to back in e.bytes, and each frame's Body is a window onto
// them whose capacity reaches their end: that capacity places the body,
// and the bytes before it must be the frame's kind, sender and body
// length.
func (e *frameEncoding) runEncoding(body []byte) []byte {
	at := cap(e.bytes) - cap(body)
	if len(body) == 0 || at < 0 || at >= len(e.bytes) || &e.bytes[at] != &body[0] {
		return nil
	}
	start := at - 1 - codec.UvarintLen(uint64(len(e.from))) - len(e.from) - codec.UvarintLen(uint64(len(body)))
	end := at + len(body) + codec.UvarintLen(uint64(len(e.sig))) + len(e.sig)
	if start < 0 || end > len(e.bytes) {
		return nil
	}
	r := codec.NewReader(e.bytes[start:at])
	if Kind(r.Byte()) != e.kind || string(r.BorrowBytes()) != e.from || r.Uvarint() != uint64(len(body)) || r.Finish() != nil {
		return nil
	}
	return e.bytes[start:end:end]
}

// sameSlice reports whether a and b are the same window onto the same
// array.
func sameSlice(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Encode serializes the frame: one kind byte, then the length-prefixed
// sender address, body, and signature. The error return is kept for
// transport compatibility; encoding itself cannot fail.
//
// The frame keeps its encoding, so sending it to N receivers encodes it
// once: later calls return the same slice, which transports and
// receivers share — callers must not write to it. The cached bytes are
// reused only while Kind, From, Body and Sig are the values (for the
// slices: the same backing array and length) they were built from, so
// assigning a field after an Encode — a late `f.Sig = …` — re-encodes
// rather than sending stale bytes. Writing into Body's or Sig's array in
// place is not detected; the immutability rule above forbids it.
func (f *Frame) Encode() ([]byte, error) {
	if e := f.enc.Load(); e != nil && e.kind == f.Kind && e.from == f.From && sameSlice(e.sig, f.Sig) {
		if !sameSlice(e.body, e.bytes) {
			if sameSlice(e.body, f.Body) {
				return e.bytes, nil
			}
		} else if b := e.runEncoding(f.Body); b != nil {
			return b, nil
		}
	}
	b := make([]byte, 0, 1+3*binary.MaxVarintLen32+len(f.From)+len(f.Body)+len(f.Sig))
	b = codec.AppendByte(b, byte(f.Kind))
	b = codec.AppendString(b, f.From)
	b = codec.AppendBytes(b, f.Body)
	b = codec.AppendBytes(b, f.Sig)
	f.enc.Store(&frameEncoding{kind: f.Kind, from: f.From, body: f.Body, sig: f.Sig, bytes: b})
	return b, nil
}

// DecodeFrame reverses Frame.Encode. The whole input must be consumed;
// trailing bytes are an error, so every frame has exactly one encoding.
//
// The returned frame borrows b: Body and Sig are windows onto it, not
// copies, so b must not be modified or reused while the frame (or
// anything decoded from its body without copying — KeyUpdate entry
// ciphertexts, Data.EncKey and Data.Payload) is in use. Receivers of one
// multicast share b; they read it and copy what they keep. The decoded
// frame does not adopt b as its encoding: Encode on it builds fresh
// bytes.
func DecodeFrame(b []byte) (*Frame, error) {
	r := codec.NewReader(b)
	f := &Frame{
		Kind: Kind(r.Byte()),
		From: r.String(),
		Body: r.BorrowBytes(),
		Sig:  r.BorrowBytes(),
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if f.Kind == 0 {
		return nil, fmt.Errorf("%w: zero kind", ErrBadFrame)
	}
	return f, nil
}

// PlainBody encodes a message struct for use as an unencrypted frame
// body. The error return is kept for call-site compatibility; the codec
// cannot fail on encode.
func PlainBody(v Marshaler) ([]byte, error) {
	return v.AppendWire(make([]byte, 0, 64)), nil
}

// DecodePlain reverses PlainBody, requiring the input to be fully
// consumed.
func DecodePlain(b []byte, v Unmarshaler) error {
	r := codec.NewReader(b)
	if err := v.ReadWire(r); err != nil {
		return fmt.Errorf("%w: %v", ErrBadBody, err)
	}
	if err := r.Finish(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadBody, err)
	}
	return nil
}

// SealBody encrypts a message struct to a recipient public key, prefixing
// the plaintext with a SHA-256 digest — the paper's in-message MAC. Large
// bodies automatically use the one-time-key hybrid path (§V-D).
func SealBody(to crypt.PublicKey, v Marshaler) ([]byte, error) {
	payload, err := PlainBody(v)
	if err != nil {
		return nil, err
	}
	digest := sha256.Sum256(payload)
	blob := make([]byte, 0, len(digest)+len(payload))
	blob = append(blob, digest[:]...)
	blob = append(blob, payload...)
	return to.Encrypt(blob)
}

// OpenBody decrypts and integrity-checks a SealBody blob into v.
func OpenBody(kp *crypt.KeyPair, blob []byte, v Unmarshaler) error {
	pt, err := kp.Decrypt(blob)
	if err != nil {
		return err
	}
	if len(pt) < sha256.Size {
		return ErrBadDigest
	}
	digest := sha256.Sum256(pt[sha256.Size:])
	if !bytes.Equal(digest[:], pt[:sha256.Size]) {
		return ErrBadDigest
	}
	return DecodePlain(pt[sha256.Size:], v)
}

// ACInfo describes one area controller: the directory entry members use
// to find rejoin targets while mobile (§IV-B: "the registration server
// provide[s] a list of all area controllers' addresses and public keys").
type ACInfo struct {
	ID     string
	Addr   string
	PubDER []byte
}

// ---- Join protocol (Fig. 3) ----

// JoinRequest is step 1: {auth-info; Pub_k; Nonce_CW; MAC}_Pub_rs.
type JoinRequest struct {
	AuthInfo   string
	ClientID   string
	ClientAddr string
	ClientPub  []byte // DER
	NonceCW    uint64
}

// JoinChallenge is step 2: {Nonce_CW+1; Nonce_WC; MAC}_Pub_k.
type JoinChallenge struct {
	NonceCWPlus1 uint64
	NonceWC      uint64
}

// JoinResponse is step 3: {Nonce_WC+1; MAC}_Pub_rs.
type JoinResponse struct {
	ClientID     string
	NonceWCPlus1 uint64
}

// JoinRefer is step 4, RS to AC: {Nonce_AC; K_id; ts; Pub_k; MAC}_Pub_ac,
// signed Prv_rs.
type JoinRefer struct {
	NonceAC    uint64
	ClientID   string
	ClientAddr string
	Timestamp  time.Time
	ClientPub  []byte // DER
	// Duration is the membership period the registration server granted;
	// the AC stamps it into the ticket's validity window.
	Duration time.Duration
}

// JoinGrant is step 5, RS to client: {Nonce_AC+1; Pub_AC; MAC}_Pub_k,
// signed Prv_rs. Directory carries all controllers for later rejoins.
type JoinGrant struct {
	NonceACPlus1 uint64
	AC           ACInfo
	Directory    []ACInfo
}

// JoinToAC is step 6, client to AC: {Nonce_AC+2; Nonce_CA; MAC}_Pub_ac.
type JoinToAC struct {
	ClientID     string
	ClientAddr   string
	NonceACPlus2 uint64
	NonceCA      uint64
	// SuiteMask advertises the cipher suites the client speaks
	// (bit 1<<SuiteID). Zero — including every pre-negotiation frame —
	// means legacy-only.
	SuiteMask uint64
}

// JoinWelcome is step 7, AC to client:
// {Nonce_CA+1; ticket; [aux-keys]; MAC}_Pub_k.
type JoinWelcome struct {
	NonceCAPlus1 uint64
	TicketBlob   []byte
	Path         []keytree.PathKey
	Epoch        uint64
	AreaID       string
	// Backup lets members recognize a legitimate failover (§IV-C).
	BackupAddr string
	BackupPub  []byte // DER
	// Suite is the cipher suite the area runs; all subsequent rekey and
	// EncKey sealing between this member and the AC uses it. Zero
	// (SuiteLegacy) is the compatibility default.
	Suite crypt.SuiteID
}

// JoinDenied refuses a join at any step.
type JoinDenied struct {
	ClientID string
	Reason   string
}

// ---- Rejoin protocol (Fig. 7) ----

// RejoinRequest is step 1: {Nonce_CB; ticket; MAC}_Pub_ac_b.
type RejoinRequest struct {
	ClientID   string
	ClientAddr string
	NonceCB    uint64
	TicketBlob []byte
	// SuiteMask advertises the client's cipher suites, as in JoinToAC.
	SuiteMask uint64
}

// RejoinChallenge is step 2: {Nonce_CB+1; Nonce_BC; MAC}_Pub_k.
type RejoinChallenge struct {
	NonceCBPlus1 uint64
	NonceBC      uint64
}

// RejoinResponse is step 3: {Nonce_BC+1; MAC}_Pub_ac_b.
type RejoinResponse struct {
	ClientID     string
	NonceBCPlus1 uint64
}

// RejoinVerifyReq is step 4, new AC to old AC: {K_id; ts; MAC}_Pub_ac_a,
// signed Prv_ac_b — the anti-cohort check.
type RejoinVerifyReq struct {
	ClientID  string
	Timestamp time.Time
}

// RejoinVerifyResp is step 5, old AC to new AC:
// {ticket; ts; MAC}_Pub_ac_b, signed Prv_ac_a.
type RejoinVerifyResp struct {
	ClientID string
	// StillMember is true when the client has not left the old area —
	// the malicious-cohort signal; the new AC must deny the rejoin.
	StillMember bool
	TicketBlob  []byte
	Timestamp   time.Time
}

// RejoinWelcome is step 6: {ticket; [aux-keys]; MAC}_Pub_k, signed
// Prv_ac_b.
type RejoinWelcome struct {
	TicketBlob []byte
	Path       []keytree.PathKey
	Epoch      uint64
	AreaID     string
	BackupAddr string
	BackupPub  []byte
	// Suite is the cipher suite of the area being rejoined.
	Suite crypt.SuiteID
}

// RejoinDenied refuses a rejoin.
type RejoinDenied struct {
	ClientID string
	Reason   string
}

// ---- Data and key management (§III) ----

// DataCipher is the Data.Cipher tag: it names the cipher suite that sealed
// the payload, which is the suite of the area the origin sent from. It is
// not a choice a sender makes.
type DataCipher uint8

const (
	// CipherAES tags the legacy suite: AES-CTR + HMAC-SHA256 (crypt.Seal).
	CipherAES DataCipher = iota + 1
	// Value 2 tagged an unauthenticated RC4 payload; it is retired and
	// stays unassigned so no other tag moves.
	_
	// CipherGCM tags the aes-gcm suite.
	CipherGCM
	// CipherChaCha tags the chacha20-poly1305 suite.
	CipherChaCha
)

// CipherOf returns the tag naming suite id: CipherAES for legacy, and two
// above its ID for every suite after it (CipherGCM, CipherChaCha, and
// whatever crypt registers next). It is the only place the two numberings
// meet; Suite is its inverse.
func CipherOf(id crypt.SuiteID) DataCipher {
	if id == crypt.SuiteLegacy {
		return CipherAES
	}
	return DataCipher(id) + 2
}

// Suite resolves a received tag to the registered suite it names; false
// for the zero tag, the retired value and anything unregistered.
func (c DataCipher) Suite() (crypt.Suite, bool) {
	for id := crypt.SuiteID(0); ; id++ {
		s, err := crypt.SuiteByID(id)
		if err != nil {
			return nil, false
		}
		if CipherOf(id) == c {
			return s, true
		}
	}
}

// Data is one multicast data packet: payload sealed under a random key
// K_d by the origin area's suite, and K_d sealed under the area key of the
// area it is traversing. An AC crossing an area boundary re-seals only
// EncKey (Iolus-style, Fig. 2); Cipher and Payload travel unchanged from
// origin to every receiver.
type Data struct {
	Origin     string // originating member
	OriginArea string
	Seq        uint64 // per-origin sequence, for dedup across forwarding
	FromArea   string // area the frame is currently traversing
	Cipher     DataCipher
	EncKey     []byte // Seal(areaKey, K_d)
	Payload    []byte // Cipher's suite: Seal(K_d, data)
}

// KeyUpdate is the rekey message. The paper (§III-E) multicasts one
// update, signed with the area controller's private key; Mykil sends
// each resident its own part instead (keytree.Cut): the entries on its
// root path, under a truncated HMAC-SHA256 tag keyed by the resident's
// leaf key (KeyUpdateFrames), which authenticates the controller to that
// one receiver. PlainBody of a hand-built value carries a zero Tag, which
// no receiver accepts.
type KeyUpdate struct {
	AreaID  string
	Epoch   uint64
	Entries []keytree.Entry
	Tag     [crypt.MACTagLen]byte
}

// PathUpdate delivers fresh path keys to a single member, sealed to its
// public key: displacement during a split, or recovery after missed
// epochs.
type PathUpdate struct {
	AreaID string
	Epoch  uint64
	Path   []keytree.PathKey
}

// ---- Failure detection (§IV-A) ----

// ACAlive is multicast by an area controller within its area whenever it
// has sent nothing for T_idle.
type ACAlive struct {
	AreaID string
	Epoch  uint64
}

// MemberAlive is unicast by a member to its AC whenever it has sent
// nothing for T_active.
type MemberAlive struct {
	MemberID string
}

// LeaveNotice is a voluntary departure announcement, tagged under the
// leaving member's leaf key (NewLeaveNotice).
type LeaveNotice struct {
	MemberID string
	Tag      [crypt.MACTagLen]byte
}

// PathRequest asks the member's own AC to resend its path keys after the
// member detected an epoch gap (e.g. a transiently lost rekey message).
// The response is a PathUpdate sealed to the member's public key.
type PathRequest struct {
	MemberID string
	Epoch    uint64 // the member's current (stale) epoch
}

// ---- Area-tree maintenance (§IV-C) ----

// AreaJoinReq asks a candidate parent AC to adopt the sender's area:
// {A_c identity; ts; MAC}_Pub_acp, signed by the orphan's private key.
type AreaJoinReq struct {
	ACID      string
	ACAddr    string
	AreaID    string
	Timestamp time.Time
	// SuiteMask advertises the orphan AC's cipher suites; zero means
	// legacy-only.
	SuiteMask uint64
}

// AreaJoinAck admits the orphan AC as a member of the parent area,
// delivering its leaf path in the parent's auxiliary tree.
type AreaJoinAck struct {
	ParentID     string
	ParentAreaID string
	Path         []keytree.PathKey
	Epoch        uint64
	Timestamp    time.Time
	// Suite is the parent area's cipher suite: the child applies parent
	// KeyUpdates and re-seals up-forwarded EncKeys with it.
	Suite crypt.SuiteID
}

// AreaJoinDenied refuses an area join.
type AreaJoinDenied struct {
	ACID   string
	Reason string
}

// ---- Replication (§IV-C) ----

// ReplicaHeartbeat is the primary's periodic liveness signal to its
// backup.
type ReplicaHeartbeat struct {
	AreaID string
	Seq    uint64
}

// ACFailover announces that the backup has taken over the area. Members
// verify the frame signature against the backup public key learned at
// join.
type ACFailover struct {
	AreaID  string
	NewAddr string
	NewPub  []byte // DER
	Epoch   uint64
}

// ---- Quorum leader election and segment replication ----

// Election opens a Bully-style election among an area's replica set
// after the primary falls silent. Candidates are totally ordered by
// (LSN, CandidateID): a voter acknowledges only candidates at least as
// durable as itself, so the winner always holds the longest journal.
type Election struct {
	AreaID      string
	CandidateID string
	LSN         uint64 // next journal LSN the candidate has applied up to
}

// ElectionOK is a voter's acknowledgement that the candidate may lead.
type ElectionOK struct {
	AreaID  string
	VoterID string
	LSN     uint64 // the voter's own applied LSN, for observability
}

// Coordinator announces the election winner to the replica set. Losers
// re-point their monitoring at the new leader. MemberAddrs carries the
// recovered area's member addresses: members only trust ACFailover
// frames signed by the replica they learned at join, so when a different
// replica wins, that advertised replica relays the announcement to these
// addresses on the winner's behalf.
type Coordinator struct {
	AreaID      string
	LeaderID    string
	Addr        string
	PubDER      []byte // DER
	Epoch       uint64 // key-tree epoch the winner recovered at
	MemberAddrs []string
}

// SegmentPull asks the primary for journal records from FromLSN up. Sent
// by a replica whose applied LSN trails the LSN advertised in the
// primary's heartbeat.
type SegmentPull struct {
	AreaID  string
	FromLSN uint64
}

// SegmentPush ships journal records [FromLSN, NextLSN) to a lagging
// replica. When FromLSN predates the primary's oldest retained segment, a
// baseline state snapshot (as of SnapshotLSN) rides along and Records
// resume from there. HeartbeatEvery carries the primary's configured
// heartbeat cadence so replicas derive their timers from the stream
// instead of duplicating the value in their own config.
type SegmentPush struct {
	AreaID         string
	FromLSN        uint64
	NextLSN        uint64
	SnapshotLSN    uint64
	Snapshot       []byte
	Records        [][]byte
	HeartbeatEvery time.Duration
}

// ---- Dynamic area topology ----

// AreaReassign directs a member to rejoin a sibling controller during an
// area split or merge. The frame is signed by the member's current AC,
// which has pre-vouched the member with the target, so the rejoin skips
// the steps 4-5 verification round-trip.
type AreaReassign struct {
	AreaID     string // the member's current area
	TargetID   string
	TargetAddr string
	TargetPub  []byte // DER
	Reason     string // "split" or "merge"
}
