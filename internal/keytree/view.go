package keytree

import (
	"errors"
	"fmt"
	"sync"

	"mykil/internal/crypt"
	"mykil/internal/wire/codec"
)

// NodeID identifies a node in one auxiliary-key tree. IDs are stable for
// the life of the node; keys rotate underneath them.
type NodeID int64

// MemberID identifies a group member within an area.
type MemberID string

// Entry is one encrypted key in a rekey message: the new key of node Node,
// encrypted under the key of node Under. In join-mode updates Under ==
// Node (new key encrypted under the node's previous key); in leave-mode
// updates Under is a child of Node, per the paper's §III-D scheme. No two
// entries of one update share an Under.
type Entry struct {
	Node       NodeID
	Under      NodeID
	Ciphertext []byte
}

// KeyUpdate is the multicast rekey message an area controller sends after
// join/leave events (or a batch of them). Entries are ordered bottom-up so
// a member processing them sequentially always holds the decryption key by
// the time it needs it.
type KeyUpdate struct {
	// Epoch is the tree's key epoch after applying this update. Members
	// track epochs to detect missed updates (e.g. across a partition).
	Epoch uint64
	// Entries carry the re-encrypted keys.
	Entries []Entry
}

// NumKeys returns how many encrypted keys the update carries — the unit
// the paper's bandwidth analysis counts (×16 bytes per key).
func (u *KeyUpdate) NumKeys() int {
	if u == nil {
		return 0
	}
	return len(u.Entries)
}

// PaperBytes returns the update size under the paper's accounting: one
// symmetric key length per encrypted key, no framing or cipher overhead.
func (u *KeyUpdate) PaperBytes() int { return u.NumKeys() * crypt.SymKeyLen }

// WireBytes returns the sum of actual ciphertext lengths.
func (u *KeyUpdate) WireBytes() int {
	if u == nil {
		return 0
	}
	total := 0
	for _, e := range u.Entries {
		total += len(e.Ciphertext)
	}
	return total
}

// PathKey is one (node, key) pair on a member's root path.
type PathKey struct {
	Node NodeID
	Key  crypt.SymKey
}

// PathKeys is a member's key material, ordered leaf first, root last. This
// is what join protocol step 7 delivers encrypted under the member's
// public key.
type PathKeys []PathKey

// Root returns the last (root) entry. Panics on empty paths, which the
// tree never produces.
func (p PathKeys) Root() PathKey { return p[len(p)-1] }

// Errors returned by view operations.
var (
	// ErrStale reports an update for an epoch at or below the view's.
	ErrStale = errors.New("keytree: stale key update")
	// ErrEpochGap reports one or more missed updates; the member can no
	// longer follow the key sequence and must rejoin (§IV-B).
	ErrEpochGap = errors.New("keytree: missed key update(s)")
)

// MemberView is the key state one member maintains: the keys along its
// path. The area controller builds the authoritative tree; each member
// holds only this view and evolves it by applying the KeyUpdates it
// receives.
//
// A path is at most a tree's depth long (≤ 8 nodes at arity 4 for any
// area this system runs), so the keys live in a slice parallel to path
// and lookups are linear scans: Apply and ApplyWire build no index and
// allocate nothing.
type MemberView struct {
	epoch uint64
	path  []NodeID       // leaf first, root last
	keys  []crypt.SymKey // keys[i] is the key of path[i]
	enc   Encryptor
}

// NewMemberView builds a view from the initial path keys delivered at
// join, at the given epoch.
func NewMemberView(initial PathKeys, epoch uint64, enc Encryptor) *MemberView {
	v := &MemberView{
		path: make([]NodeID, 0, len(initial)),
		keys: make([]crypt.SymKey, 0, len(initial)),
		enc:  enc,
	}
	v.Rebase(initial, epoch)
	return v
}

// Epoch returns the view's current key epoch.
func (v *MemberView) Epoch() uint64 { return v.epoch }

// AreaKey returns the member's current area (root) key.
func (v *MemberView) AreaKey() crypt.SymKey {
	if len(v.keys) == 0 {
		return crypt.SymKey{}
	}
	return v.keys[len(v.keys)-1]
}

// NumKeys returns how many keys the member currently stores — the
// quantity in the paper's §V-A storage analysis.
func (v *MemberView) NumKeys() int { return len(v.keys) }

// PathKeys returns a copy of the view's current key material, leaf first
// — used when the holder must persist or replicate its state.
func (v *MemberView) PathKeys() PathKeys {
	out := make(PathKeys, 0, len(v.path))
	for i, id := range v.path {
		out = append(out, PathKey{Node: id, Key: v.keys[i]})
	}
	return out
}

// PathLen returns the length of the member's root path.
func (v *MemberView) PathLen() int { return len(v.path) }

// Rebase replaces the view's key material, used when a member is moved to
// a new leaf (displacement during a split) or rejoins an area.
func (v *MemberView) Rebase(fresh PathKeys, epoch uint64) {
	v.path, v.keys = v.path[:0], v.keys[:0]
	for _, pk := range fresh {
		v.path = append(v.path, pk.Node)
		v.keys = append(v.keys, pk.Key)
	}
	v.epoch = epoch
}

// index returns the position of id on the view's path, or -1.
func (v *MemberView) index(id NodeID) int {
	for i, p := range v.path {
		if p == id {
			return i
		}
	}
	return -1
}

// LeafKey returns the key of the member's leaf: the one key on its path
// that only the member and its controller hold (Cut.Leaf).
func (v *MemberView) LeafKey() crypt.SymKey {
	if len(v.keys) == 0 {
		return crypt.SymKey{}
	}
	return v.keys[0]
}

// checkEpoch reports whether an update for epoch is the next one in
// sequence.
func (v *MemberView) checkEpoch(epoch uint64) error {
	if epoch <= v.epoch {
		return fmt.Errorf("%w: update epoch %d, view epoch %d", ErrStale, epoch, v.epoch)
	}
	if epoch != v.epoch+1 {
		return fmt.Errorf("%w: update epoch %d, view epoch %d", ErrEpochGap, epoch, v.epoch)
	}
	return nil
}

// applyEntry unwraps one rekey entry if its node lies on the member's
// path and the member holds its "under" key, and reports whether a key
// changed. ciphertext is only read.
func (v *MemberView) applyEntry(nodeID, underID NodeID, ciphertext []byte) bool {
	node := v.index(nodeID)
	if node < 0 {
		return false
	}
	under := node
	if underID != nodeID {
		if under = v.index(underID); under < 0 {
			return false
		}
	}
	newKey, err := v.enc.DecryptKey(v.keys[under], ciphertext)
	if err != nil {
		// Under self-encryption (join mode) our key for this node may
		// already be the new one (fresh unicast); skip quietly.
		return false
	}
	if v.keys[node].Equal(newKey) {
		return false
	}
	v.keys[node] = newKey
	return true
}

// Apply consumes one KeyUpdate, decrypting every entry whose "under" key
// the member holds and whose "node" lies on the member's path. It returns
// the number of keys the member actually updated (the paper's §V-B CPU
// metric) or an error if the update is stale or out of sequence. Entry
// ciphertexts are only read — they may alias a delivery buffer other
// members are applying at the same time.
func (v *MemberView) Apply(u *KeyUpdate) (updated int, err error) {
	if err := v.checkEpoch(u.Epoch); err != nil {
		return 0, err
	}
	for i := range u.Entries {
		e := &u.Entries[i]
		if v.applyEntry(e.Node, e.Under, e.Ciphertext) {
			updated++
		}
	}
	v.epoch = u.Epoch
	return updated, nil
}

// ApplyWire is Apply for an update still in its AppendEntries encoding:
// r stands at the entry list, which must be the last thing in its input,
// and epoch is the update's. The list is walked in place — no []Entry is
// built, so the work is two varints per entry plus an unwrap for the few
// on the member's own path — and walked twice: the first pass only checks
// structure (count bound, every entry well-formed, input fully consumed),
// so a malformed list returns the decode error with no key and no epoch
// changed, exactly as ReadEntries failing before Apply would. The input
// is only read.
func (v *MemberView) ApplyWire(epoch uint64, r *codec.Reader) (updated int, err error) {
	start := *r
	var e Entry
	n := r.Count(entryMinWire)
	for i := 0; i < n; i++ {
		if err := e.ReadWire(r); err != nil {
			return 0, err
		}
	}
	if err := r.Finish(); err != nil {
		return 0, err
	}
	if err := v.checkEpoch(epoch); err != nil {
		return 0, err
	}
	*r = start
	r.Count(entryMinWire)
	for i := 0; i < n; i++ {
		_ = e.ReadWire(r) // validated by the first pass
		if v.applyEntry(e.Node, e.Under, e.Ciphertext) {
			updated++
		}
	}
	v.epoch = epoch
	return updated, nil
}

// Encryptor abstracts the key-wrapping cipher so experiments can swap real
// authenticated encryption for a zero-overhead accounting cipher that
// reproduces the paper's "16 bytes per key" bandwidth arithmetic.
// Ciphertexts are fixed-size and appended into caller-owned buffers, so a
// tree builds a whole rekey update into one arena (see
// Config.ReuseUpdates). Implementations must be safe for concurrent use.
type Encryptor interface {
	// EncryptKeyTo wraps payload under the key `under`, appends the
	// ciphertext to dst, and returns the extended slice. Exactly
	// KeyCiphertextLen bytes are appended; no allocation occurs when dst
	// has capacity.
	EncryptKeyTo(dst []byte, under, payload crypt.SymKey) []byte
	// KeyCiphertextLen is the fixed length of one wrapped key.
	KeyCiphertextLen() int
	// DecryptKey unwraps a ciphertext produced by EncryptKeyTo.
	DecryptKey(under crypt.SymKey, ciphertext []byte) (crypt.SymKey, error)
}

// keyBufPool holds key-sized scratch for EncryptKeyTo and DecryptKey: a
// stack array passed across the crypt.Suite interface boundary would
// escape to the heap per call, so the payload copy and the unwrapped
// plaintext live here instead.
var keyBufPool = sync.Pool{New: func() any { return new([crypt.SymKeyLen]byte) }}

// SuiteEncryptor wraps keys with real authenticated encryption under a
// cipher suite — the negotiated one on the datapath. A zero
// SuiteEncryptor is invalid; construct with NewSuiteEncryptor.
type SuiteEncryptor struct {
	suite crypt.Suite
}

var _ Encryptor = SuiteEncryptor{}

// NewSuiteEncryptor returns an encryptor wrapping keys with s; nil means
// the legacy suite, the construction used where none was negotiated.
func NewSuiteEncryptor(s crypt.Suite) SuiteEncryptor {
	if s == nil {
		var err error
		if s, err = crypt.SuiteByID(crypt.SuiteLegacy); err != nil {
			panic(err) // legacy is always registered
		}
	}
	return SuiteEncryptor{suite: s}
}

// DecryptKey implements Encryptor.
func (e SuiteEncryptor) DecryptKey(under crypt.SymKey, ciphertext []byte) (crypt.SymKey, error) {
	buf := keyBufPool.Get().(*[crypt.SymKeyLen]byte)
	defer keyBufPool.Put(buf)
	pt, err := e.suite.OpenTo(buf[:0], under, ciphertext)
	if err != nil {
		return crypt.SymKey{}, err
	}
	return crypt.SymKeyFromBytes(pt)
}

// EncryptKeyTo implements Encryptor.
func (e SuiteEncryptor) EncryptKeyTo(dst []byte, under, payload crypt.SymKey) []byte {
	buf := keyBufPool.Get().(*[crypt.SymKeyLen]byte)
	*buf = payload
	dst = e.suite.SealTo(dst, under, buf[:])
	keyBufPool.Put(buf)
	return dst
}

// KeyCiphertextLen implements Encryptor.
func (e SuiteEncryptor) KeyCiphertextLen() int { return crypt.SymKeyLen + e.suite.Overhead() }

// AccountingEncryptor produces ciphertexts of exactly key length with no
// overhead — the paper's bandwidth accounting (§V-C counts 16 bytes per
// encrypted key). It provides NO confidentiality: ciphertext is keyed XOR,
// and decryption with a wrong key yields garbage rather than an error.
// Only size and message-structure experiments may use it.
type AccountingEncryptor struct{}

var _ Encryptor = AccountingEncryptor{}

// EncryptKeyTo implements Encryptor.
func (AccountingEncryptor) EncryptKeyTo(dst []byte, under, payload crypt.SymKey) []byte {
	for i := 0; i < crypt.SymKeyLen; i++ {
		dst = append(dst, payload[i]^under[i])
	}
	return dst
}

// KeyCiphertextLen implements Encryptor.
func (AccountingEncryptor) KeyCiphertextLen() int { return crypt.SymKeyLen }

// DecryptKey implements Encryptor.
func (AccountingEncryptor) DecryptKey(under crypt.SymKey, ciphertext []byte) (crypt.SymKey, error) {
	if len(ciphertext) != crypt.SymKeyLen {
		return crypt.SymKey{}, crypt.ErrShortCiphertext
	}
	var k crypt.SymKey
	for i := range k {
		k[i] = ciphertext[i] ^ under[i]
	}
	return k, nil
}
