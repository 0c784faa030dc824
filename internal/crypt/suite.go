package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding"
	"fmt"
	"hash"
	"io"
	"sync"
)

// Suite is one authenticated-encryption construction for symmetric
// sealing. The loose Seal/Open function surface grew into this interface
// so the datapath can negotiate a cipher per area: `legacy` reproduces
// the original AES-128-CTR + HMAC-SHA256 encrypt-then-MAC construction
// byte for byte (golden frames, tickets, and journal replay stay
// pinned), while `aes-gcm` and `chacha20-poly1305` are modern AEADs
// whose sealed blobs carry a one-byte suite ID prefix.
//
// SealTo and OpenTo are the hot-path forms for keys that are used many
// times (tree keys): they append to dst and, once the suite's per-key
// schedule is cached (both cache it on first use), perform no heap
// allocation when dst has capacity — the batch rekey constructor builds
// KeyUpdate ciphertexts into one arena with SealTo, and a member unwraps
// its path keys out of the delivered frame with OpenTo.
type Suite interface {
	// ID is the wire identity of the suite (one byte in sealed blobs and
	// negotiation fields).
	ID() SuiteID
	// Name is the stable human name ("legacy", "aes-gcm",
	// "chacha20-poly1305") used by flags and options.
	Name() string
	// Overhead is the fixed byte count Seal adds to a plaintext.
	Overhead() int
	// Seal encrypts and authenticates plaintext under k. The output
	// embeds a random nonce; sealing twice yields different blobs.
	Seal(k SymKey, plaintext []byte) []byte
	// SealTo appends Seal's output to dst and returns the extended
	// slice. Exactly Overhead()+len(plaintext) bytes are appended.
	SealTo(dst []byte, k SymKey, plaintext []byte) []byte
	// Open authenticates and decrypts a Seal output; ErrDecrypt if the
	// blob was not produced under k by this suite or has been modified.
	Open(k SymKey, blob []byte) ([]byte, error)
	// OpenTo appends Open's output to dst and returns the extended slice,
	// or nil and Open's error. blob is only read — it may alias a buffer
	// other receivers are opening at the same time — and dst must not
	// overlap it.
	OpenTo(dst []byte, k SymKey, blob []byte) ([]byte, error)
}

// SuiteID is the one-byte wire identity of a cipher suite.
type SuiteID uint8

// Registered suite IDs. Legacy blobs carry no prefix (their first byte
// is a random nonce byte), so only the negotiation fields ever carry
// SuiteLegacy; AEAD blobs are self-described by their leading ID byte.
const (
	SuiteLegacy           SuiteID = 0
	SuiteAESGCM           SuiteID = 1
	SuiteChaCha20Poly1305 SuiteID = 2

	numSuites = 3
)

// String returns the suite's registered name.
func (id SuiteID) String() string {
	if int(id) < len(registeredSuites) {
		return registeredSuites[id].Name()
	}
	return fmt.Sprintf("suite-%d", uint8(id))
}

// Mask returns the suite's bit in a negotiation bitmask.
func (id SuiteID) Mask() uint64 { return 1 << uint(id) }

// AllSuitesMask is the negotiation bitmask advertising every registered
// suite.
func AllSuitesMask() uint64 { return 1<<numSuites - 1 }

// NormalizeSuiteMask maps the zero bitmask to legacy-only: peers that
// predate suite negotiation encode no mask field, and zero must mean
// "speaks only the original construction", never "speaks nothing".
func NormalizeSuiteMask(mask uint64) uint64 {
	if mask == 0 {
		return SuiteLegacy.Mask()
	}
	return mask
}

var registeredSuites = [numSuites]Suite{
	&legacySuite{},
	&gcmSuite{},
	&chachaSuite{},
}

// SuiteByID returns the registered suite with the given wire ID.
func SuiteByID(id SuiteID) (Suite, error) {
	if int(id) >= len(registeredSuites) {
		return nil, fmt.Errorf("crypt: unknown cipher suite ID %d", uint8(id))
	}
	return registeredSuites[id], nil
}

// SuiteByName returns the registered suite with the given name; the
// empty string selects legacy, the compatibility default.
func SuiteByName(name string) (Suite, error) {
	if name == "" {
		return registeredSuites[SuiteLegacy], nil
	}
	for _, s := range registeredSuites {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("crypt: unknown cipher suite %q (have %v)", name, SuiteNames())
}

// Suites returns every registered suite in ID order.
func Suites() []Suite {
	out := make([]Suite, len(registeredSuites))
	copy(out, registeredSuites[:])
	return out
}

// SuiteNames lists the registered suite names in ID order.
func SuiteNames() []string {
	out := make([]string, len(registeredSuites))
	for i, s := range registeredSuites {
		out[i] = s.Name()
	}
	return out
}

// grow extends b by n bytes and returns the extension writable; it only
// allocates when b lacks capacity.
func grow(b []byte, n int) []byte {
	l := len(b)
	if cap(b)-l >= n {
		return b[: l+n : cap(b)]
	}
	nb := make([]byte, l+n, 2*(l+n))
	copy(nb, b)
	return nb
}

// schedCache memoizes per-key cipher schedules. Keys rotate with epochs,
// so the cache is cleared wholesale past a bound instead of tracking
// recency — the working set is the handful of live tree keys.
type schedCache[T any] struct {
	mu sync.RWMutex
	m  map[SymKey]T
}

const schedCacheMax = 4096

func (c *schedCache[T]) get(k SymKey, build func(SymKey) T) T {
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	if ok {
		return v
	}
	v = build(k)
	c.mu.Lock()
	if c.m == nil || len(c.m) >= schedCacheMax {
		c.m = make(map[SymKey]T)
	}
	c.m[k] = v
	c.mu.Unlock()
	return v
}

// ---- legacy: AES-128-CTR + HMAC-SHA256 (encrypt-then-MAC) ----

// legacySchedule is the precomputed per-key state for the legacy suite:
// the expanded AES block cipher plus the HMAC pads already absorbed
// (MACKey), so the hot path runs without hmac.New or aes.NewCipher
// allocations.
type legacySchedule struct {
	block cipher.Block
	mac   MACKey
}

// marshalableHash is sha256.New's concrete capability set: the digest
// state round-trips through encoding.BinaryMarshaler, which is what lets
// one precomputed HMAC state serve many messages.
type marshalableHash interface {
	hash.Hash
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

var sha256Pool = sync.Pool{New: func() any { return sha256.New().(marshalableHash) }}

func newLegacySchedule(k SymKey) *legacySchedule {
	block, err := aes.NewCipher(k[:])
	if err != nil {
		panic(fmt.Sprintf("crypt: aes key setup: %v", err)) // key length fixed
	}
	return &legacySchedule{block: block, mac: newMACKey(macKeyFor(k))}
}

// legacyScratch holds the fixed-size working buffers the legacy hot
// path threads through interface calls (cipher.Block.Encrypt). Locals
// passed across an interface boundary escape to the heap, so these live
// in a pool instead of on the stack.
type legacyScratch struct {
	ctr, ks [aes.BlockSize]byte
	sum     [sha256.Size]byte
}

var legacyScratchPool = sync.Pool{New: func() any { return new(legacyScratch) }}

// ctrXOR applies AES-CTR keystream (iv as the initial counter block,
// big-endian increment — exactly cipher.NewCTR's discipline) to src into
// dst without the stdlib stream-wrapper allocation.
func ctrXOR(block cipher.Block, iv, dst, src []byte, sc *legacyScratch) {
	copy(sc.ctr[:], iv)
	for len(src) > 0 {
		block.Encrypt(sc.ks[:], sc.ctr[:])
		n := len(src)
		if n > aes.BlockSize {
			n = aes.BlockSize
		}
		for i := 0; i < n; i++ {
			dst[i] = src[i] ^ sc.ks[i]
		}
		dst, src = dst[n:], src[n:]
		for i := aes.BlockSize - 1; i >= 0; i-- {
			sc.ctr[i]++
			if sc.ctr[i] != 0 {
				break
			}
		}
	}
}

type legacySuite struct {
	sched schedCache[*legacySchedule]
}

func (s *legacySuite) ID() SuiteID   { return SuiteLegacy }
func (s *legacySuite) Name() string  { return "legacy" }
func (s *legacySuite) Overhead() int { return SealOverhead }

func (s *legacySuite) Seal(k SymKey, plaintext []byte) []byte {
	return Seal(k, plaintext)
}

func (s *legacySuite) Open(k SymKey, blob []byte) ([]byte, error) {
	return Open(k, blob)
}

func (s *legacySuite) SealTo(dst []byte, k SymKey, plaintext []byte) []byte {
	sched := s.sched.get(k, newLegacySchedule)
	off := len(dst)
	dst = grow(dst, SealOverhead+len(plaintext))
	out := dst[off:]
	nonce := out[:symNonceLen]
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		panic(fmt.Sprintf("crypt: reading randomness: %v", err))
	}
	sc := legacyScratchPool.Get().(*legacyScratch)
	ctrXOR(sched.block, nonce, out[symNonceLen:symNonceLen+len(plaintext)], plaintext, sc)
	sched.mac.sum(out[symNonceLen+len(plaintext):], out[:symNonceLen+len(plaintext)])
	legacyScratchPool.Put(sc)
	return dst
}

// OpenTo is Open (the stdlib-built reference) on the cached schedule:
// the tag is recomputed and compared in constant time before any byte is
// decrypted, and the plaintext goes to dst, never back into blob.
func (s *legacySuite) OpenTo(dst []byte, k SymKey, blob []byte) ([]byte, error) {
	if len(blob) < SealOverhead {
		return nil, ErrShortCiphertext
	}
	body, tag := blob[:len(blob)-symTagLen], blob[len(blob)-symTagLen:]
	sched := s.sched.get(k, newLegacySchedule)
	sc := legacyScratchPool.Get().(*legacyScratch)
	defer legacyScratchPool.Put(sc)
	sched.mac.sum(sc.sum[:], body)
	if subtle.ConstantTimeCompare(tag, sc.sum[:]) != 1 {
		return nil, ErrDecrypt
	}
	ct := body[symNonceLen:]
	off := len(dst)
	dst = grow(dst, len(ct))
	ctrXOR(sched.block, body[:symNonceLen], dst[off:], ct, sc)
	return dst, nil
}

// ---- aes-gcm: AES-128-GCM, blob = id(1) || nonce(12) || ct+tag(16) ----

const (
	aeadNonceLen = 12
	aeadTagLen   = 16
	// AEADOverhead is the fixed byte overhead the aes-gcm and
	// chacha20-poly1305 suites add: ID byte, nonce, and tag.
	AEADOverhead = 1 + aeadNonceLen + aeadTagLen
)

type gcmSuite struct {
	sched schedCache[cipher.AEAD]
}

func newGCM(k SymKey) cipher.AEAD {
	block, err := aes.NewCipher(k[:])
	if err != nil {
		panic(fmt.Sprintf("crypt: aes key setup: %v", err))
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic(fmt.Sprintf("crypt: gcm setup: %v", err))
	}
	return aead
}

func (s *gcmSuite) ID() SuiteID   { return SuiteAESGCM }
func (s *gcmSuite) Name() string  { return "aes-gcm" }
func (s *gcmSuite) Overhead() int { return AEADOverhead }

func (s *gcmSuite) Seal(k SymKey, plaintext []byte) []byte {
	return s.SealTo(make([]byte, 0, AEADOverhead+len(plaintext)), k, plaintext)
}

func (s *gcmSuite) SealTo(dst []byte, k SymKey, plaintext []byte) []byte {
	aead := s.sched.get(k, newGCM)
	off := len(dst)
	dst = grow(dst, 1+aeadNonceLen)
	dst[off] = byte(SuiteAESGCM)
	nonce := dst[off+1 : off+1+aeadNonceLen]
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		panic(fmt.Sprintf("crypt: reading randomness: %v", err))
	}
	return aead.Seal(dst, nonce, plaintext, nil)
}

func (s *gcmSuite) Open(k SymKey, blob []byte) ([]byte, error) {
	return s.OpenTo(nil, k, blob)
}

func (s *gcmSuite) OpenTo(dst []byte, k SymKey, blob []byte) ([]byte, error) {
	if len(blob) < AEADOverhead {
		return nil, ErrShortCiphertext
	}
	if SuiteID(blob[0]) != SuiteAESGCM {
		return nil, ErrDecrypt
	}
	aead := s.sched.get(k, newGCM)
	pt, err := aead.Open(dst, blob[1:1+aeadNonceLen], blob[1+aeadNonceLen:], nil)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}
