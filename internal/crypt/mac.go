package crypt

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding"
	"fmt"
	"sync"
)

// MACTagLen is the length of a MACKey tag: HMAC-SHA256 truncated to its
// first 128 bits (RFC 2104 §5 allows truncation to half the hash).
const MACTagLen = 16

// MACKey is HMAC-SHA256 under one key, precomputed: the SHA-256 chaining
// values after the key⊕ipad and key⊕opad blocks. A tag restores each
// into a pooled digest, so it costs the message's blocks plus two,
// allocates nothing, and a holder caches 64 bytes per key.
type MACKey struct{ inner, outer [sha256.Size]byte }

// DeriveMACKey returns k's MAC key for one purpose: the HMAC key
// HMAC-SHA256(k, label). Keys under distinct labels are independent, and
// none of them is k. It allocates nothing.
func DeriveMACKey(k SymKey, label []byte) MACKey {
	sc := macScratchPool.Get().(*macScratch)
	base := sc.key(k[:])
	base.sumTo(sc, label)
	mk := sc.key(sc.sum[:])
	macScratchPool.Put(sc)
	return mk
}

// newMACKey precomputes HMAC-SHA256 under key, at most one block long.
func newMACKey(key []byte) MACKey {
	sc := macScratchPool.Get().(*macScratch)
	mk := sc.key(key)
	macScratchPool.Put(sc)
	return mk
}

// Tag appends k's MACTagLen-byte tag over data to dst.
func (k *MACKey) Tag(dst, data []byte) []byte {
	sc := macScratchPool.Get().(*macScratch)
	k.sumTo(sc, data)
	dst = append(dst, sc.sum[:MACTagLen]...)
	macScratchPool.Put(sc)
	return dst
}

// Verify reports, in constant time, whether tag is k's tag over data.
func (k *MACKey) Verify(data, tag []byte) bool {
	sc := macScratchPool.Get().(*macScratch)
	k.sumTo(sc, data)
	ok := subtle.ConstantTimeCompare(tag, sc.sum[:MACTagLen]) == 1
	macScratchPool.Put(sc)
	return ok
}

// sum writes the untruncated HMAC-SHA256 of data into out.
func (k *MACKey) sum(out []byte, data []byte) {
	sc := macScratchPool.Get().(*macScratch)
	k.sumTo(sc, data)
	copy(out, sc.sum[:])
	macScratchPool.Put(sc)
}

func (k *MACKey) sumTo(sc *macScratch, data []byte) {
	d := sha256Pool.Get().(marshalableHash)
	sc.restore(d, &k.inner)
	d.Write(data)
	d.Sum(sc.sum[:0])
	sc.restore(d, &k.outer)
	d.Write(sc.sum[:])
	d.Sum(sc.sum[:0])
	sha256Pool.Put(d)
}

// A SHA-256 digest marshals (encoding.BinaryMarshaler) as a 4-byte magic,
// its eight state words big-endian, the pending partial block padded to a
// block, and the byte count. Right after the one pad block a MACKey
// starts from, nothing is pending and the count is one block: the state
// words, at shaChainOff, are all that differ between two such digests.
const (
	shaChainOff = 4
	shaStateLen = shaChainOff + sha256.Size + sha256.BlockSize + 8
)

// shaAfterBlock is a digest that has absorbed one block, marshaled.
var shaAfterBlock = func() []byte {
	d := sha256.New()
	d.Write(make([]byte, sha256.BlockSize))
	b, err := d.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil || len(b) != shaStateLen {
		panic(fmt.Sprintf("crypt: sha256 marshals %d bytes (%v), want %d", len(b), err, shaStateLen))
	}
	return b
}()

// binaryAppender is encoding.BinaryAppender, which sha256 digests
// implement from Go 1.24: marshaling into scratch without allocating.
type binaryAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

// macScratch holds what the MAC paths pass across interface calls
// (hash.Hash's Write, Sum and marshaling), which would move stack arrays
// to the heap.
type macScratch struct {
	state [shaStateLen]byte // always shaAfterBlock's layout
	pad   [sha256.BlockSize]byte
	sum   [sha256.Size]byte
}

var macScratchPool = sync.Pool{New: func() any {
	sc := new(macScratch)
	copy(sc.state[:], shaAfterBlock)
	return sc
}}

func (sc *macScratch) key(key []byte) MACKey {
	return MACKey{inner: sc.chain(key, 0x36), outer: sc.chain(key, 0x5c)}
}

// chain returns the chaining value after SHA-256 absorbs key⊕pad,
// zero-padded to one block.
func (sc *macScratch) chain(key []byte, pad byte) (c [sha256.Size]byte) {
	for i := range sc.pad {
		sc.pad[i] = pad
	}
	for i, b := range key {
		sc.pad[i] ^= b
	}
	d := sha256Pool.Get().(marshalableHash)
	d.Reset()
	d.Write(sc.pad[:])
	// One block absorbed: the marshaled state keeps sc.state's layout.
	var err error
	if a, ok := d.(binaryAppender); ok {
		_, err = a.AppendBinary(sc.state[:0])
	} else { // before Go 1.24, at the cost of an allocation
		var b []byte
		b, err = d.MarshalBinary()
		copy(sc.state[:], b)
	}
	if err != nil {
		panic(fmt.Sprintf("crypt: marshaling sha256 state: %v", err))
	}
	sha256Pool.Put(d)
	copy(c[:], sc.state[shaChainOff:])
	return c
}

// restore sets d to the digest whose chaining value is c, one block in.
func (sc *macScratch) restore(d marshalableHash, c *[sha256.Size]byte) {
	copy(sc.state[shaChainOff:], c[:])
	if err := d.UnmarshalBinary(sc.state[:]); err != nil {
		panic(fmt.Sprintf("crypt: restoring sha256 state: %v", err))
	}
}
