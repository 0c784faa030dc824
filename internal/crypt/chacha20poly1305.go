package crypt

import (
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"io"
)

// ChaCha20-Poly1305 AEAD per RFC 8439, implemented from the spec on the
// standard library alone (the module is fully offline, so x/crypto is
// not available). The suite's 256-bit cipher key is derived from the
// protocol's 128-bit SymKey by a domain-separated SHA-256, cached per
// key alongside nothing else — ChaCha20 has no key schedule to expand.
//
// Blob layout matches the aes-gcm suite: id(1) || nonce(12) || ct ||
// tag(16). The Poly1305 one-time key is the first 32 bytes of the
// keystream block at counter 0; ciphertext starts at counter 1; the tag
// covers pad16(AAD=ε) || ct || pad16 || le64(0) || le64(len(ct)).

type chachaSuite struct {
	sched schedCache[*[8]uint32]
}

// chachaKeyWords derives and pre-parses the 256-bit ChaCha20 key.
func chachaKeyWords(k SymKey) *[8]uint32 {
	sum := sha256.Sum256(append([]byte("mykil-chacha20-key-v1"), k[:]...))
	var w [8]uint32
	for i := range w {
		w[i] = binary.LittleEndian.Uint32(sum[4*i:])
	}
	return &w
}

func (s *chachaSuite) ID() SuiteID   { return SuiteChaCha20Poly1305 }
func (s *chachaSuite) Name() string  { return "chacha20-poly1305" }
func (s *chachaSuite) Overhead() int { return AEADOverhead }

func (s *chachaSuite) Seal(k SymKey, plaintext []byte) []byte {
	return s.SealTo(make([]byte, 0, AEADOverhead+len(plaintext)), k, plaintext)
}

func (s *chachaSuite) SealTo(dst []byte, k SymKey, plaintext []byte) []byte {
	key := s.sched.get(k, chachaKeyWords)
	off := len(dst)
	dst = grow(dst, AEADOverhead+len(plaintext))
	out := dst[off:]
	out[0] = byte(SuiteChaCha20Poly1305)
	nonce := out[1 : 1+aeadNonceLen]
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		panic(fmt.Sprintf("crypt: reading randomness: %v", err))
	}
	var n [3]uint32
	n[0] = binary.LittleEndian.Uint32(nonce[0:])
	n[1] = binary.LittleEndian.Uint32(nonce[4:])
	n[2] = binary.LittleEndian.Uint32(nonce[8:])

	var otk [64]byte
	chachaBlock(key, &n, 0, &otk)
	ct := out[1+aeadNonceLen : 1+aeadNonceLen+len(plaintext)]
	chachaXOR(key, &n, 1, ct, plaintext)
	poly1305AEADTag(out[len(out)-aeadTagLen:], ct, (*[32]byte)(otk[:32]))
	return dst
}

func (s *chachaSuite) Open(k SymKey, blob []byte) ([]byte, error) {
	if len(blob) < AEADOverhead {
		return nil, ErrShortCiphertext
	}
	return s.OpenTo(make([]byte, 0, len(blob)-AEADOverhead), k, blob)
}

func (s *chachaSuite) OpenTo(dst []byte, k SymKey, blob []byte) ([]byte, error) {
	if len(blob) < AEADOverhead {
		return nil, ErrShortCiphertext
	}
	if SuiteID(blob[0]) != SuiteChaCha20Poly1305 {
		return nil, ErrDecrypt
	}
	key := s.sched.get(k, chachaKeyWords)
	nonce := blob[1 : 1+aeadNonceLen]
	ct := blob[1+aeadNonceLen : len(blob)-aeadTagLen]
	tag := blob[len(blob)-aeadTagLen:]

	var n [3]uint32
	n[0] = binary.LittleEndian.Uint32(nonce[0:])
	n[1] = binary.LittleEndian.Uint32(nonce[4:])
	n[2] = binary.LittleEndian.Uint32(nonce[8:])

	var otk [64]byte
	chachaBlock(key, &n, 0, &otk)
	var want [aeadTagLen]byte
	poly1305AEADTag(want[:], ct, (*[32]byte)(otk[:32]))
	if subtle.ConstantTimeCompare(tag, want[:]) != 1 {
		return nil, ErrDecrypt
	}
	off := len(dst)
	dst = grow(dst, len(ct))
	chachaXOR(key, &n, 1, dst[off:], ct)
	return dst, nil
}

// ---- ChaCha20 block function (RFC 8439 §2.3) ----

const (
	chachaConst0 = 0x61707865 // "expa"
	chachaConst1 = 0x3320646e // "nd 3"
	chachaConst2 = 0x79622d32 // "2-by"
	chachaConst3 = 0x6b206574 // "te k"
)

func quarterRound(a, b, c, d uint32) (uint32, uint32, uint32, uint32) {
	a += b
	d ^= a
	d = d<<16 | d>>16
	c += d
	b ^= c
	b = b<<12 | b>>20
	a += b
	d ^= a
	d = d<<8 | d>>24
	c += d
	b ^= c
	b = b<<7 | b>>25
	return a, b, c, d
}

// chachaBlock writes the 64-byte keystream block for (key, nonce,
// counter) into out.
func chachaBlock(key *[8]uint32, nonce *[3]uint32, counter uint32, out *[64]byte) {
	x0, x1, x2, x3 := uint32(chachaConst0), uint32(chachaConst1), uint32(chachaConst2), uint32(chachaConst3)
	x4, x5, x6, x7 := key[0], key[1], key[2], key[3]
	x8, x9, x10, x11 := key[4], key[5], key[6], key[7]
	x12, x13, x14, x15 := counter, nonce[0], nonce[1], nonce[2]

	for i := 0; i < 10; i++ {
		// Column rounds.
		x0, x4, x8, x12 = quarterRound(x0, x4, x8, x12)
		x1, x5, x9, x13 = quarterRound(x1, x5, x9, x13)
		x2, x6, x10, x14 = quarterRound(x2, x6, x10, x14)
		x3, x7, x11, x15 = quarterRound(x3, x7, x11, x15)
		// Diagonal rounds.
		x0, x5, x10, x15 = quarterRound(x0, x5, x10, x15)
		x1, x6, x11, x12 = quarterRound(x1, x6, x11, x12)
		x2, x7, x8, x13 = quarterRound(x2, x7, x8, x13)
		x3, x4, x9, x14 = quarterRound(x3, x4, x9, x14)
	}

	binary.LittleEndian.PutUint32(out[0:], x0+chachaConst0)
	binary.LittleEndian.PutUint32(out[4:], x1+chachaConst1)
	binary.LittleEndian.PutUint32(out[8:], x2+chachaConst2)
	binary.LittleEndian.PutUint32(out[12:], x3+chachaConst3)
	binary.LittleEndian.PutUint32(out[16:], x4+key[0])
	binary.LittleEndian.PutUint32(out[20:], x5+key[1])
	binary.LittleEndian.PutUint32(out[24:], x6+key[2])
	binary.LittleEndian.PutUint32(out[28:], x7+key[3])
	binary.LittleEndian.PutUint32(out[32:], x8+key[4])
	binary.LittleEndian.PutUint32(out[36:], x9+key[5])
	binary.LittleEndian.PutUint32(out[40:], x10+key[6])
	binary.LittleEndian.PutUint32(out[44:], x11+key[7])
	binary.LittleEndian.PutUint32(out[48:], x12+counter)
	binary.LittleEndian.PutUint32(out[52:], x13+nonce[0])
	binary.LittleEndian.PutUint32(out[56:], x14+nonce[1])
	binary.LittleEndian.PutUint32(out[60:], x15+nonce[2])
}

// chachaXOR XORs the keystream starting at the given block counter into
// src, writing dst (dst and src may be the same slice).
func chachaXOR(key *[8]uint32, nonce *[3]uint32, counter uint32, dst, src []byte) {
	var ks [64]byte
	for len(src) > 0 {
		chachaBlock(key, nonce, counter, &ks)
		counter++
		n := len(src)
		if n > len(ks) {
			n = len(ks)
		}
		for i := 0; i < n; i++ {
			dst[i] = src[i] ^ ks[i]
		}
		dst, src = dst[n:], src[n:]
	}
}

// ---- Poly1305 (RFC 8439 §2.5), 26-bit limbs ----

// poly1305AEADTag writes the RFC 8439 AEAD tag for empty AAD and the
// given ciphertext into out (16 bytes) under the one-time key otk.
func poly1305AEADTag(out, ct []byte, otk *[32]byte) {
	var p poly1305
	p.init(otk)
	p.update(ct)
	p.pad16(len(ct))
	var lens [16]byte
	// le64(len(AAD)=0) || le64(len(ct)); AAD contributes no pad block.
	binary.LittleEndian.PutUint64(lens[8:], uint64(len(ct)))
	p.update(lens[:])
	p.finish(out)
}

type poly1305 struct {
	r0, r1, r2, r3, r4 uint32 // clamped r, 26-bit limbs
	s1, s2, s3, s4     uint32 // 5*r_i, for the mod 2^130-5 fold
	h0, h1, h2, h3, h4 uint32 // accumulator, 26-bit limbs
	pad                [16]byte
	buf                [16]byte // partial block
	n                  int      // bytes buffered in buf
}

func (p *poly1305) init(key *[32]byte) {
	// Load and clamp r: the masks zero the bits RFC 8439 §2.5 requires
	// clear (top 4 bits of r[3,7,11,15], bottom 2 of r[4,8,12]).
	p.r0 = binary.LittleEndian.Uint32(key[0:]) & 0x3ffffff
	p.r1 = (binary.LittleEndian.Uint32(key[3:]) >> 2) & 0x3ffff03
	p.r2 = (binary.LittleEndian.Uint32(key[6:]) >> 4) & 0x3ffc0ff
	p.r3 = (binary.LittleEndian.Uint32(key[9:]) >> 6) & 0x3f03fff
	p.r4 = (binary.LittleEndian.Uint32(key[12:]) >> 8) & 0x00fffff
	p.s1, p.s2, p.s3, p.s4 = p.r1*5, p.r2*5, p.r3*5, p.r4*5
	copy(p.pad[:], key[16:])
}

// block absorbs one 16-byte block; hibit is 1<<24 for full blocks and 0
// for the already-0x01-terminated final partial block.
func (p *poly1305) block(m []byte, hibit uint32) {
	h0 := uint64(p.h0 + binary.LittleEndian.Uint32(m[0:])&0x3ffffff)
	h1 := uint64(p.h1 + (binary.LittleEndian.Uint32(m[3:])>>2)&0x3ffffff)
	h2 := uint64(p.h2 + (binary.LittleEndian.Uint32(m[6:])>>4)&0x3ffffff)
	h3 := uint64(p.h3 + (binary.LittleEndian.Uint32(m[9:])>>6)&0x3ffffff)
	h4 := uint64(p.h4 + (binary.LittleEndian.Uint32(m[12:])>>8 | hibit))

	r0, r1, r2, r3, r4 := uint64(p.r0), uint64(p.r1), uint64(p.r2), uint64(p.r3), uint64(p.r4)
	s1, s2, s3, s4 := uint64(p.s1), uint64(p.s2), uint64(p.s3), uint64(p.s4)

	d0 := h0*r0 + h1*s4 + h2*s3 + h3*s2 + h4*s1
	d1 := h0*r1 + h1*r0 + h2*s4 + h3*s3 + h4*s2
	d2 := h0*r2 + h1*r1 + h2*r0 + h3*s4 + h4*s3
	d3 := h0*r3 + h1*r2 + h2*r1 + h3*r0 + h4*s4
	d4 := h0*r4 + h1*r3 + h2*r2 + h3*r1 + h4*r0

	c := d0 >> 26
	d1 += c
	c = d1 >> 26
	d2 += c
	c = d2 >> 26
	d3 += c
	c = d3 >> 26
	d4 += c
	c = d4 >> 26
	h0 = d0&0x3ffffff + c*5
	c = h0 >> 26
	h0 &= 0x3ffffff
	h1 = d1&0x3ffffff + c

	p.h0, p.h1, p.h2, p.h3, p.h4 =
		uint32(h0), uint32(h1), uint32(d2&0x3ffffff), uint32(d3&0x3ffffff), uint32(d4&0x3ffffff)
}

func (p *poly1305) update(m []byte) {
	if p.n > 0 {
		take := copy(p.buf[p.n:], m)
		p.n += take
		m = m[take:]
		if p.n < 16 {
			return
		}
		p.block(p.buf[:], 1<<24)
		p.n = 0
	}
	for len(m) >= 16 {
		p.block(m[:16], 1<<24)
		m = m[16:]
	}
	if len(m) > 0 {
		p.n = copy(p.buf[:], m)
	}
}

// pad16 absorbs the zero padding that aligns an n-byte section to a
// 16-byte boundary (RFC 8439 §2.8's pad16).
func (p *poly1305) pad16(n int) {
	if rem := n % 16; rem != 0 {
		var zeros [16]byte
		p.update(zeros[:16-rem])
	}
}

func (p *poly1305) finish(out []byte) {
	if p.n > 0 {
		p.buf[p.n] = 1
		for i := p.n + 1; i < 16; i++ {
			p.buf[i] = 0
		}
		p.block(p.buf[:], 0)
	}

	h0, h1, h2, h3, h4 := p.h0, p.h1, p.h2, p.h3, p.h4

	// Full carry chain.
	c := h1 >> 26
	h1 &= 0x3ffffff
	h2 += c
	c = h2 >> 26
	h2 &= 0x3ffffff
	h3 += c
	c = h3 >> 26
	h3 &= 0x3ffffff
	h4 += c
	c = h4 >> 26
	h4 &= 0x3ffffff
	h0 += c * 5
	c = h0 >> 26
	h0 &= 0x3ffffff
	h1 += c

	// g = h + 5 - 2^130; select g when h >= p (no borrow out of g4).
	g0 := h0 + 5
	c = g0 >> 26
	g0 &= 0x3ffffff
	g1 := h1 + c
	c = g1 >> 26
	g1 &= 0x3ffffff
	g2 := h2 + c
	c = g2 >> 26
	g2 &= 0x3ffffff
	g3 := h3 + c
	c = g3 >> 26
	g3 &= 0x3ffffff
	g4 := h4 + c - (1 << 26)

	mask := (g4 >> 31) - 1 // all-ones when g4 did not borrow (h >= p)
	h0 = h0&^mask | g0&mask
	h1 = h1&^mask | g1&mask
	h2 = h2&^mask | g2&mask
	h3 = h3&^mask | g3&mask
	h4 = h4&^mask | g4&mask

	// Serialize to 128 bits and add s modulo 2^128.
	t0 := h0 | h1<<26
	t1 := h1>>6 | h2<<20
	t2 := h2>>12 | h3<<14
	t3 := h3>>18 | h4<<8

	f := uint64(t0) + uint64(binary.LittleEndian.Uint32(p.pad[0:]))
	binary.LittleEndian.PutUint32(out[0:], uint32(f))
	f = uint64(t1) + uint64(binary.LittleEndian.Uint32(p.pad[4:])) + f>>32
	binary.LittleEndian.PutUint32(out[4:], uint32(f))
	f = uint64(t2) + uint64(binary.LittleEndian.Uint32(p.pad[8:])) + f>>32
	binary.LittleEndian.PutUint32(out[8:], uint32(f))
	f = uint64(t3) + uint64(binary.LittleEndian.Uint32(p.pad[12:])) + f>>32
	binary.LittleEndian.PutUint32(out[12:], uint32(f))
}
