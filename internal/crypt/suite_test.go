package crypt

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"testing"

	"mykil/internal/race"
)

func TestSuiteRegistry(t *testing.T) {
	for _, s := range Suites() {
		byID, err := SuiteByID(s.ID())
		if err != nil || byID.Name() != s.Name() {
			t.Fatalf("SuiteByID(%d) = %v, %v", s.ID(), byID, err)
		}
		byName, err := SuiteByName(s.Name())
		if err != nil || byName.ID() != s.ID() {
			t.Fatalf("SuiteByName(%q) = %v, %v", s.Name(), byName, err)
		}
	}
	if _, err := SuiteByID(99); err == nil {
		t.Fatal("SuiteByID(99) should fail")
	}
	if _, err := SuiteByName("rot13"); err == nil {
		t.Fatal("SuiteByName(rot13) should fail")
	}
	if s, err := SuiteByName(""); err != nil || s.ID() != SuiteLegacy {
		t.Fatalf("empty suite name should select legacy, got %v, %v", s, err)
	}
	if NormalizeSuiteMask(0) != SuiteLegacy.Mask() {
		t.Fatal("zero mask must normalize to legacy-only")
	}
	if AllSuitesMask()&SuiteChaCha20Poly1305.Mask() == 0 {
		t.Fatal("AllSuitesMask misses chacha20-poly1305")
	}
}

func TestSuiteRoundTrip(t *testing.T) {
	plaintexts := [][]byte{nil, {}, []byte("x"), []byte("the quick brown fox"), bytes.Repeat([]byte{0xAB}, 1000)}
	for _, s := range Suites() {
		k := NewSymKey()
		for _, pt := range plaintexts {
			blob := s.Seal(k, pt)
			if len(blob) != s.Overhead()+len(pt) {
				t.Fatalf("%s: blob %d bytes, want overhead %d + pt %d", s.Name(), len(blob), s.Overhead(), len(pt))
			}
			got, err := s.Open(k, blob)
			if err != nil {
				t.Fatalf("%s: Open: %v", s.Name(), err)
			}
			if !bytes.Equal(got, pt) && !(len(got) == 0 && len(pt) == 0) {
				t.Fatalf("%s: round trip mismatch", s.Name())
			}
			// SealTo appends the same construction.
			prefix := []byte("prefix")
			blob2 := s.SealTo(append([]byte(nil), prefix...), k, pt)
			if !bytes.Equal(blob2[:len(prefix)], prefix) {
				t.Fatalf("%s: SealTo clobbered dst prefix", s.Name())
			}
			if got2, err := s.Open(k, blob2[len(prefix):]); err != nil || (!bytes.Equal(got2, pt) && len(pt) > 0) {
				t.Fatalf("%s: Open(SealTo): %v", s.Name(), err)
			}
			// Tampering any byte must fail.
			if len(blob) > 0 {
				blob[len(blob)/2] ^= 1
				if _, err := s.Open(k, blob); err == nil {
					t.Fatalf("%s: tampered blob opened", s.Name())
				}
			}
			// Wrong key must fail.
			if _, err := s.Open(NewSymKey(), s.Seal(k, pt)); err == nil {
				t.Fatalf("%s: wrong key opened", s.Name())
			}
		}
	}
}

// TestLegacySuiteByteCompatible pins the redesign's central compatibility
// promise: the legacy suite and the package-level Seal/Open are the same
// construction, in both directions, including the scheduled SealTo path.
func TestLegacySuiteByteCompatible(t *testing.T) {
	s, _ := SuiteByName("legacy")
	k := NewSymKey()
	pt := []byte("golden frames stay pinned")
	if got, err := Open(k, s.Seal(k, pt)); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("crypt.Open(suite.Seal) = %v, %v", got, err)
	}
	if got, err := s.Open(k, Seal(k, pt)); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("suite.Open(crypt.Seal) = %v, %v", got, err)
	}
	if got, err := Open(k, s.SealTo(nil, k, pt)); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("crypt.Open(suite.SealTo) = %v, %v", got, err)
	}
	if s.Overhead() != SealOverhead {
		t.Fatalf("legacy overhead %d != SealOverhead %d", s.Overhead(), SealOverhead)
	}
}

func TestSuitesAreMutuallyUnintelligible(t *testing.T) {
	k := NewSymKey()
	pt := []byte("never a garbled frame")
	for _, sealer := range Suites() {
		blob := sealer.Seal(k, pt)
		for _, opener := range Suites() {
			if opener.ID() == sealer.ID() {
				continue
			}
			if got, err := opener.Open(k, blob); err == nil && bytes.Equal(got, pt) {
				t.Fatalf("%s opened a %s blob", opener.Name(), sealer.Name())
			}
		}
	}
}

// TestChaChaQuarterRound pins RFC 8439 §2.1.1's quarter-round vector.
func TestChaChaQuarterRound(t *testing.T) {
	a, b, c, d := quarterRound(0x11111111, 0x01020304, 0x9b8d6f43, 0x01234567)
	if a != 0xea2a92f4 || b != 0xcb1cf8ce || c != 0x4581472e || d != 0x5881c4bb {
		t.Fatalf("quarter round = %08x %08x %08x %08x", a, b, c, d)
	}
}

// TestChaChaBlockVector pins RFC 8439 §2.3.2's block-function vector.
func TestChaChaBlockVector(t *testing.T) {
	var key [8]uint32
	var keyBytes [32]byte
	for i := range keyBytes {
		keyBytes[i] = byte(i)
	}
	for i := range key {
		key[i] = binary.LittleEndian.Uint32(keyBytes[4*i:])
	}
	nonceBytes, _ := hex.DecodeString("000000090000004a00000000")
	var nonce [3]uint32
	for i := range nonce {
		nonce[i] = binary.LittleEndian.Uint32(nonceBytes[4*i:])
	}
	var out [64]byte
	chachaBlock(&key, &nonce, 1, &out)
	want, _ := hex.DecodeString(
		"10f1e7e4d13b5915500fdd1fa32071c4" +
			"c7d1f4c733c068030422aa9ac3d46c4e" +
			"d2826446079faa0914c2d705d98b02a2" +
			"b5129cd1de164eb9cbd083e8a2503c4e")
	if !bytes.Equal(out[:], want) {
		t.Fatalf("chacha block:\n got %x\nwant %x", out[:], want)
	}
}

// TestPoly1305Vector pins RFC 8439 §2.5.2's tag vector.
func TestPoly1305Vector(t *testing.T) {
	keyBytes, _ := hex.DecodeString("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
	var key [32]byte
	copy(key[:], keyBytes)
	msg := []byte("Cryptographic Forum Research Group")

	var p poly1305
	p.init(&key)
	p.update(msg)
	var tag [16]byte
	p.finish(tag[:])

	want, _ := hex.DecodeString("a8061dc1305136c6c22b8baf0c0127a9")
	if !bytes.Equal(tag[:], want) {
		t.Fatalf("poly1305 tag = %x, want %x", tag[:], want)
	}
}

// TestOpenTo pins OpenTo as Open's appending mirror on every suite: same
// plaintext, same errors, dst's prefix kept, blob never written — it is a
// window onto a delivery buffer other receivers are reading. For legacy
// the reference is the stdlib-built package-level Open.
func TestOpenTo(t *testing.T) {
	plaintexts := [][]byte{nil, []byte("x"), bytes.Repeat([]byte{0x5A}, SymKeyLen), bytes.Repeat([]byte{0xAB}, 1000)}
	for _, s := range Suites() {
		k := NewSymKey()
		ref := s.Open
		if s.ID() == SuiteLegacy {
			ref = Open
		}
		// check opens blob both ways and requires agreement with ref.
		check := func(what string, blob []byte, wantErr error) {
			t.Helper()
			orig := bytes.Clone(blob)
			prefix := []byte("prefix")
			got, err := s.OpenTo(bytes.Clone(prefix), k, blob)
			want, refErr := ref(k, blob)
			if !errors.Is(err, wantErr) || !errors.Is(refErr, wantErr) {
				t.Fatalf("%s: %s: OpenTo error %v, Open error %v, want %v", s.Name(), what, err, refErr, wantErr)
			}
			if !bytes.Equal(blob, orig) {
				t.Fatalf("%s: %s: OpenTo wrote into blob", s.Name(), what)
			}
			if wantErr != nil {
				if got != nil {
					t.Fatalf("%s: %s: OpenTo returned %d bytes with its error", s.Name(), what, len(got))
				}
				return
			}
			if !bytes.Equal(got[:len(prefix)], prefix) {
				t.Fatalf("%s: %s: OpenTo clobbered dst's prefix", s.Name(), what)
			}
			if !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("%s: %s: OpenTo = %x, Open = %x", s.Name(), what, got[len(prefix):], want)
			}
		}
		for _, pt := range plaintexts {
			blob := s.Seal(k, pt)
			check("Seal output", blob, nil)
			check("SealTo output", s.SealTo([]byte("junk"), k, pt)[4:], nil)
			if got, err := s.OpenTo(nil, k, blob); err != nil || !bytes.Equal(got, pt) {
				t.Fatalf("%s: OpenTo(nil) = %x, %v; want %x", s.Name(), got, err, pt)
			}
			for bit := 0; bit < 8*len(blob); bit++ {
				blob[bit/8] ^= 1 << (bit % 8)
				check("bit flip", blob, ErrDecrypt)
				blob[bit/8] ^= 1 << (bit % 8)
			}
			for n := 0; n < s.Overhead(); n++ {
				check("short input", blob[:n], ErrShortCiphertext)
			}
			if s.ID() != SuiteLegacy { // legacy blobs carry no ID byte
				for _, other := range Suites() {
					if other.ID() != s.ID() {
						foreign := bytes.Clone(blob)
						foreign[0] = byte(other.ID())
						check("foreign suite ID", foreign, ErrDecrypt)
					}
				}
			}
			if _, err := s.OpenTo(nil, NewSymKey(), blob); !errors.Is(err, ErrDecrypt) {
				t.Fatalf("%s: wrong key: %v, want ErrDecrypt", s.Name(), err)
			}
		}
	}
}

func TestOpenToZeroAllocSteadyState(t *testing.T) {
	if race.Enabled {
		t.Skip("exact allocation counts are not meaningful under the race detector")
	}
	for _, s := range Suites() {
		k := NewSymKey()
		blob := s.Seal(k, make([]byte, SymKeyLen))
		dst := make([]byte, 0, SymKeyLen)
		if _, err := s.OpenTo(dst, k, blob); err != nil { // warm the schedule cache
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := s.OpenTo(dst, k, blob); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: OpenTo allocates %.1f/op on the pooled path, want 0", s.Name(), allocs)
		}
	}
}

func TestSealToZeroAllocSteadyState(t *testing.T) {
	pt := make([]byte, SymKeyLen)
	for _, s := range Suites() {
		k := NewSymKey()
		dst := make([]byte, 0, 4*(s.Overhead()+len(pt)))
		s.SealTo(dst, k, pt) // warm the schedule cache
		suite := s
		allocs := testing.AllocsPerRun(100, func() {
			suite.SealTo(dst[:0], k, pt)
		})
		if allocs != 0 {
			t.Errorf("%s: SealTo allocates %.1f/op on the pooled path, want 0", suite.Name(), allocs)
		}
	}
}
