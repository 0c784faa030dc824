package crypt

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"testing"

	"mykil/internal/race"
)

// TestMACKeyMatchesHMAC: a MACKey tag is crypto/hmac's HMAC-SHA256,
// truncated, for messages across block boundaries, and a derived key is
// HMAC-SHA256(k, label) used as the HMAC key.
func TestMACKeyMatchesHMAC(t *testing.T) {
	k := NewSymKey()
	label := []byte("test label")
	h := hmac.New(sha256.New, k[:])
	h.Write(label)
	derived := h.Sum(nil)

	for _, tc := range []struct {
		name string
		key  []byte
		mk   MACKey
	}{
		{"raw", k[:], newMACKey(k[:])},
		{"derived", derived, DeriveMACKey(k, label)},
	} {
		for _, n := range []int{0, 1, 55, 56, 63, 64, 65, 119, 128, 1000} {
			msg := bytes.Repeat([]byte{byte(n)}, n)
			ref := hmac.New(sha256.New, tc.key)
			ref.Write(msg)
			want := ref.Sum(nil)
			if got := tc.mk.Tag(nil, msg); !bytes.Equal(got, want[:MACTagLen]) {
				t.Fatalf("%s, %d-byte message: tag %x, want %x", tc.name, n, got, want[:MACTagLen])
			}
			full := make([]byte, sha256.Size)
			tc.mk.sum(full, msg)
			if !bytes.Equal(full, want) {
				t.Fatalf("%s, %d-byte message: sum %x, want %x", tc.name, n, full, want)
			}
			if !tc.mk.Verify(msg, want[:MACTagLen]) {
				t.Fatalf("%s, %d-byte message: own tag refused", tc.name, n)
			}
			bad := append([]byte(nil), want[:MACTagLen]...)
			bad[n%MACTagLen] ^= 1
			if tc.mk.Verify(msg, bad) || tc.mk.Verify(msg, want[:MACTagLen-1]) {
				t.Fatalf("%s, %d-byte message: altered or short tag accepted", tc.name, n)
			}
		}
	}
	if a, b := DeriveMACKey(k, []byte("a")), DeriveMACKey(k, []byte("b")); a == b {
		t.Fatal("two labels derived the same key")
	}
}

// TestMACKeyZeroAlloc: deriving a key, tagging and verifying allocate
// nothing once the pools are warm — a controller derives one key per
// receiver of every flush, and a member verifies every rekey.
func TestMACKeyZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("exact allocation counts are not meaningful under the race detector")
	}
	k := NewSymKey()
	label := []byte("label")
	msg := make([]byte, 200)
	dst := make([]byte, 0, MACTagLen)
	mk := DeriveMACKey(k, label)
	tag := mk.Tag(nil, msg)
	for name, f := range map[string]func(){
		"DeriveMACKey": func() { mk = DeriveMACKey(k, label) },
		"Tag":          func() { dst = mk.Tag(dst[:0], msg) },
		"Verify": func() {
			if !mk.Verify(msg, tag) {
				t.Fatal("tag refused")
			}
		},
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", name, allocs)
		}
	}
}
