package crypt

import (
	"bytes"
	"testing"
)

func TestKeyPoolDeterministic(t *testing.T) {
	a, err := NewKeyPool(3, 512, 42)
	if err != nil {
		t.Fatalf("NewKeyPool: %v", err)
	}
	b, err := NewKeyPool(3, 512, 42)
	if err != nil {
		t.Fatalf("NewKeyPool: %v", err)
	}
	for i := 0; i < 3; i++ {
		if !bytes.Equal(a.At(i).MarshalPrivate(), b.At(i).MarshalPrivate()) {
			t.Errorf("key %d differs between identically seeded pools", i)
		}
	}
	c, err := NewKeyPool(3, 512, 43)
	if err != nil {
		t.Fatalf("NewKeyPool: %v", err)
	}
	if bytes.Equal(a.At(0).MarshalPrivate(), c.At(0).MarshalPrivate()) {
		t.Error("different seeds produced the same key")
	}
}

func TestKeyPoolRoundRobinShares(t *testing.T) {
	p, err := NewKeyPool(2, 512, 7)
	if err != nil {
		t.Fatalf("NewKeyPool: %v", err)
	}
	k0, k1, k2 := p.Next(), p.Next(), p.Next()
	if k0 == k1 {
		t.Error("consecutive Next calls returned the same pair")
	}
	if k0 != k2 {
		t.Error("round-robin did not wrap: third call should reuse the first pair")
	}
	if p.Size() != 2 {
		t.Errorf("Size = %d, want 2", p.Size())
	}
}

func TestKeyPoolKeysAreUsable(t *testing.T) {
	p, err := NewKeyPool(2, 768, 99)
	if err != nil {
		t.Fatalf("NewKeyPool: %v", err)
	}
	for i := 0; i < p.Size(); i++ {
		kp := p.At(i)
		msg := []byte("join handshake payload that exceeds one OAEP block once hybrid framing kicks in, padded out for good measure")
		sig := kp.Sign(msg)
		if err := kp.Public().Verify(msg, sig); err != nil {
			t.Errorf("key %d Verify: %v", i, err)
		}
		ct, err := kp.Public().Encrypt(msg)
		if err != nil {
			t.Fatalf("key %d Encrypt: %v", i, err)
		}
		pt, err := kp.Decrypt(ct)
		if err != nil {
			t.Fatalf("key %d Decrypt: %v", i, err)
		}
		if !bytes.Equal(pt, msg) {
			t.Errorf("key %d roundtrip mismatch", i)
		}
	}
}

func TestKeyPoolRejectsBadSizes(t *testing.T) {
	if _, err := NewKeyPool(0, 512, 1); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewKeyPool(1, 128, 1); err == nil {
		t.Error("128-bit modulus accepted")
	}
}

// TestRealKeygenPathStillDistinct pins the non-pooled path: GenerateKeyPair
// (what production principals and crypt.Pool use) must keep producing
// distinct, non-deterministic keys — the KeyPool shortcut is opt-in only.
func TestRealKeygenPathStillDistinct(t *testing.T) {
	a, err := GenerateKeyPair(512)
	if err != nil {
		t.Fatalf("GenerateKeyPair: %v", err)
	}
	b, err := GenerateKeyPair(512)
	if err != nil {
		t.Fatalf("GenerateKeyPair: %v", err)
	}
	if bytes.Equal(a.MarshalPrivate(), b.MarshalPrivate()) {
		t.Fatal("two real keygen calls returned identical keys")
	}
}
