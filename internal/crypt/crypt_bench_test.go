package crypt

import (
	"testing"
)

func benchKeyPair(b *testing.B) *KeyPair {
	b.Helper()
	kp, err := GenerateKeyPair(2048)
	if err != nil {
		b.Fatal(err)
	}
	return kp
}

// BenchmarkSeal1KB and BenchmarkOpen1KB time one data payload per
// registered suite under the K_d discipline: every packet has a key of
// its own, so key set-up is part of the cost and a suite's per-key
// schedule cache never hits.
func BenchmarkSeal1KB(b *testing.B) {
	buf := make([]byte, 1024)
	for _, s := range Suites() {
		b.Run(s.Name(), func(b *testing.B) {
			b.SetBytes(1024)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Seal(NewSymKey(), buf)
			}
		})
	}
}

func BenchmarkOpen1KB(b *testing.B) {
	// Twice the schedule cache's bound: a key is evicted before the ring
	// comes round to it again.
	type packet struct {
		k    SymKey
		blob []byte
	}
	ring := make([]packet, 2*schedCacheMax)
	for _, s := range Suites() {
		b.Run(s.Name(), func(b *testing.B) {
			for i := range ring {
				k := NewSymKey()
				ring[i] = packet{k, s.Seal(k, make([]byte, 1024))}
			}
			b.SetBytes(1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := &ring[i%len(ring)]
				if _, err := s.Open(p.k, p.blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSealKeyWrap(b *testing.B) {
	// The rekey-entry operation: wrapping one 16-byte key.
	k, payload := NewSymKey(), NewSymKey()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Seal(k, payload[:])
	}
}

func BenchmarkRSAEncryptSmall(b *testing.B) {
	kp := benchKeyPair(b)
	pub := kp.Public()
	msg := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pub.Encrypt(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRSADecryptSmall(b *testing.B) {
	kp := benchKeyPair(b)
	ct, err := kp.Public().Encrypt(make([]byte, 64))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kp.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRSAHybridEncrypt1KB(b *testing.B) {
	// The §V-D path: an auxiliary-key payload too large for one OAEP
	// block, carried by a one-time symmetric key.
	kp := benchKeyPair(b)
	pub := kp.Public()
	msg := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pub.Encrypt(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRSASign(b *testing.B) {
	kp := benchKeyPair(b)
	msg := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kp.Sign(msg)
	}
}

func BenchmarkRSAVerify(b *testing.B) {
	kp := benchKeyPair(b)
	msg := make([]byte, 256)
	sig := kp.Sign(msg)
	pub := kp.Public()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.Verify(msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMAC(b *testing.B) {
	k := NewSymKey()
	msg := make([]byte, 256)
	b.SetBytes(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MAC(k, msg)
	}
}
