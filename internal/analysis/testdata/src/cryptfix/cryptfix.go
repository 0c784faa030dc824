// Package crypt exercises keyflow's zero-step, type-based rule: values of
// the secret crypt types are flagged regardless of variable name, while
// PublicKey is public by definition.
package crypt

import (
	"fmt"
	"log"
)

// SymKey mirrors the real crypt.SymKey secret type.
type SymKey [16]byte

// KeyPair mirrors the real crypt.KeyPair secret type.
type KeyPair struct{ priv [32]byte }

// PublicKey is not a secret.
type PublicKey struct{ der []byte }

// Leak prints secret-typed values held under innocuous names.
func Leak(k SymKey, pair *KeyPair) {
	fmt.Printf("material=%v\n", k) // want "k carries key material into fmt.Printf"
	log.Println(pair)              // want "pair carries key material into log.Println"
	s := string(k[:])              // conversions keep the bytes secret: keyflow tracks the copy
	fmt.Print(s)                   // want "s carries key material copied from k into fmt.Print"
}

// Allowed prints public keys and lengths: no diagnostics.
func Allowed(pub PublicKey, k SymKey) {
	fmt.Printf("pub=%v len=%d\n", pub, len(k))
}
