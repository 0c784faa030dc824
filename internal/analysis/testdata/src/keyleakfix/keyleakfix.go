// Package keyleakfix exercises keyflow's zero-step, name-based rule:
// bytes-like values named Key/Seed/KShared/Nonce must not reach logging
// sinks, while lengths and unrelated integers stay allowed.
package keyleakfix

import (
	"errors"
	"fmt"
	"log"
)

// Session holds key material under the names the check knows.
type Session struct {
	GroupKey []byte
	Seed     [16]byte
	Nonce    uint64
	Addr     string
}

// Leak sends key bytes into every sink family.
func Leak(s *Session, groupKey []byte, sessionKShared string) {
	fmt.Printf("key=%x\n", groupKey)      // want "groupKey carries key material into fmt.Printf"
	log.Printf("seed=%v", s.Seed)         // want "Seed carries key material into log.Printf"
	fmt.Println("shared", sessionKShared) // want "sessionKShared carries key material into fmt.Println"
	log.Println("nonce", s.Nonce)         // want "Nonce carries key material into log.Println"
	err := errors.New(string(groupKey))   // want "groupKey carries key material into errors.New"
	_ = err
	_ = fmt.Errorf("bad key %x", s.GroupKey) // want "GroupKey carries key material into fmt.Errorf"
}

// Logf mimics the repo's injected-logger convention.
type logger struct{}

func (logger) Logf(format string, args ...any) {}

// LeakViaLogf sends a key through a Logf callee.
func LeakViaLogf(l logger, rekeySeed []byte) {
	l.Logf("seed %x", rekeySeed) // want "rekeySeed carries key material into Logf"
}

// LeakInClosure logs from a function literal, where most of the repo's
// Logf calls live (loop callbacks).
func LeakInClosure(l logger, rekeySeed []byte) func() {
	return func() {
		l.Logf("seed %x", rekeySeed) // want "rekeySeed carries key material into Logf"
		buf := append([]byte(nil), rekeySeed...)
		fmt.Printf("%x\n", buf) // want "buf carries key material copied from rekeySeed into fmt.Printf"
	}
}

var bootSeed = []byte("not so secret")

// A package-level initializer is a sink site too.
var bootBanner = fmt.Sprintf("seed %x", bootSeed) // want "bootSeed carries key material into fmt.Sprintf"

// Allowed logs lengths, fingerprint-ish metadata, and non-bytes values
// whose names merely contain Key: no diagnostics.
func Allowed(s *Session, groupKey []byte) {
	fmt.Printf("key len=%d\n", len(groupKey))
	log.Printf("addr=%s members=%d", s.Addr, cap(groupKey))
	keyLen := 16
	fmt.Println("keyLen", keyLen)
	keyCount := len(s.GroupKey)
	log.Println("count", keyCount)
}
