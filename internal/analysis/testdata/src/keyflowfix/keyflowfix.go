// Package keyflowfix exercises keyflow's derived-taint rules: key
// material copied, converted, appended, or passed through one call level
// (parameters into printing helpers, returns out of exporters) is still
// caught at the sink, while lengths, fingerprints, and cleanly
// reassigned buffers stay silent. Direct bearers at sinks are keyleakfix's
// and cryptfix's cases.
package keyflowfix

import (
	"fmt"
	"log"
)

// Session holds key material under a recognized name.
type Session struct {
	GroupKey []byte
}

// CopyThenLog copies the key into an innocuously-named buffer first.
func CopyThenLog(s *Session) {
	buf := append([]byte(nil), s.GroupKey...)
	fmt.Printf("%x\n", buf) // want "buf carries key material copied from GroupKey into fmt.Printf"
}

// ConvertThenLog launders the key through a string conversion.
func ConvertThenLog(groupKey []byte) {
	text := string(groupKey)
	log.Println(text) // want "text carries key material copied from groupKey into log.Println"
}

// dump prints its buffer: an innocent-looking helper.
func dump(buf []byte) {
	fmt.Printf("%x\n", buf)
}

// LeakViaHelper passes the key to a helper that prints it.
func LeakViaHelper(s *Session) {
	dump(s.GroupKey) // want "GroupKey flows into dump, whose parameter reaches fmt.Printf"
}

// export returns the raw key bytes.
func export(s *Session) []byte {
	return s.GroupKey
}

// LeakViaReturn logs the exported copy.
func LeakViaReturn(s *Session) {
	raw := export(s)
	log.Printf("%x", raw) // want "raw carries key material copied from export"
}

// pad returns its input with a framing byte.
func pad(b []byte) []byte {
	out := append([]byte{0x01}, b...)
	return out
}

// LeakViaPad launders the key through pad before logging.
func LeakViaPad(groupKey []byte) {
	framed := pad(groupKey)
	fmt.Println(framed) // want "framed carries key material copied from groupKey"
}

// Suppressed documents an accepted leak; keyflow has no no-suppress
// paths, so the directive holds.
func Suppressed(s *Session) {
	buf := append([]byte(nil), s.GroupKey...)
	//lint:ignore keyflow the test-vector dump below is compiled out of release builds
	fmt.Printf("%x\n", buf)
}

// Suite mirrors the crypt.Suite cipher-suite shape (Seal, SealTo,
// Open); keyflow recognizes the triple structurally.
type Suite interface {
	Seal(k, plaintext []byte) []byte
	SealTo(dst, k, plaintext []byte) []byte
	Open(k, blob []byte) ([]byte, error)
	OpenTo(dst, k, blob []byte) ([]byte, error)
}

// OpenThenLog decrypts a sealed key-tree blob and logs the plaintext:
// a Suite Open result is key-grade material, a taint source.
func OpenThenLog(s Suite, k, blob []byte) {
	pt, err := s.Open(k, blob)
	if err != nil {
		return
	}
	log.Printf("recovered %x", pt) // want "pt carries key material copied from s.Open"
}

// OpenToThenLog is the same leak through the appending form.
func OpenToThenLog(s Suite, k, blob []byte) {
	pt, err := s.OpenTo(nil, k, blob)
	if err != nil {
		return
	}
	log.Printf("recovered %x", pt) // want "pt carries key material copied from s.OpenTo"
}

// exportNode wraps the suite Open one call level down; the summary
// carries the source out through the return.
func exportNode(s Suite, k, blob []byte) []byte {
	pt, _ := s.Open(k, blob)
	return pt
}

// LeakViaOpenReturn logs a helper's decrypted return.
func LeakViaOpenReturn(s Suite, k, blob []byte) {
	node := exportNode(s, k, blob)
	fmt.Printf("%x\n", node) // want "node carries key material copied from exportNode"
}

// SealIsClean proves the sanitizer direction: ciphertext out of Seal is
// public even when the plaintext was the key itself, and a SealTo onto
// a fresh buffer is equally clean. No diagnostics.
func SealIsClean(s Suite, groupKey []byte) {
	blob := s.Seal(groupKey, groupKey)
	fmt.Printf("sealed %x\n", blob)
	out := s.SealTo(nil, groupKey, groupKey)
	log.Println(len(out), out)
}

// SealToDirtyDst appends ciphertext onto a buffer that already holds
// raw key bytes: SealTo's result inherits the dst taint.
func SealToDirtyDst(s Suite, groupKey []byte) {
	buf := append([]byte(nil), groupKey...)
	buf = s.SealTo(buf, groupKey, []byte("payload"))
	fmt.Printf("%x\n", buf) // want "buf carries key material copied from groupKey"
}

// fingerprint folds the key into a short integer tag: the recommended
// remedy, and integer results never carry taint.
func fingerprint(b []byte) int {
	n := 0
	for _, x := range b {
		n += int(x)
	}
	return n
}

// Allowed derives only safe values: lengths kill taint, clean
// reassignment untaints, and fingerprints are integers.
func Allowed(s *Session, groupKey []byte) {
	n := len(s.GroupKey)
	fmt.Println(n)
	buf := append([]byte(nil), groupKey...)
	buf = []byte("public")
	fmt.Printf("%s\n", buf)
	fp := fingerprint(groupKey)
	log.Println(fp)
}
