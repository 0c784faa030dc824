package wire

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"mykil/internal/crypt"
	"mykil/internal/keytree"
	"mykil/internal/race"
)

// leaveRekey builds a 2,048-member area under s, lets 32 spread members
// leave, and returns a resident's pre-leave keys and epoch with the
// KeyUpdate body the controller would multicast.
func leaveRekey(t testing.TB, s crypt.Suite, areaID string) (base keytree.PathKeys, epoch uint64, body []byte, entries int) {
	t.Helper()
	tr := keytree.New(keytree.Config{Encryptor: keytree.NewSuiteEncryptor(s)})
	ids := make([]keytree.MemberID, 2048)
	for i := range ids {
		ids[i] = keytree.MemberID(fmt.Sprintf("m%04d", i))
	}
	if err := tr.Preload(ids); err != nil {
		t.Fatal(err)
	}
	leavers := tr.SpreadMembers(33)
	resident := leavers[32]
	base, err := tr.PathKeys(resident)
	if err != nil {
		t.Fatal(err)
	}
	epoch = tr.Epoch()
	res, err := tr.BatchLeave(leavers[:32])
	if err != nil {
		t.Fatal(err)
	}
	body, err = PlainBody(KeyUpdate{AreaID: areaID, Epoch: res.Epoch, Entries: res.Update.Entries})
	if err != nil {
		t.Fatal(err)
	}
	return base, epoch, body, len(res.Update.Entries)
}

// TestKeyUpdateReceiveZeroAlloc pins the receive path after the signature
// check — header, structural pass, applying pass, key unwraps — at zero
// allocations for a resident taking a leave-sized rekey, under every
// suite: no []Entry, no per-key cipher or MAC state, no plaintext buffer.
func TestKeyUpdateReceiveZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector; the exact-alloc pin runs in the non-race CI step")
	}
	for _, s := range crypt.Suites() {
		base, epoch, body, entries := leaveRekey(t, s, "area-x")
		if entries < 100 {
			t.Fatalf("%s: workload built %d entries, want a leave-sized rekey", s.Name(), entries)
		}
		v := keytree.NewMemberView(base, epoch, keytree.NewSuiteEncryptor(s))
		changed := 0
		receive := func() {
			v.Rebase(base, epoch)
			if _, err := applyKeyUpdate(body, "area-x", v); err != nil {
				t.Fatal(err)
			}
			if v.AreaKey() != base.Root().Key {
				changed++
			}
		}
		receive() // warm the key schedules and pools
		allocs := testing.AllocsPerRun(100, receive)
		if allocs != 0 {
			t.Errorf("%s: receiving a %d-entry KeyUpdate allocates %.1f/op, want 0", s.Name(), entries, allocs)
		}
		if changed != 102 { // the warm-up, AllocsPerRun's own, and its 100
			t.Errorf("%s: the area key changed in %d of 102 receives", s.Name(), changed)
		}
	}
}

// TestReceiveKeyUpdate walks the receiver's outcomes in the order the
// checks run: signature before any decoding, then header and area, then
// the whole body's structure, then the epoch — and only then keys.
func TestReceiveKeyUpdate(t *testing.T) {
	kp := keyPair(t)
	other, err := crypt.GenerateKeyPair(1024)
	if err != nil {
		t.Fatal(err)
	}
	suite, _ := crypt.SuiteByID(crypt.SuiteLegacy)
	base, epoch, body, _ := leaveRekey(t, suite, "area-x")
	v := keytree.NewMemberView(base, epoch, keytree.NewSuiteEncryptor(suite))
	frame := func(body []byte, signer *crypt.KeyPair) *Frame {
		return &Frame{Kind: KindKeyUpdate, From: "ac", Body: body, Sig: signer.Sign(body)}
	}
	unchanged := func(what string) {
		t.Helper()
		if v.Epoch() != epoch || v.AreaKey() != base.Root().Key {
			t.Fatalf("%s moved the view", what)
		}
	}

	garbage := []byte{0xff, 0xff, 0xff}
	if _, err := ReceiveKeyUpdate(frame(garbage, other), kp.Public(), "area-x", v); !errors.Is(err, crypt.ErrBadSignature) {
		t.Fatalf("undecodable body under a forged signature: %v, want ErrBadSignature before any decode", err)
	}
	if _, err := ReceiveKeyUpdate(frame(body, other), kp.Public(), "area-x", v); !errors.Is(err, crypt.ErrBadSignature) {
		t.Fatalf("forged signature: %v", err)
	}
	unchanged("a forged update")
	if _, err := ReceiveKeyUpdate(frame(garbage, kp), kp.Public(), "area-x", v); !errors.Is(err, ErrBadBody) {
		t.Fatalf("undecodable body: %v, want ErrBadBody", err)
	}
	if _, err := ReceiveKeyUpdate(frame(body, kp), kp.Public(), "area-y", v); !errors.Is(err, ErrWrongArea) {
		t.Fatalf("another area's update: %v, want ErrWrongArea", err)
	}
	unchanged("another area's update")
	for _, bad := range [][]byte{body[:len(body)-1], append(bytes.Clone(body), 0)} {
		if _, err := ReceiveKeyUpdate(frame(bad, kp), kp.Public(), "area-x", v); !errors.Is(err, ErrBadBody) {
			t.Fatalf("body of %d bytes (whole is %d): %v, want ErrBadBody", len(bad), len(body), err)
		}
		unchanged("a body malformed only at its end")
	}

	orig := bytes.Clone(body)
	got, err := ReceiveKeyUpdate(frame(body, kp), kp.Public(), "area-x", v)
	if err != nil || got != epoch+1 || v.Epoch() != epoch+1 || v.AreaKey() == base.Root().Key {
		t.Fatalf("genuine update: epoch %d, err %v, view at %d", got, err, v.Epoch())
	}
	if !bytes.Equal(body, orig) {
		t.Fatal("receiving wrote into the frame body")
	}
	key := v.AreaKey()
	if got, err := ReceiveKeyUpdate(frame(body, kp), kp.Public(), "area-x", v); !errors.Is(err, keytree.ErrStale) || got != epoch+1 {
		t.Fatalf("re-delivery: epoch %d, %v, want ErrStale", got, err)
	}
	v.Rebase(base, epoch-1)
	if _, err := ReceiveKeyUpdate(frame(body, kp), kp.Public(), "area-x", v); !errors.Is(err, keytree.ErrEpochGap) {
		t.Fatalf("update after a missed one: %v, want ErrEpochGap", err)
	}
	if v.Epoch() != epoch-1 || v.AreaKey() == key {
		t.Fatal("a gapped update moved the view")
	}
}
