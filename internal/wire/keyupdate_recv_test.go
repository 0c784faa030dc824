package wire

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"mykil/internal/crypt"
	"mykil/internal/keytree"
	"mykil/internal/race"
	"mykil/internal/wire/codec"
)

// cutRekey is one rekey of a 2,048-member area as its controller would
// send it, seen from a resident that stays: the resident's keys and epoch
// before it, the cut, and which part is the resident's.
type cutRekey struct {
	base    keytree.PathKeys
	epoch   uint64
	scopes  []keytree.NodeID
	cut     KeyUpdateCut
	mine    int // the resident's part
	entries int // in the whole update
}

// body returns the frame body carrying part i.
func (c *cutRekey) body(i int) []byte { return c.cut.Body(i) }

// rekey builds the area under s and cuts one rekey of it: 32 spread
// members leaving, or (join) one member joining.
func rekey(t testing.TB, s crypt.Suite, areaID string, join bool) *cutRekey {
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
	if join {
		// Empty a leaf in the resident's own branch, so the joiner lands
		// there and that branch gets a part of its own.
		cohort, err := tr.CohortOf(resident, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cohort {
			if m != resident {
				if _, err := tr.Leave(m); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	c := &cutRekey{epoch: tr.Epoch()}
	var err error
	if c.base, err = tr.PathKeys(resident); err != nil {
		t.Fatal(err)
	}
	var res *keytree.BatchResult
	if join {
		res, err = tr.Join("joiner")
	} else {
		res, err = tr.BatchLeave(leavers[:32])
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, moved := res.Displaced[resident]; moved {
		t.Fatal("fixture displaced its resident")
	}
	c.entries = len(res.Update.Entries)
	c.scopes = res.Update.Scopes(nil)
	c.cut.Encode(areaID, res.Update, c.scopes)
	if c.mine, err = tr.Part(resident, c.scopes); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestKeyUpdateReceiveZeroAlloc pins the receive path after the signature
// check — framing, header and scope table, the part's digest, structural
// pass, applying pass, key unwraps — at zero allocations for a resident
// taking its part of a leave-sized rekey, under every suite: no scope
// slice, no copied digest, no []Entry, no per-key cipher or MAC state, no
// plaintext buffer.
func TestKeyUpdateReceiveZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector; the exact-alloc pin runs in the non-race CI step")
	}
	for _, s := range crypt.Suites() {
		c := rekey(t, s, "area-x", false)
		if c.entries < 100 || len(c.scopes) != keytree.DefaultArity+1 {
			t.Fatalf("%s: workload built %d entries in %d parts, want a leave-sized rekey touching every branch",
				s.Name(), c.entries, len(c.scopes))
		}
		body := c.body(c.mine)
		v := keytree.NewMemberView(c.base, c.epoch, keytree.NewSuiteEncryptor(s))
		changed := 0
		receive := func() {
			v.Rebase(c.base, c.epoch)
			header, part, list, err := splitKeyUpdate(body)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := applyKeyUpdate(header, part, list, "area-x", v); err != nil {
				t.Fatal(err)
			}
			if v.AreaKey() != c.base.Root().Key {
				changed++
			}
		}
		receive() // warm the key schedules and pools
		allocs := testing.AllocsPerRun(100, receive)
		if allocs != 0 {
			t.Errorf("%s: receiving a part of a %d-entry KeyUpdate allocates %.1f/op, want 0", s.Name(), c.entries, allocs)
		}
		if changed != 102 { // the warm-up, AllocsPerRun's own, and its 100
			t.Errorf("%s: the area key changed in %d of 102 receives", s.Name(), changed)
		}
	}
}

// TestReceiveKeyUpdate walks the receiver's outcomes in the order the
// checks run: framing, then the header's signature before any of it is
// decoded, then header and area, then part and digest, then the entry
// list's structure, then the epoch — and only then keys.
func TestReceiveKeyUpdate(t *testing.T) {
	kp := keyPair(t)
	other, err := crypt.GenerateKeyPair(1024)
	if err != nil {
		t.Fatal(err)
	}
	suite, _ := crypt.SuiteByID(crypt.SuiteLegacy)
	c := rekey(t, suite, "area-x", false)
	base, epoch, body := c.base, c.epoch, c.body(c.mine)
	v := keytree.NewMemberView(base, epoch, keytree.NewSuiteEncryptor(suite))
	frame := func(body []byte, signer *crypt.KeyPair) *Frame {
		return &Frame{Kind: KindKeyUpdate, From: "ac", Body: body, Sig: signer.Sign(c.cut.Header())}
	}
	unchanged := func(what string) {
		t.Helper()
		if v.Epoch() != epoch || v.AreaKey() != base.Root().Key {
			t.Fatalf("%s moved the view", what)
		}
	}

	if _, err := ReceiveKeyUpdate(frame([]byte{0xff, 0xff, 0xff}, kp), kp.Public(), "area-x", v); !errors.Is(err, ErrBadBody) {
		t.Fatalf("unframeable body: %v, want ErrBadBody", err)
	}
	// A header that does not decode, under a forged signature: the
	// signature is checked first.
	garbage := appendKeyUpdateFront(nil, []byte{0xff, 0xff, 0xff}, 0)
	if _, err := ReceiveKeyUpdate(frame(garbage, other), kp.Public(), "area-x", v); !errors.Is(err, crypt.ErrBadSignature) {
		t.Fatalf("undecodable header under a forged signature: %v, want ErrBadSignature before any decode", err)
	}
	if _, err := ReceiveKeyUpdate(frame(body, other), kp.Public(), "area-x", v); !errors.Is(err, crypt.ErrBadSignature) {
		t.Fatalf("forged signature: %v", err)
	}
	unchanged("a forged update")
	signedGarbage := &Frame{Kind: KindKeyUpdate, From: "ac", Body: garbage, Sig: kp.Sign([]byte{0xff, 0xff, 0xff})}
	if _, err := ReceiveKeyUpdate(signedGarbage, kp.Public(), "area-x", v); !errors.Is(err, ErrBadBody) {
		t.Fatalf("undecodable header: %v, want ErrBadBody", err)
	}
	if _, err := ReceiveKeyUpdate(frame(body, kp), kp.Public(), "area-y", v); !errors.Is(err, ErrWrongArea) {
		t.Fatalf("another area's update: %v, want ErrWrongArea", err)
	}
	unchanged("another area's update")
	// Cut or extended at its end, the entry list no longer hashes to the
	// signed digest: refused before its structure is even looked at.
	for _, bad := range [][]byte{body[:len(body)-1], append(bytes.Clone(body), 0)} {
		if _, err := ReceiveKeyUpdate(frame(bad, kp), kp.Public(), "area-x", v); !errors.Is(err, ErrBadDigest) {
			t.Fatalf("body of %d bytes (whole is %d): %v, want ErrBadDigest", len(bad), len(body), err)
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

// TestReceiveKeyUpdateMisdelivery: everything the one signature covers is
// genuine, yet the frame is not the one cut for this member — a sibling
// subtree's part replayed to it, the root-only part handed to a member
// whose branch has a part of its own, its own part with an entry
// changed, a header listing no scope. Each is dropped under its own
// reason with keys and epoch untouched; the right part then applies.
func TestReceiveKeyUpdateMisdelivery(t *testing.T) {
	kp := keyPair(t)
	suite, _ := crypt.SuiteByID(crypt.SuiteLegacy)
	for _, join := range []bool{false, true} {
		c := rekey(t, suite, "area-x", join)
		root := len(c.scopes) - 1
		if c.mine == root {
			t.Fatalf("join=%v: the resident's branch has no part of its own", join)
		}
		v := keytree.NewMemberView(c.base, c.epoch, keytree.NewSuiteEncryptor(suite))
		sig := kp.Sign(c.cut.Header())
		receive := func(body []byte) error {
			_, err := ReceiveKeyUpdate(&Frame{Kind: KindKeyUpdate, From: "ac", Body: body, Sig: sig}, kp.Public(), "area-x", v)
			return err
		}
		dropped := func(what string, err, want error, reason string) {
			t.Helper()
			if !errors.Is(err, want) || KeyUpdateDropReason(err) != reason {
				t.Fatalf("join=%v: %s: %v (reason %q), want %v (%q)", join, what, err, KeyUpdateDropReason(err), want, reason)
			}
			if v.Epoch() != c.epoch || !reflect.DeepEqual(v.PathKeys(), c.base) {
				t.Fatalf("join=%v: %s moved the view", join, what)
			}
		}

		for i := range c.scopes {
			if i != c.mine {
				dropped(fmt.Sprintf("part %d, cut for another subtree", i), receive(c.body(i)), ErrWrongPart, "wrong_part")
			}
		}
		// The root-only part relabelled as the member's own: the index
		// passes, the digest does not.
		relabelled := appendKeyUpdateFront(nil, c.cut.Header(), c.mine)
		relabelled = append(relabelled, c.cut.list(root)...)
		dropped("the root-only entries under the member's part index", receive(relabelled), ErrBadDigest, "bad_digest")

		tampered := c.body(c.mine)
		tampered[len(tampered)-1] ^= 1
		dropped("a changed entry under the valid header", receive(tampered), ErrBadDigest, "bad_digest")

		// A header with no scope at all, properly signed.
		empty := KeyUpdate{AreaID: "area-x", Epoch: c.epoch + 1}
		emptyBody, _ := PlainBody(empty)
		_, err := ReceiveKeyUpdate(&Frame{Kind: KindKeyUpdate, From: "ac", Body: emptyBody, Sig: kp.Sign(empty.AppendHeader(nil))},
			kp.Public(), "area-x", v)
		dropped("a header listing no scope", err, ErrBadBody, "bad_body")

		if err := receive(c.body(c.mine)); err != nil {
			t.Fatalf("join=%v: the member's own part after the misdeliveries: %v", join, err)
		}
		if v.Epoch() != c.epoch+1 || v.AreaKey() == c.base.Root().Key {
			t.Fatalf("join=%v: own part left the view at epoch %d", join, v.Epoch())
		}
	}
}

// TestReceiveKeyUpdateWholeArea: a scope table of just the root is the
// uncut form — one body, every entry, taken by every member.
func TestReceiveKeyUpdateWholeArea(t *testing.T) {
	kp := keyPair(t)
	suite, _ := crypt.SuiteByID(crypt.SuiteLegacy)
	tr := keytree.New(keytree.Config{Encryptor: keytree.NewSuiteEncryptor(suite)})
	ids := make([]keytree.MemberID, 64)
	for i := range ids {
		ids[i] = keytree.MemberID(fmt.Sprintf("m%02d", i))
	}
	if err := tr.Preload(ids); err != nil {
		t.Fatal(err)
	}
	views := make(map[keytree.MemberID]*keytree.MemberView)
	for _, m := range ids[1:] {
		pk, _ := tr.PathKeys(m)
		views[m] = keytree.NewMemberView(pk, tr.Epoch(), keytree.NewSuiteEncryptor(suite))
	}
	res, err := tr.Leave(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	var cut KeyUpdateCut
	cut.Encode("area-x", res.Update, []keytree.NodeID{res.Update.Root})
	f := &Frame{Kind: KindKeyUpdate, From: "ac", Body: cut.Body(0), Sig: kp.Sign(cut.Header())}
	var u KeyUpdate
	if err := DecodePlain(f.Body, &u); err != nil || len(u.Entries) != len(res.Update.Entries) {
		t.Fatalf("whole-area body decodes to %d of %d entries, err %v", len(u.Entries), len(res.Update.Entries), err)
	}
	for m, v := range views {
		if _, err := ReceiveKeyUpdate(f, kp.Public(), "area-x", v); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if v.AreaKey() != tr.AreaKey() {
			t.Fatalf("%s: area key differs from the tree's after the whole-area update", m)
		}
	}
}

// FuzzReceiveKeyUpdate throws arbitrary bodies, "signed" by a key that
// accepts anything the fuzzer derives a signature for, at a resident's
// view: the receiver never panics, and whenever it reports an error the
// view's keys and epoch are exactly what they were.
func FuzzReceiveKeyUpdate(f *testing.F) {
	kp := keyPair(f)
	suite, _ := crypt.SuiteByID(crypt.SuiteLegacy)
	c := rekey(f, suite, "area-x", false)
	for i := range c.scopes {
		f.Add(c.body(i))
	}
	own := c.body(c.mine)
	f.Add(own[:len(own)/2])
	f.Add(appendKeyUpdateFront(nil, c.cut.Header(), c.mine))
	f.Add(appendKeyUpdateFront(nil, nil, 0))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		v := keytree.NewMemberView(c.base, c.epoch, keytree.NewSuiteEncryptor(suite))
		// Sign whatever header the body frames, so the fuzzer reaches
		// past the signature check.
		r := codec.NewReader(body)
		header := r.BorrowBytes()
		frame := &Frame{Kind: KindKeyUpdate, From: "ac", Body: body, Sig: kp.Sign(header)}
		epoch, err := ReceiveKeyUpdate(frame, kp.Public(), "area-x", v)
		if err != nil {
			if v.Epoch() != c.epoch || !reflect.DeepEqual(v.PathKeys(), c.base) {
				t.Fatalf("error %v, yet the view moved", err)
			}
			return
		}
		if epoch != c.epoch+1 || v.Epoch() != epoch {
			t.Fatalf("accepted update for epoch %d left the view at %d (was %d)", epoch, v.Epoch(), c.epoch)
		}
	})
}
