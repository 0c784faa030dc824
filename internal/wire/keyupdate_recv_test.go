package wire

import (
	"bytes"
	"crypto/sha256"
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
// send it, cut for every member that applies it, seen from a resident
// that stays: the resident's keys and epoch before it, the cut, and which
// part is the resident's.
type cutRekey struct {
	base    keytree.PathKeys
	epoch   uint64
	cut     KeyUpdateCut
	parts   int
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
		// Empty a leaf beside the resident, so the joiner lands there and
		// every key above the resident changes.
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
	receivers := []keytree.MemberID{resident}
	for _, m := range tr.Members() {
		_, joined := res.Joined[m]
		_, moved := res.Displaced[m]
		if m != resident && !joined && !moved {
			receivers = append(receivers, m)
		}
	}
	var kc keytree.Cut
	tr.Cut(res.Update, receivers, &kc)
	c.cut.Encode(areaID, res.Update.Epoch, &kc)
	c.parts, c.mine = kc.Parts(), kc.Part(0)
	return c
}

// TestKeyUpdateReceiveZeroAlloc pins the receive path after the signature
// check — framing, header, the audit path folded to the signed root,
// scope set, structural pass, applying pass, key unwraps — at zero
// allocations for a resident taking its part of a leave-sized rekey,
// under every suite: no copied hash, no []Entry, no per-key cipher or MAC
// state, no plaintext buffer.
func TestKeyUpdateReceiveZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector; the exact-alloc pin runs in the non-race CI step")
	}
	for _, s := range crypt.Suites() {
		c := rekey(t, s, "area-x", false)
		if c.entries < 100 || c.parts < 64 {
			t.Fatalf("%s: workload built %d entries in %d parts, want a leave-sized rekey cut along the frontier",
				s.Name(), c.entries, c.parts)
		}
		body := c.body(c.mine)
		v := keytree.NewMemberView(c.base, c.epoch, keytree.NewSuiteEncryptor(s))
		changed := 0
		receive := func() {
			v.Rebase(c.base, c.epoch)
			p, err := splitKeyUpdate(body)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := applyKeyUpdate(&p, "area-x", v); err != nil {
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
// decoded, then header and area, then the proof, then the entry list's
// structure, then the epoch — and only then keys.
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
	garbage := append(codec.AppendBytes(nil, []byte{0xff, 0xff, 0xff}), 0, 0)
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
	// Cut or extended at its end, the leaf no longer hashes into the
	// signed root: refused before its structure is even looked at.
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

// decodeKU decodes a KeyUpdate body the test then tampers with.
func decodeKU(t *testing.T, body []byte) KeyUpdate {
	t.Helper()
	var ku KeyUpdate
	if err := DecodePlain(body, &ku); err != nil {
		t.Fatal(err)
	}
	return ku
}

// onePart makes ku a whole one-part rekey of its own leaf, proof-valid by
// construction: the root is the leaf's hash and the audit path empty.
func onePart(ku KeyUpdate) KeyUpdate {
	ku.Parts, ku.Index, ku.Proof = 1, 0, nil
	ku.Root = hashLeaf(keytree.AppendLeaf(nil, ku.Scopes, ku.Entries))
	return ku
}

// TestReceiveKeyUpdateMisdelivery: everything the one signature covers is
// genuine, yet the frame is not the one cut for this member, or its proof
// does not hold — a sibling's genuine part, another part's leaf under the
// member's index and path, a flipped proof byte, a wrong index, a short or
// long audit path, a header whose count does not match, a scope set off
// the member's path, a malformed entry list under a valid proof. Each is
// dropped under its reason with keys and epoch untouched — never as an
// epoch gap, which would send a PathRequest; the right part then applies.
func TestReceiveKeyUpdateMisdelivery(t *testing.T) {
	kp := keyPair(t)
	suite, _ := crypt.SuiteByID(crypt.SuiteLegacy)
	for _, join := range []bool{false, true} {
		c := rekey(t, suite, "area-x", join)
		if c.parts < 4 {
			t.Fatalf("join=%v: the rekey was cut into %d parts", join, c.parts)
		}
		v := keytree.NewMemberView(c.base, c.epoch, keytree.NewSuiteEncryptor(suite))
		sig := kp.Sign(c.cut.Header())
		receive := func(body, sig []byte) error {
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

		for i := 0; i < c.parts; i++ {
			if i != c.mine {
				dropped(fmt.Sprintf("part %d, cut for other members", i), receive(c.body(i), sig), ErrWrongPart, "wrong_part")
			}
		}
		other := (c.mine + 1) % c.parts
		mine, sibling := decodeKU(t, c.body(c.mine)), decodeKU(t, c.body(other))
		resend := func(ku KeyUpdate) error {
			body, _ := PlainBody(ku)
			return receive(body, kp.Sign(ku.AppendHeader(nil)))
		}
		tamper := []struct {
			what   string
			change func(*KeyUpdate)
			want   error
			reason string
		}{
			{"another part's leaf under the member's index and path", func(ku *KeyUpdate) {
				ku.Scopes, ku.Entries = sibling.Scopes, sibling.Entries
			}, ErrBadDigest, "bad_digest"},
			{"a flipped proof byte", func(ku *KeyUpdate) { ku.Proof[0][7] ^= 1 }, ErrBadDigest, "bad_digest"},
			{"another leaf's index", func(ku *KeyUpdate) { ku.Index = other }, ErrBadDigest, "bad_digest"},
			{"an index past the count", func(ku *KeyUpdate) { ku.Index = ku.Parts }, ErrBadDigest, "bad_digest"},
			{"a short audit path", func(ku *KeyUpdate) { ku.Proof = ku.Proof[:len(ku.Proof)-1] }, ErrBadDigest, "bad_digest"},
			{"a long audit path", func(ku *KeyUpdate) { ku.Proof = append(ku.Proof, ku.Proof[0]) }, ErrBadDigest, "bad_digest"},
			{"a re-signed header whose count does not fit the audit path", func(ku *KeyUpdate) {
				for proofLen(uint64(ku.Index), uint64(ku.Parts)) == len(ku.Proof) {
					ku.Parts++
				}
			}, ErrBadDigest, "bad_digest"},
			{"a re-signed header with no parts", func(ku *KeyUpdate) { ku.Parts = 0 }, ErrBadDigest, "bad_digest"},
			{"the member's entries under another part's scopes, proof-valid", func(ku *KeyUpdate) {
				ku.Scopes = sibling.Scopes
				*ku = onePart(*ku)
			}, ErrWrongPart, "wrong_part"},
		}
		for _, tc := range tamper {
			ku := mine
			ku.Proof = append([][sha256.Size]byte(nil), mine.Proof...)
			tc.change(&ku)
			dropped(tc.what, resend(ku), tc.want, tc.reason)
		}
		// An entry list claiming one entry more than it holds, behind a
		// valid proof and the member's own scopes.
		leaf := keytree.AppendLeaf(nil, mine.Scopes, mine.Entries)
		leaf[len(keytree.AppendLeaf(nil, mine.Scopes, nil))-1]++
		h := KeyUpdate{AreaID: "area-x", Epoch: c.epoch + 1, Parts: 1, Root: hashLeaf(leaf)}.AppendHeader(nil)
		malformed := append(codec.AppendBytes(nil, h), 0, 0)
		dropped("a malformed entry list, proof-valid", receive(append(malformed, leaf...), kp.Sign(h)), ErrBadBody, "bad_body")

		if err := receive(c.body(c.mine), sig); err != nil {
			t.Fatalf("join=%v: the member's own part after the misdeliveries: %v", join, err)
		}
		if v.Epoch() != c.epoch+1 || v.AreaKey() == c.base.Root().Key {
			t.Fatalf("join=%v: own part left the view at epoch %d", join, v.Epoch())
		}
	}
}

// TestReceiveKeyUpdateWholeArea: a freshness rekey — one entry, the new
// area key under the old — is one part with an empty audit path, and
// that one body is taken by every member: the whole-area form is what
// the cut yields when nothing below the root changed.
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
	for _, m := range ids {
		pk, _ := tr.PathKeys(m)
		views[m] = keytree.NewMemberView(pk, tr.Epoch(), keytree.NewSuiteEncryptor(suite))
	}
	res := tr.RefreshAreaKey()
	var kc keytree.Cut
	tr.Cut(res.Update, ids, &kc)
	var cut KeyUpdateCut
	cut.Encode("area-x", res.Epoch, &kc)
	if kc.Parts() != 1 {
		t.Fatalf("a freshness rekey was cut into %d parts", kc.Parts())
	}
	f := &Frame{Kind: KindKeyUpdate, From: "ac", Body: cut.Body(0), Sig: kp.Sign(cut.Header())}
	u := decodeKU(t, f.Body)
	if len(u.Proof) != 0 || len(u.Entries) != 1 || len(u.Scopes) != 1 {
		t.Fatalf("whole-area body: %d proof hashes, %d entries, scopes %v", len(u.Proof), len(u.Entries), u.Scopes)
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

// readHeader decodes a KeyUpdate header.
func readHeader(t testing.TB, header []byte) KeyUpdate {
	r := codec.NewReader(header)
	ku := KeyUpdate{AreaID: r.String(), Epoch: r.Uvarint(), Parts: int(r.Uvarint())}
	copy(ku.Root[:], r.BorrowRaw(sha256.Size))
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	return ku
}

// proofHolds is the receiver's proof check: leaf is leaf index of count
// under root.
func proofHolds(root, proof, leaf []byte, index, count uint64) bool {
	h, ok := foldProof(proof, leaf, index, count)
	return ok && bytes.Equal(h[:], root)
}

// rawLeaves is a cut whose leaves are arbitrary bytes.
type rawLeaves [][]byte

func (l rawLeaves) Parts() int                        { return len(l) }
func (l rawLeaves) AppendLeaf(b []byte, i int) []byte { return append(b, l[i]...) }

// rfcTreeHash and rfcPath are RFC 6962 §2.1's MTH and PATH, written out
// recursively as the RFC states them.
func rfcTreeHash(d [][]byte) digest {
	switch n := len(d); n {
	case 0:
		return sha256.Sum256(nil)
	case 1:
		return sha256.Sum256(append([]byte{0x00}, d[0]...))
	default:
		k := largestPow2Below(n)
		l, r := rfcTreeHash(d[:k]), rfcTreeHash(d[k:])
		return sha256.Sum256(append(append([]byte{0x01}, l[:]...), r[:]...))
	}
}

func rfcPath(m int, d [][]byte) []digest {
	n := len(d)
	if n == 1 {
		return nil
	}
	k := largestPow2Below(n)
	if m < k {
		return append(rfcPath(m, d[:k]), rfcTreeHash(d[k:]))
	}
	return append(rfcPath(m-k, d[k:]), rfcTreeHash(d[:k]))
}

func largestPow2Below(n int) int {
	k := 1
	for k*2 < n {
		k *= 2
	}
	return k
}

// TestMerkleMatchesRFC6962: for every tree of up to 70 leaves, the root a
// KeyUpdateCut signs is RFC 6962's tree hash, every part's audit path is
// the RFC's PATH, the receiver's fold accepts it, and it refuses the leaf
// under another index, under a count the path's length does not fit, and
// with any one hash of the path changed.
func TestMerkleMatchesRFC6962(t *testing.T) {
	var cut KeyUpdateCut
	for n := 0; n <= 70; n++ {
		leaves := make(rawLeaves, n)
		for i := range leaves {
			leaves[i] = []byte(fmt.Sprintf("leaf %d of %d", i, n))
		}
		cut.Encode("a", 1, leaves)
		ku := readHeader(t, cut.Header())
		if want := rfcTreeHash(leaves); ku.Root != want || ku.Parts != n {
			t.Fatalf("n=%d: header carries root %x over %d parts, RFC 6962 gives %x", n, ku.Root[:4], ku.Parts, want[:4])
		}
		for i := 0; i < n; i++ {
			p, err := splitKeyUpdate(cut.Body(i))
			if err != nil {
				t.Fatal(err)
			}
			var want []byte
			for _, h := range rfcPath(i, leaves) {
				want = append(want, h[:]...)
			}
			if !bytes.Equal(p.proof, want) || !bytes.Equal(p.leaf, leaves[i]) || p.index != uint64(i) {
				t.Fatalf("n=%d i=%d: audit path of %d bytes, RFC 6962 gives %d", n, i, len(p.proof), len(want))
			}
			if !proofHolds(ku.Root[:], p.proof, p.leaf, p.index, uint64(n)) {
				t.Fatalf("n=%d i=%d: the audit path does not fold to the root", n, i)
			}
			// Another index, or a count the path's length does not fit. (A
			// count whose tree has the same shape above leaf i folds to the
			// same root; the signed header fixes the count.)
			for _, wrong := range []struct{ index, count uint64 }{{uint64(i) ^ 1, uint64(n)}, {uint64(n), uint64(n)}, {uint64(i), uint64(2 * n)}} {
				if wrong.index == uint64(i) && proofLen(wrong.index, wrong.count) == len(p.proof)/sha256.Size {
					continue
				}
				if proofHolds(ku.Root[:], p.proof, p.leaf, wrong.index, wrong.count) {
					t.Fatalf("n=%d i=%d: the path also holds as leaf %d of %d", n, i, wrong.index, wrong.count)
				}
			}
			for b := 0; b < len(p.proof); b += sha256.Size {
				bad := bytes.Clone(p.proof)
				bad[b] ^= 0x80
				if proofHolds(ku.Root[:], bad, p.leaf, p.index, uint64(n)) {
					t.Fatalf("n=%d i=%d: a path with hash %d changed still holds", n, i, b/sha256.Size)
				}
			}
		}
	}
}

// TestKeyUpdateFramesPreEncoded: each frame Frames builds carries Body(i)
// and the shared signature, and Encode answers, without allocating, with
// the frame's window of the one shared buffer — the bytes a fresh
// encoding of the same fields would give. Assigning a frame another Body
// afterwards — a copy, another part's, a window onto the buffer that is
// no part's — gives the encoding of the new fields, as for any frame.
func TestKeyUpdateFramesPreEncoded(t *testing.T) {
	var cut KeyUpdateCut
	cut.Encode("area-x", 9, rawLeaves{[]byte("a"), []byte("bb"), []byte("ccc")})
	sig := []byte("one signature")
	frames := cut.Frames("ac-0", sig)
	for i := range frames {
		f := &frames[i]
		if !bytes.Equal(f.Body, cut.Body(i)) || &f.Sig[0] != &sig[0] || f.Kind != KindKeyUpdate || f.From != "ac-0" {
			t.Fatalf("frame %d does not carry part %d under the shared signature", i, i)
		}
		enc, _ := f.Encode()
		want, _ := (&Frame{Kind: f.Kind, From: f.From, Body: bytes.Clone(f.Body), Sig: sig}).Encode()
		if !bytes.Equal(enc, want) || cap(enc) != len(enc) {
			t.Fatalf("frame %d: cached encoding differs from a fresh one, or is not exactly sized", i)
		}
		if &f.Body[0] != &enc[len(enc)-len(sig)-len(f.Body)-1] {
			t.Fatalf("frame %d: Body is not a window onto its encoding", i)
		}
		if again, _ := f.Encode(); &again[0] != &enc[0] {
			t.Fatalf("frame %d: Encode built a second encoding", i)
		}
		if !race.Enabled {
			if allocs := testing.AllocsPerRun(10, func() { _, _ = f.Encode() }); allocs != 0 {
				t.Fatalf("frame %d: Encode allocates %.0f times", i, allocs)
			}
		}
	}
	for _, body := range [][]byte{bytes.Clone(frames[0].Body), frames[2].Body, frames[1].Body[1:], frames[1].Body[:1]} {
		frames[0].Body = body
		enc, _ := frames[0].Encode()
		want, _ := (&Frame{Kind: KindKeyUpdate, From: "ac-0", Body: bytes.Clone(body), Sig: sig}).Encode()
		if !bytes.Equal(enc, want) {
			t.Fatalf("after Body was reassigned, Encode gave %x, want %x", enc, want)
		}
	}
}

// FuzzReceiveKeyUpdate throws arbitrary bodies, "signed" by a key that
// accepts anything the fuzzer derives a signature for, at a resident's
// view: the receiver never panics, and whenever it reports an error the
// view's keys and epoch are exactly what they were. With reseal set, the
// header's root is first replaced by the one the body's own leaf and
// audit path fold to, so the fuzzer also reaches, behind a valid proof,
// the scope set and the entry list.
func FuzzReceiveKeyUpdate(f *testing.F) {
	kp := keyPair(f)
	suite, _ := crypt.SuiteByID(crypt.SuiteLegacy)
	c := rekey(f, suite, "area-x", false)
	own := c.body(c.mine)
	for _, i := range []int{c.mine, (c.mine + 1) % c.parts, 0, c.parts - 1} {
		f.Add(c.body(i), false)
	}
	f.Add(own[:len(own)/2], false)
	f.Add(codec.AppendBytes(nil, c.cut.Header()), false)
	f.Add(append(codec.AppendBytes(nil, nil), 0, 0), false)
	f.Add([]byte{}, false)
	f.Add(own, true)
	f.Add(own[:len(own)-3], true)
	f.Fuzz(func(t *testing.T, body []byte, reseal bool) {
		v := keytree.NewMemberView(c.base, c.epoch, keytree.NewSuiteEncryptor(suite))
		if reseal {
			body = resealKeyUpdate(body)
		}
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

// resealKeyUpdate rewrites body's header root to the one its leaf and
// audit path fold to, when the body frames and its header decodes; any
// other body is returned as it is.
func resealKeyUpdate(body []byte) []byte {
	p, err := splitKeyUpdate(body)
	if err != nil {
		return body
	}
	hr := codec.NewReader(p.header)
	h := KeyUpdate{AreaID: hr.String(), Epoch: hr.Uvarint()}
	parts := hr.Uvarint()
	hr.BorrowRaw(sha256.Size)
	if hr.Finish() != nil || parts > 1<<20 {
		return body
	}
	root, ok := foldProof(p.proof, p.leaf, p.index, parts)
	if !ok {
		return body
	}
	h.Parts, h.Root = int(parts), root
	out := codec.AppendBytes(nil, h.AppendHeader(nil))
	out = codec.AppendUvarint(out, p.index)
	out = codec.AppendUvarint(out, uint64(len(p.proof)/sha256.Size))
	return append(append(out, p.proof...), p.leaf...)
}
