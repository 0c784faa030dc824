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

// cutRekey is one rekey of a 2,048-member area as its controller sends
// it, one frame per member that applies it, seen from a resident that
// stays (receiver 0): the resident's keys and epoch before it, the
// frames, and the leaf key of a member that left in it.
type cutRekey struct {
	base     keytree.PathKeys
	epoch    uint64
	frames   []Frame
	entries  int // in the whole update
	departed crypt.SymKey
}

// body returns the frame body cut for receiver i (the resident is 0).
func (c *cutRekey) body(i int) []byte { return c.frames[i].Body }

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
	gone, err := tr.PathKeys(leavers[0])
	if err != nil {
		t.Fatal(err)
	}
	c.departed = gone[0].Key
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
	c.frames = KeyUpdateFrames("ac", areaID, res.Update.Epoch, &kc)
	return c
}

// tagged returns ku's body tagged for the member whose leaf key is leaf.
func tagged(ku KeyUpdate, leaf crypt.SymKey) []byte {
	body, _ := PlainBody(ku)
	TagKeyUpdate(body, leaf)
	return body
}

// TestKeyUpdateReceiveZeroAlloc pins the whole receive path — the tag
// check under the cached key, area and epoch, structural pass, applying
// pass, key unwraps — at zero allocations for a resident taking its part
// of a leave-sized rekey, under every suite: no MAC state, no []Entry, no
// per-key cipher state, no plaintext buffer.
func TestKeyUpdateReceiveZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector; the exact-alloc pin runs in the non-race CI step")
	}
	for _, s := range crypt.Suites() {
		c := rekey(t, s, "area-x", false)
		if c.entries < 100 {
			t.Fatalf("%s: workload built %d entries, want a leave-sized rekey", s.Name(), c.entries)
		}
		f := &c.frames[0]
		var key KeyUpdateKey
		v := keytree.NewMemberView(c.base, c.epoch, keytree.NewSuiteEncryptor(s))
		changed := 0
		receive := func() {
			v.Rebase(c.base, c.epoch)
			if _, err := ReceiveKeyUpdate(f, &key, "area-x", v); err != nil {
				t.Fatal(err)
			}
			if v.AreaKey() != c.base.Root().Key {
				changed++
			}
		}
		receive() // warm the MAC key, key schedules and pools
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
// checks run: the tag, before any of the body is decoded, then area and
// epoch, then the entry list's structure, then the epoch's sequence —
// and only then keys.
func TestReceiveKeyUpdate(t *testing.T) {
	suite, _ := crypt.SuiteByID(crypt.SuiteLegacy)
	c := rekey(t, suite, "area-x", false)
	base, epoch, body := c.base, c.epoch, c.body(0)
	leaf := base[0].Key
	var key KeyUpdateKey
	v := keytree.NewMemberView(base, epoch, keytree.NewSuiteEncryptor(suite))
	receive := func(body []byte) (uint64, error) {
		return ReceiveKeyUpdate(&Frame{Kind: KindKeyUpdate, From: "ac", Body: body}, &key, "area-x", v)
	}
	dropped := func(what string, err, want error, reason string) {
		t.Helper()
		if !errors.Is(err, want) || KeyUpdateDropReason(err) != reason {
			t.Fatalf("%s: %v (reason %q), want %v (%q)", what, err, KeyUpdateDropReason(err), want, reason)
		}
		if v.Epoch() != epoch || v.AreaKey() != base.Root().Key {
			t.Fatalf("%s moved the view", what)
		}
	}

	_, err := receive(body[:crypt.MACTagLen-1])
	dropped("a body shorter than a tag", err, ErrBadBody, "bad_body")
	// Bytes that decode as nothing, under a tag that is not the
	// receiver's: the tag is checked first.
	_, err = receive(bytes.Repeat([]byte{0xff}, 40))
	dropped("an undecodable body under a foreign tag", err, ErrBadMAC, "bad_mac")
	undecodable := bytes.Repeat([]byte{0xff}, 40)
	TagKeyUpdate(undecodable, leaf)
	_, err = receive(undecodable)
	dropped("an undecodable body under the receiver's tag", err, ErrBadBody, "bad_body")
	_, err = receive(tagged(KeyUpdate{AreaID: "area-y", Epoch: epoch + 1}, leaf))
	dropped("another area's update under the receiver's tag", err, ErrWrongArea, "wrong_area")
	// An entry list claiming one entry more than it holds.
	u := decodeKU(t, body)
	claim := append(codec.AppendUvarint(codec.AppendString(nil, "area-x"), epoch+1), byte(len(u.Entries)+1))
	malformed := append(append(claim, keytree.AppendEntries(nil, u.Entries)[1:]...), make([]byte, crypt.MACTagLen)...)
	TagKeyUpdate(malformed, leaf)
	_, err = receive(malformed)
	dropped("a malformed entry list under the receiver's tag", err, ErrBadBody, "bad_body")

	orig := bytes.Clone(body)
	got, err := receive(body)
	if err != nil || got != epoch+1 || v.Epoch() != epoch+1 || v.AreaKey() == base.Root().Key {
		t.Fatalf("genuine update: epoch %d, err %v, view at %d", got, err, v.Epoch())
	}
	if !bytes.Equal(body, orig) {
		t.Fatal("receiving wrote into the frame body")
	}
	areaKey := v.AreaKey()
	if got, err := receive(body); !errors.Is(err, keytree.ErrStale) || got != epoch+1 || KeyUpdateDropReason(err) != "" {
		t.Fatalf("re-delivery: epoch %d, %v, want ErrStale, not a drop", got, err)
	}
	v.Rebase(base, epoch-1)
	if _, err := receive(body); !errors.Is(err, keytree.ErrEpochGap) || KeyUpdateDropReason(err) != "" {
		t.Fatalf("update after a missed one: %v, want ErrEpochGap, not a drop", err)
	}
	if v.Epoch() != epoch-1 || v.AreaKey() == areaKey {
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

// flip returns body with the byte at i (from the end when negative)
// flipped.
func flip(body []byte, i int) []byte {
	out := bytes.Clone(body)
	if i < 0 {
		i += len(out)
	}
	out[i] ^= 0x40
	return out
}

// TestReceiveKeyUpdateMisdelivery: a frame that is not the one the controller
// cut and tagged for this receiver — another resident's genuine frame, a
// flipped byte anywhere in the area, epoch, entries or tag, a frame
// tagged under the key of a member that left in this very rekey or of a
// member of another area, a hand-built body with its zero tag — changes
// nothing and is dropped as bad_mac, never taken for an epoch gap, which
// would send a PathRequest. An older epoch, genuinely tagged, is stale.
// The receiver's own frame then applies.
func TestReceiveKeyUpdateMisdelivery(t *testing.T) {
	suite, _ := crypt.SuiteByID(crypt.SuiteLegacy)
	other := keytree.New(keytree.Config{})
	if err := other.Preload([]keytree.MemberID{"y0", "y1", "y2"}); err != nil {
		t.Fatal(err)
	}
	otherPath, err := other.PathKeys("y1")
	if err != nil {
		t.Fatal(err)
	}
	for _, join := range []bool{false, true} {
		c := rekey(t, suite, "area-x", join)
		if len(c.frames) < 4 {
			t.Fatalf("join=%v: the rekey reached %d receivers", join, len(c.frames))
		}
		var key KeyUpdateKey
		v := keytree.NewMemberView(c.base, c.epoch, keytree.NewSuiteEncryptor(suite))
		receive := func(body []byte) error {
			_, err := ReceiveKeyUpdate(&Frame{Kind: KindKeyUpdate, From: "ac", Body: body}, &key, "area-x", v)
			return err
		}
		own := c.body(0)
		u := decodeKU(t, own)
		entriesAt := len(codec.AppendUvarint(codec.AppendString(nil, u.AreaID), u.Epoch))
		tamper := []struct {
			what string
			body []byte
		}{
			{"another resident's frame", c.body(1)},
			{"the last receiver's frame", c.body(len(c.frames) - 1)},
			{"a flipped area byte", flip(own, 1)},
			{"a flipped epoch byte", flip(own, entriesAt-1)},
			{"a flipped entry count", flip(own, entriesAt)},
			{"a flipped ciphertext byte", flip(own, -crypt.MACTagLen-1)},
			{"a flipped tag byte", flip(own, -1)},
			{"the own frame cut one byte short", own[:len(own)-1]},
			{"the own frame with a byte appended", append(bytes.Clone(own), 0)},
			{"the own entries tagged under a departed member's leaf key", tagged(u, c.departed)},
			{"the own entries tagged under a member of another area", tagged(u, otherPath[0].Key)},
			{"the own entries hand-built with a zero tag", func() []byte {
				b, _ := PlainBody(KeyUpdate{AreaID: u.AreaID, Epoch: u.Epoch, Entries: u.Entries})
				return b
			}()},
		}
		for _, tc := range tamper {
			err := receive(tc.body)
			if !errors.Is(err, ErrBadMAC) || KeyUpdateDropReason(err) != "bad_mac" {
				t.Fatalf("join=%v: %s: %v (reason %q), want bad_mac", join, tc.what, err, KeyUpdateDropReason(err))
			}
			if v.Epoch() != c.epoch || !reflect.DeepEqual(v.PathKeys(), c.base) {
				t.Fatalf("join=%v: %s moved the view", join, tc.what)
			}
		}
		old := u
		old.Epoch = c.epoch
		if err := receive(tagged(old, c.base[0].Key)); !errors.Is(err, keytree.ErrStale) {
			t.Fatalf("join=%v: an older epoch under the receiver's tag: %v, want ErrStale", join, err)
		}

		if err := receive(own); err != nil {
			t.Fatalf("join=%v: the member's own frame after the tampered ones: %v", join, err)
		}
		if v.Epoch() != c.epoch+1 || v.AreaKey() == c.base.Root().Key {
			t.Fatalf("join=%v: own frame left the view at epoch %d", join, v.Epoch())
		}
	}
}

// staticCut is a cut whose receivers hold the given leaf keys and are
// each sent the given entry lists.
type staticCut struct {
	leaves []crypt.SymKey
	lists  [][]keytree.Entry
}

func (s staticCut) Len() int                             { return len(s.leaves) }
func (s staticCut) Leaf(i int) (crypt.SymKey, bool)      { return s.leaves[i], s.lists[i] != nil }
func (s staticCut) AppendEntries(b []byte, i int) []byte { return keytree.AppendEntries(b, s.lists[i]) }
func (s staticCut) EntriesLen(i int) int                 { return len(s.AppendEntries(nil, i)) }

// TestKeyUpdateFramesPreEncoded: each frame Frames builds is receiver
// i's — its entries under its own tag, no signature — and Encode
// answers, without allocating, with the frame's window of the one shared
// buffer: the bytes a fresh encoding of the same fields would give. A
// receiver the cut refuses gets no frame. Assigning a frame another Body
// afterwards — a copy, another receiver's, a window onto the buffer that
// is no frame's — gives the encoding of the new fields, as for any frame.
func TestKeyUpdateFramesPreEncoded(t *testing.T) {
	e := func(n keytree.NodeID) keytree.Entry {
		return keytree.Entry{Node: n, Under: n, Ciphertext: []byte{byte(n)}}
	}
	cut := staticCut{
		leaves: []crypt.SymKey{{1}, {2}, {3}, {4}},
		lists:  [][]keytree.Entry{{e(1)}, {e(2), e(1)}, nil, {e(3), e(2), e(1)}},
	}
	frames := KeyUpdateFrames("ac-0", "area-x", 9, cut)
	if len(frames) != 4 || frames[2].Kind != 0 || frames[2].Body != nil {
		t.Fatalf("%d frames; the refused receiver's has kind %v and a %d-byte body", len(frames), frames[2].Kind, len(frames[2].Body))
	}
	for _, i := range []int{0, 1, 3} {
		f := &frames[i]
		want := KeyUpdate{AreaID: "area-x", Epoch: 9, Entries: cut.lists[i]}
		if !bytes.Equal(f.Body, tagged(want, cut.leaves[i])) || f.Sig != nil || f.Kind != KindKeyUpdate || f.From != "ac-0" {
			t.Fatalf("frame %d does not carry receiver %d's entries under its own tag, unsigned", i, i)
		}
		enc, _ := f.Encode()
		fresh, _ := (&Frame{Kind: f.Kind, From: f.From, Body: bytes.Clone(f.Body)}).Encode()
		if !bytes.Equal(enc, fresh) || cap(enc) != len(enc) {
			t.Fatalf("frame %d: cached encoding differs from a fresh one, or is not exactly sized", i)
		}
		if &f.Body[0] != &enc[len(enc)-len(f.Body)-1] {
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
	for _, body := range [][]byte{bytes.Clone(frames[0].Body), frames[3].Body, frames[1].Body[1:], frames[1].Body[:1]} {
		frames[0].Body = body
		enc, _ := frames[0].Encode()
		want, _ := (&Frame{Kind: KindKeyUpdate, From: "ac-0", Body: bytes.Clone(body)}).Encode()
		if !bytes.Equal(enc, want) {
			t.Fatalf("after Body was reassigned, Encode gave %x, want %x", enc, want)
		}
	}
}

// TestReceiveKeyUpdateWholeArea: a freshness rekey — one entry, the new
// area key under the old — sends every member that one entry, each
// under its own tag, and every member takes its frame.
func TestReceiveKeyUpdateWholeArea(t *testing.T) {
	suite, _ := crypt.SuiteByID(crypt.SuiteLegacy)
	tr := keytree.New(keytree.Config{Encryptor: keytree.NewSuiteEncryptor(suite)})
	ids := make([]keytree.MemberID, 64)
	for i := range ids {
		ids[i] = keytree.MemberID(fmt.Sprintf("m%02d", i))
	}
	if err := tr.Preload(ids); err != nil {
		t.Fatal(err)
	}
	views := make([]*keytree.MemberView, len(ids))
	for i, m := range ids {
		pk, _ := tr.PathKeys(m)
		views[i] = keytree.NewMemberView(pk, tr.Epoch(), keytree.NewSuiteEncryptor(suite))
	}
	res := tr.RefreshAreaKey()
	var kc keytree.Cut
	tr.Cut(res.Update, ids, &kc)
	frames := KeyUpdateFrames("ac", "area-x", res.Epoch, &kc)
	for i, v := range views {
		if u := decodeKU(t, frames[i].Body); len(u.Entries) != 1 {
			t.Fatalf("%s was sent %d entries of a freshness rekey", ids[i], len(u.Entries))
		}
		var key KeyUpdateKey
		if _, err := ReceiveKeyUpdate(&frames[i], &key, "area-x", v); err != nil {
			t.Fatalf("%s: %v", ids[i], err)
		}
		if v.AreaKey() != tr.AreaKey() {
			t.Fatalf("%s: area key differs from the tree's after the whole-area update", ids[i])
		}
	}
}

// FuzzReceiveKeyUpdate throws arbitrary bodies at a resident's view: the
// receiver never panics, and whenever it reports an error the view's
// keys and epoch are exactly what they were. With retag set, the body is
// first tagged under the receiver's key, so the fuzzer also reaches,
// behind a valid tag, the area, the epoch and the entry list.
func FuzzReceiveKeyUpdate(f *testing.F) {
	suite, _ := crypt.SuiteByID(crypt.SuiteLegacy)
	c := rekey(f, suite, "area-x", false)
	own := c.body(0)
	for _, i := range []int{0, 1, len(c.frames) - 1} {
		f.Add(c.body(i), false)
	}
	f.Add(own[:len(own)/2], false)
	f.Add(flip(own, -1), false)
	f.Add([]byte{}, false)
	f.Add(own, true)
	f.Add(flip(own, 0), true)
	f.Add(own[:len(own)-3], true)
	f.Add(append(codec.AppendString(nil, "area-x"), make([]byte, 20)...), true)
	f.Fuzz(func(t *testing.T, body []byte, retag bool) {
		v := keytree.NewMemberView(c.base, c.epoch, keytree.NewSuiteEncryptor(suite))
		if retag && len(body) >= crypt.MACTagLen {
			body = bytes.Clone(body)
			TagKeyUpdate(body, c.base[0].Key)
		}
		var key KeyUpdateKey
		epoch, err := ReceiveKeyUpdate(&Frame{Kind: KindKeyUpdate, From: "ac", Body: body}, &key, "area-x", v)
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
