package area

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"mykil/internal/crypt"
	"mykil/internal/journal"
	"mykil/internal/keytree"
	"mykil/internal/race"
	"mykil/internal/transport"
	"mykil/internal/wire"
)

// keyUpdateTap records every KeyUpdate frame a controller hands to its
// transport, as the *wire.Frame it sent.
type keyUpdateTap struct {
	transport.Transport
	mu     sync.Mutex
	frames []*wire.Frame
}

func (k *keyUpdateTap) Send(to string, f *wire.Frame) error {
	if f.Kind == wire.KindKeyUpdate {
		k.mu.Lock()
		k.frames = append(k.frames, f)
		k.mu.Unlock()
	}
	return k.Transport.Send(to, f)
}

// take waits for n sends and returns them, leaving the tap empty.
func (k *keyUpdateTap) take(t *testing.T, n int) []*wire.Frame {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		k.mu.Lock()
		if len(k.frames) >= n {
			out := k.frames
			k.frames = nil
			k.mu.Unlock()
			return out
		}
		k.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("controller sent fewer than %d KeyUpdate frames", n)
		}
	}
}

// residentViews builds, from the controller's own tree, the view each
// current member holds.
func residentViews(t *testing.T, c *Controller) map[string]*keytree.MemberView {
	t.Helper()
	views := make(map[string]*keytree.MemberView)
	if err := c.call(func() {
		for id := range c.members {
			pk, err := c.tree.PathKeys(keytree.MemberID(id))
			if err != nil {
				t.Errorf("path of %s: %v", id, err)
				continue
			}
			views[id] = keytree.NewMemberView(pk, c.tree.Epoch(), keytree.NewSuiteEncryptor(c.suite))
		}
	}); err != nil {
		t.Fatal(err)
	}
	return views
}

// checkOneFlush holds one flush's KeyUpdate sends to the cut's contract:
// no frame carries a signature, every frame is a distinct body, and
// every resident's view accepts exactly one of them — refusing the rest
// as not tagged for it — and lands on the controller's area key.
func checkOneFlush(t *testing.T, c *Controller, sent []*wire.Frame, views map[string]*keytree.MemberView) {
	t.Helper()
	for i, f := range sent {
		if len(f.Sig) != 0 {
			t.Fatalf("a flush sent a signed KeyUpdate (%d-byte signature)", len(f.Sig))
		}
		for _, g := range sent[:i] {
			if bytes.Equal(f.Body, g.Body) {
				t.Fatal("a flush sent two residents the same body")
			}
		}
	}
	if got := c.Stats().Value(StatRekeyParts); got < int64(len(sent)) {
		t.Errorf("%s = %d after a flush of %d frames", StatRekeyParts, got, len(sent))
	}
	var areaKey [16]byte
	var epoch uint64
	if err := c.call(func() { areaKey, epoch = c.tree.AreaKey(), c.tree.Epoch() }); err != nil {
		t.Fatal(err)
	}
	for id, v := range views {
		var key wire.KeyUpdateKey
		took := 0
		for _, f := range sent {
			_, err := wire.ReceiveKeyUpdate(f, &key, c.cfg.AreaID, v)
			switch {
			case err == nil:
				took++
			case errors.Is(err, wire.ErrBadMAC), errors.Is(err, keytree.ErrStale):
			default:
				t.Fatalf("%s: %v", id, err)
			}
		}
		if took != 1 || v.Epoch() != epoch || v.AreaKey() != areaKey {
			t.Fatalf("%s took %d of %d frames and stands at epoch %d (controller %d), area key match %v",
				id, took, len(sent), v.Epoch(), epoch, v.AreaKey() == areaKey)
		}
	}
}

// refusesRetagged: every frame of a flush, its entries retagged under
// leaf — the key of a member no resident is — is refused by every
// resident as bad_mac and moves no view.
func refusesRetagged(t *testing.T, c *Controller, sent []*wire.Frame, views map[string]*keytree.MemberView, leaf crypt.SymKey, whose string) {
	t.Helper()
	for _, f := range sent {
		body := bytes.Clone(f.Body)
		wire.TagKeyUpdate(body, leaf)
		forged := &wire.Frame{Kind: wire.KindKeyUpdate, From: f.From, Body: body}
		for id, v := range views {
			var key wire.KeyUpdateKey
			epoch, areaKey := v.Epoch(), v.AreaKey()
			if _, err := wire.ReceiveKeyUpdate(forged, &key, c.cfg.AreaID, v); !errors.Is(err, wire.ErrBadMAC) {
				t.Fatalf("%s took a frame tagged under %s's leaf key: %v", id, whose, err)
			}
			if v.Epoch() != epoch || v.AreaKey() != areaKey {
				t.Fatalf("a frame tagged under %s's leaf key moved %s's view", whose, id)
			}
		}
	}
}

// TestZeroSignaturesPerFlush: a leave in a 9-member area sends each of
// the 8 residents its own frame, none signed — no flush calls Sign (the
// allocation pin, TestFlushAllocsPerPart, leaves it no room) — and each
// resident takes exactly its own. A frame tagged under the leaver's leaf
// key after its leave, or under the leaf key of a member of another area,
// changes nothing. The same holds for a controller rebuilt from the
// journal, the state a promoted replica serves from: it holds the leaf
// keys, so every member the dead controller admitted takes the replayed
// controller's next frame.
func TestZeroSignaturesPerFlush(t *testing.T) {
	dir := t.TempDir()
	j, _, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncAlways})
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	var tap *keyUpdateTap
	var cfgCopy Config
	r := newRig(t, func(c *Config) {
		tap = &keyUpdateTap{Transport: c.Transport}
		c.Transport = tap
		c.Journal = j
		c.RekeyInterval = time.Hour // no freshness rekeys between the flushes under test
		cfgCopy = *c
	})
	for i := 0; i < 9; i++ {
		r.join(fmt.Sprintf("c%d", i))
	}
	other := newRig(t, nil)
	other.join("x0")
	foreign := other.leafKey("x0")

	views := residentViews(t, r.ctrl)
	departed := views["c4"].LeafKey()
	delete(views, "c4")
	tap.take(t, 0)
	r.leave(r.cli, "c4")
	sent := tap.take(t, 8)
	refusesRetagged(t, r.ctrl, sent, views, departed, "the departed c4")
	refusesRetagged(t, r.ctrl, sent, views, foreign, "another area's x0")
	checkOneFlush(t, r.ctrl, sent, views)

	// Crash, replay, and let another member leave at the rebuilt
	// controller. The views are the ones the dead controller's members
	// hold.
	leaf7 := views["c7"].LeafKey()
	r.ctrl.Close()
	j.Abandon()
	j2, rec2, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncAlways})
	if err != nil {
		t.Fatalf("reopening journal: %v", err)
	}
	defer func() { _ = j2.Close() }()
	cfg2 := cfgCopy
	cfg2.Journal = j2
	restored, err := NewFromJournal(cfg2, rec2)
	if err != nil {
		t.Fatalf("NewFromJournal: %v", err)
	}
	restored.Start()
	defer restored.Close()
	delete(views, "c7")
	tap.take(t, 0)
	body, _ := wire.PlainBody(wire.NewLeaveNotice("c7", leaf7))
	if err := r.cli.Send("ac-0", &wire.Frame{Kind: wire.KindLeaveNotice, From: "cli", Body: body}); err != nil {
		t.Fatal(err)
	}
	checkOneFlush(t, restored, tap.take(t, 7), views)
}

// TestDisplacedMemberAcceptsNextFlush: c0 joins an empty area and sits at
// its root; c1's join splits that leaf and moves c0, which is sent its
// new path — a new leaf key — by PathUpdate. Rebased on it, c0 takes
// the KeyUpdate of the next join, tagged under the new leaf key, and
// refuses the frames cut for the others.
func TestDisplacedMemberAcceptsNextFlush(t *testing.T) {
	var tap *keyUpdateTap
	r := newRig(t, func(c *Config) {
		tap = &keyUpdateTap{Transport: c.Transport}
		c.Transport = tap
		c.RekeyInterval = time.Hour
	})
	w := r.join("c0")
	v := keytree.NewMemberView(w.Path, w.Epoch, keytree.NewSuiteEncryptor(nil))
	r.join("c1")
	var pu wire.PathUpdate
	if err := wire.OpenBody(r.cliKeys, recvKind(t, r.cli, wire.KindPathUpdate).Body, &pu); err != nil {
		t.Fatal(err)
	}
	if pu.Path[0].Key == v.LeafKey() {
		t.Fatal("the split left c0 its leaf key")
	}
	v.Rebase(pu.Path, pu.Epoch)
	tap.take(t, 0)
	r.join("c2")
	sent := tap.take(t, 2) // c0 and c1; c2 is welcomed with its path
	var key wire.KeyUpdateKey
	took := 0
	for _, f := range sent {
		_, err := wire.ReceiveKeyUpdate(f, &key, "area-0", v)
		switch {
		case err == nil:
			took++
		case !errors.Is(err, wire.ErrBadMAC):
			t.Fatalf("c0: %v", err)
		}
	}
	var areaKey crypt.SymKey
	if err := r.ctrl.call(func() { areaKey = r.ctrl.tree.AreaKey() }); err != nil {
		t.Fatal(err)
	}
	if took != 1 || v.AreaKey() != areaKey {
		t.Fatalf("the displaced c0 took %d of %d frames; area key match %v", took, len(sent), v.AreaKey() == areaKey)
	}
}

// frameTap is a controller transport that delivers nothing and records
// every frame it is handed, in order, into room reserved up front, so it
// allocates nothing while a test measures the controller.
type frameTap struct {
	to     []string
	frames []*wire.Frame
}

func (f *frameTap) Addr() string             { return "ac-0" }
func (f *frameTap) Recv() <-chan *wire.Frame { return nil }
func (f *frameTap) Done() <-chan struct{}    { return nil }
func (f *frameTap) Close() error             { return nil }
func (f *frameTap) Send(to string, fr *wire.Frame) error {
	f.to, f.frames = append(f.to, to), append(f.frames, fr)
	return nil
}

// churnArea is an unstarted controller over tap whose arity-4,
// legacy-suite area holds 1,024 members, with an RSA-1024 key.
func churnArea(t *testing.T, tap *frameTap) *Controller {
	t.Helper()
	keys, err := crypt.GenerateKeyPair(1024)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{ID: "ac-0", AreaID: "area-0", Transport: tap, Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ids := make([]keytree.MemberID, 1024)
	for i := range ids {
		ids[i] = keytree.MemberID(fmt.Sprintf("m%04d", i))
		c.members[string(ids[i])] = &memberEntry{id: string(ids[i]), addr: string(ids[i])}
	}
	if err := c.tree.Preload(ids); err != nil {
		t.Fatal(err)
	}
	return c
}

// churn runs one mobility-shaped batch at c — 16 spread members leave, 16
// new ones join — up to the point where the rekey is to be sent.
func churn(t *testing.T, c *Controller, round int) *keytree.BatchResult {
	t.Helper()
	leaves := c.tree.SpreadMembers(16)
	joins := make([]keytree.MemberID, 16)
	for i := range joins {
		joins[i] = keytree.MemberID(fmt.Sprintf("j%d.%d", round, i))
	}
	res, err := c.tree.Batch(joins, leaves)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range leaves {
		delete(c.members, string(m))
	}
	for _, m := range joins {
		c.members[string(m)] = &memberEntry{id: string(m), addr: string(m)}
	}
	return res
}

// TestKeyUpdateFrameBytesOwnPath: in a 1,024-member area at arity 4, a
// 16-leave + 16-join flush sends every resident its own path under its
// own tag, at most 400 B of body and no signature. Every resident takes
// its frame and lands on the controller's area key.
func TestKeyUpdateFrameBytesOwnPath(t *testing.T) {
	tap := &frameTap{}
	c := churnArea(t, tap)
	views := make(map[string]*keytree.MemberView)
	for id := range c.members {
		pk, err := c.tree.PathKeys(keytree.MemberID(id))
		if err != nil {
			t.Fatal(err)
		}
		views[id] = keytree.NewMemberView(pk, c.tree.Epoch(), keytree.NewSuiteEncryptor(c.suite))
	}
	res := churn(t, c, 0)
	c.multicastKeyUpdate(res)

	var total int
	for i, f := range tap.frames {
		if len(f.Sig) != 0 {
			t.Fatal("a flush sent a signed KeyUpdate")
		}
		total += len(f.Body)
		if len(f.Body) > 400 {
			t.Errorf("%s was sent %d B of body, want at most 400", tap.to[i], len(f.Body))
		}
		v, ok := views[tap.to[i]]
		if !ok {
			t.Fatalf("a KeyUpdate went to %s, who is not a resident", tap.to[i])
		}
		var key wire.KeyUpdateKey
		if _, err := wire.ReceiveKeyUpdate(f, &key, c.cfg.AreaID, v); err != nil {
			t.Fatalf("%s: %v", tap.to[i], err)
		}
		if v.AreaKey() != c.tree.AreaKey() {
			t.Fatalf("%s took its frame but holds another area key", tap.to[i])
		}
	}
	if want := len(c.members) - len(res.Joined) - len(res.Displaced); len(tap.frames) != want {
		t.Fatalf("the flush reached %d members, want the %d residents", len(tap.frames), want)
	}
	t.Logf("%d entries; %.0f B of body per resident", res.Update.NumKeys(), float64(total)/float64(len(tap.frames)))
}

// TestFlushEntriesArePathEntries pins confidentiality across the change
// of authentication: in a seeded 1,024-member churn flush, the entry
// bytes each resident receives are exactly the update's entries whose
// Under lies on its root path, in the update's order, so no resident is
// sent a key it could not already open.
func TestFlushEntriesArePathEntries(t *testing.T) {
	tap := &frameTap{}
	c := churnArea(t, tap)
	for round := 0; round < 2; round++ {
		res := churn(t, c, round)
		tap.to, tap.frames = tap.to[:0], tap.frames[:0]
		c.multicastKeyUpdate(res)
		for i, f := range tap.frames {
			path, err := c.tree.PathNodeIDs(keytree.MemberID(tap.to[i]))
			if err != nil {
				t.Fatal(err)
			}
			var own []keytree.Entry
			for _, e := range res.Update.Entries {
				if slices.Contains(path, e.Under) {
					own = append(own, e)
				}
			}
			var ku wire.KeyUpdate
			if err := wire.DecodePlain(f.Body, &ku); err != nil {
				t.Fatal(err)
			}
			if got, want := keytree.AppendEntries(nil, ku.Entries), keytree.AppendEntries(nil, own); !bytes.Equal(got, want) {
				t.Fatalf("round %d: %s was sent %d entries (%d B), its path holds %d (%d B)",
					round, tap.to[i], len(ku.Entries), len(got), len(own), len(want))
			}
		}
	}
}

// TestFlushAllocsPerPart: once its scratch has grown, a flush allocates a
// constant number of times however many residents it serves — one
// buffer holding every resident's frame encoding, which the frames share
// as their cached encoding (each frame's Body a window onto it), the
// frames as one array, and that encoding's header — and nothing for a
// signature, which would cost at least one allocation more. Its bytes
// are those frames' encodings and their wire.Frame values, within 5%.
func TestFlushAllocsPerPart(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own; the exact-alloc pin runs in the non-race CI step")
	}
	tap := &frameTap{to: make([]string, 0, 1024), frames: make([]*wire.Frame, 0, 1024)}
	c := churnArea(t, tap)
	header := make([]byte, 64)
	if signAllocs := testing.AllocsPerRun(5, func() { c.cfg.Keys.Sign(header) }); signAllocs < 1 {
		t.Fatalf("an RSA signature allocates %.0f times; the pin below could not see one", signAllocs)
	}
	// The flush's hashing draws scratch from sync.Pools, which the
	// runtime empties now and then (a collection; an object left in
	// another P's private slot), and refilling one is an allocation that
	// is not the flush's own. So each flush after the scratch has grown
	// is measured, and the fewest allocations seen must meet the pin: an
	// allocation the flush makes itself shows in every round.
	allocs, bytes, frames, reached := uint64(math.MaxUint64), uint64(0), 0, 0
	for round := 0; round < 8; round++ {
		res := churn(t, c, round)
		tap.to, tap.frames = tap.to[:0], tap.frames[:0]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.multicastKeyUpdate(res)
		runtime.ReadMemStats(&after)
		if round < 4 {
			continue // scratch grows to the area's size
		}
		if n := after.Mallocs - before.Mallocs; n < allocs {
			allocs, bytes = n, after.TotalAlloc-before.TotalAlloc
			frames, reached = len(tap.frames)*int(unsafe.Sizeof(wire.Frame{})), len(tap.frames)
			for _, f := range tap.frames {
				enc, _ := f.Encode()
				frames += len(enc)
			}
		}
	}
	t.Logf("%d frames, %d B with their wire.Frame values: %d allocations, %d B (%.3f×)",
		reached, frames, allocs, bytes, float64(bytes)/float64(frames))
	if reached < 900 {
		t.Fatalf("the flush reached %d residents", reached)
	}
	if allocs > 3 {
		t.Errorf("a flush to %d residents allocated %d times, want at most 3", reached, allocs)
	}
	if limit := frames * 21 / 20; bytes > uint64(limit) {
		t.Errorf("a flush of %d B of frames allocated %d B, want at most %d", frames, bytes, limit)
	}
}
