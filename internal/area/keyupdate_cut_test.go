package area

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

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
// the parts are distinct bodies under one signature made once (every
// frame carries the same slice, not an equal one), and every resident's
// view accepts exactly one of them — refusing the rest as not cut for it
// — and lands on the controller's area key.
func checkOneFlush(t *testing.T, c *Controller, sent []*wire.Frame, views map[string]*keytree.MemberView, minParts int) {
	t.Helper()
	var parts []*wire.Frame
	for _, f := range sent {
		if &f.Sig[0] != &sent[0].Sig[0] {
			t.Fatal("one flush signed more than once: its KeyUpdate frames carry different signature slices")
		}
		known := false
		for _, p := range parts {
			known = known || p == f
		}
		if !known {
			parts = append(parts, f)
		}
	}
	if len(parts) < minParts {
		t.Fatalf("flush sent %d distinct parts to %d members, want at least %d", len(parts), len(sent), minParts)
	}
	if got := c.Stats().Value(StatRekeyParts); got < int64(len(parts)) {
		t.Errorf("%s = %d after a flush of %d parts", StatRekeyParts, got, len(parts))
	}
	var areaKey [16]byte
	var epoch uint64
	if err := c.call(func() { areaKey, epoch = c.tree.AreaKey(), c.tree.Epoch() }); err != nil {
		t.Fatal(err)
	}
	for id, v := range views {
		took := 0
		for _, f := range parts {
			_, err := wire.ReceiveKeyUpdate(f, c.cfg.Keys.Public(), c.cfg.AreaID, v)
			switch {
			case err == nil:
				took++
			case errors.Is(err, wire.ErrWrongPart), errors.Is(err, keytree.ErrStale):
			default:
				t.Fatalf("%s: %v", id, err)
			}
		}
		if took != 1 || v.Epoch() != epoch || v.AreaKey() != areaKey {
			t.Fatalf("%s took %d of %d parts and stands at epoch %d (controller %d), area key match %v",
				id, took, len(parts), v.Epoch(), epoch, v.AreaKey() == areaKey)
		}
	}
}

// TestOneSignaturePerFlush: a leave in a 9-member area rekeys every root
// subtree, so the flush sends several parts — under exactly one
// signature, each resident served by exactly one part. The same holds for
// a controller rebuilt from the journal, the state a promoted replica
// serves from: the replayed tree cuts the next rekey so that every
// member the dead controller admitted still finds its part.
func TestOneSignaturePerFlush(t *testing.T) {
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
	leave := func(id string) {
		t.Helper()
		body, err := wire.PlainBody(wire.LeaveNotice{MemberID: id})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.cli.Send("ac-0", &wire.Frame{Kind: wire.KindLeaveNotice, From: "cli", Body: body}); err != nil {
			t.Fatal(err)
		}
	}

	views := residentViews(t, r.ctrl)
	delete(views, "c4")
	tap.take(t, 0)
	leave("c4")
	checkOneFlush(t, r.ctrl, tap.take(t, 8), views, keytree.DefaultArity)

	// Crash, replay, and let another member leave at the rebuilt
	// controller. The views are the ones the dead controller's members
	// hold.
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
	leave("c7")
	checkOneFlush(t, restored, tap.take(t, 7), views, 2)
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
// legacy-suite area holds 1,024 members, signing with an RSA-1024 key.
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
// 16-leave + 16-join flush sends every resident its own path and a proof,
// at most 900 B of body and RSA-1024 signature, where the per-root-child
// cut sent ~3 kB. The flush signs once (every frame carries the one
// signature slice), and every resident takes its frame and lands on the
// controller's area key.
func TestKeyUpdateFrameBytesOwnPath(t *testing.T) {
	if race.Enabled {
		t.Skip("a thousand RSA verifies under the race detector; the byte pin runs in the non-race CI step")
	}
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

	parts := map[*wire.Frame]bool{}
	var total int
	for i, f := range tap.frames {
		if &f.Sig[0] != &tap.frames[0].Sig[0] {
			t.Fatal("one flush signed more than once: its frames carry different signature slices")
		}
		parts[f] = true
		size := len(f.Body) + len(f.Sig)
		total += size
		if size > 900 {
			t.Errorf("%s was sent %d B of body and signature, want at most 900", tap.to[i], size)
		}
		v, ok := views[tap.to[i]]
		if !ok {
			t.Fatalf("a KeyUpdate went to %s, who is not a resident", tap.to[i])
		}
		if _, err := wire.ReceiveKeyUpdate(f, c.cfg.Keys.Public(), c.cfg.AreaID, v); err != nil {
			t.Fatalf("%s: %v", tap.to[i], err)
		}
		if v.AreaKey() != c.tree.AreaKey() {
			t.Fatalf("%s took its frame but holds another area key", tap.to[i])
		}
	}
	if want := len(c.members) - len(res.Joined) - len(res.Displaced); len(tap.frames) != want {
		t.Fatalf("the flush reached %d members, want the %d residents", len(tap.frames), want)
	}
	t.Logf("%d entries cut into %d parts; %.0f B of body and signature per resident",
		res.Update.NumKeys(), len(parts), float64(total)/float64(len(tap.frames)))
}

// TestFlushAllocsPerPart: once its scratch has grown, a flush allocates
// a constant number of times however many parts it cuts — one buffer
// holding every part's frame encoding, which the frames share as their
// cached encoding (each frame's Body a window onto it), the frames as one
// array, and what the one signature costs — and its bytes stay within
// 1.25× the part frames it sends.
func TestFlushAllocsPerPart(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own; the exact-alloc pin runs in the non-race CI step")
	}
	tap := &frameTap{to: make([]string, 0, 1024), frames: make([]*wire.Frame, 0, 1024)}
	c := churnArea(t, tap)
	header := make([]byte, 64)
	sign := func() { c.cfg.Keys.Sign(header) }
	sign()
	signAllocs := testing.AllocsPerRun(20, sign)
	for round := 0; round < 4; round++ {
		res := churn(t, c, round)
		tap.to, tap.frames = tap.to[:0], tap.frames[:0]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.multicastKeyUpdate(res)
		runtime.ReadMemStats(&after)
		if round < 3 {
			continue // scratch grows to the area's size
		}
		parts := map[*wire.Frame]bool{}
		var frames int
		for _, f := range tap.frames {
			if !parts[f] {
				parts[f] = true
				enc, _ := f.Encode()
				frames += len(enc)
			}
		}
		allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		t.Logf("%d parts, %d B of frames: %d allocations (signing %.0f), %d B (%.2f×)",
			len(parts), frames, allocs, signAllocs, bytes, float64(bytes)/float64(frames))
		if len(parts) < 64 {
			t.Fatalf("the flush was cut into %d parts", len(parts))
		}
		if limit := uint64(signAllocs) + 3; allocs > limit {
			t.Errorf("a flush of %d parts allocated %d times, want at most %d", len(parts), allocs, limit)
		}
		if limit := frames * 5 / 4; bytes > uint64(limit) {
			t.Errorf("a flush of %d B of part frames allocated %d B, want at most %d", frames, bytes, limit)
		}
	}
}
