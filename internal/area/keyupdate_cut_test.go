package area

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mykil/internal/journal"
	"mykil/internal/keytree"
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
