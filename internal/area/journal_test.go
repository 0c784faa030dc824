package area

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mykil/internal/journal"
)

// TestJournalReplayDeterministic is the byte-level replay check: a
// controller journaling under FsyncPolicy=always admits members, sheds
// one, and crashes without a clean shutdown. Rebuilding from the journal
// must reproduce the exact replicated state — keytree node keys
// included, because each rekey's random seed is journaled and the tree
// re-derives keys in a pinned order. Epoch equality alone would not
// prove members can still decrypt; byte equality of the canonical state
// encoding does.
func TestJournalReplayDeterministic(t *testing.T) {
	dir := t.TempDir()
	j, rec, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncAlways})
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	if !rec.Empty() {
		t.Fatalf("fresh journal not empty: %+v", rec)
	}
	var cfgCopy Config
	r := newRig(t, func(c *Config) {
		c.Journal = j
		cfgCopy = *c
	})

	for _, id := range []string{"c1", "c2", "c3"} {
		r.join(id)
	}
	r.leave(r.cli, "c2")
	deadline := time.Now().Add(5 * time.Second)
	for r.ctrl.HasMember("c2") {
		if time.Now().After(deadline) {
			t.Fatal("member not removed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	var pre *State
	if err := r.ctrl.call(func() { pre = r.ctrl.exportState() }); err != nil {
		t.Fatalf("exportState: %v", err)
	}

	// Crash: stop the loop, abandon the journal descriptors un-synced.
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
	defer restored.Close()
	post := restored.exportState()

	preBytes, err := EncodeState(pre)
	if err != nil {
		t.Fatalf("encoding pre-crash state: %v", err)
	}
	postBytes, err := EncodeState(post)
	if err != nil {
		t.Fatalf("encoding recovered state: %v", err)
	}
	if !bytes.Equal(preBytes, postBytes) {
		t.Fatalf("recovered state differs from pre-crash state:\npre:  %x\npost: %x", preBytes, postBytes)
	}
	if pre.Tree.Epoch != post.Tree.Epoch {
		t.Fatalf("epoch: pre %d, post %d", pre.Tree.Epoch, post.Tree.Epoch)
	}
}

// TestCrashDuringSplitReplay kills the old controller at every possible
// byte of a torn journal tail while a split migration is in flight: six
// members join, the upper half is reassigned away, and the segment is
// then cut at EVERY offset. Recovery must never fail, must always yield
// a state replayed from a valid record prefix, and must be
// deterministic — two cuts recovering the same prefix produce
// byte-identical states, and the full-length cut converges on the exact
// pre-crash state, migration applied.
func TestCrashDuringSplitReplay(t *testing.T) {
	dir := t.TempDir()
	j, rec, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncAlways})
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	if !rec.Empty() {
		t.Fatalf("fresh journal not empty: %+v", rec)
	}
	var cfgCopy Config
	r := newRig(t, func(c *Config) {
		c.Journal = j
		cfgCopy = *c
	})

	ids := []string{"c1", "c2", "c3", "c4", "c5", "c6"}
	for _, id := range ids {
		r.join(id)
	}
	// Mid-split crash point: the reassignment batch (the journaled
	// removal of the migrating upper half) is the last thing written.
	target := PeerInfo{ID: "ac-peer", Addr: "ac-peer", Pub: r.peerKeys.Public()}
	moved, err := r.ctrl.Reassign([]string{"c4", "c5", "c6"}, target, "split")
	if err != nil {
		t.Fatalf("Reassign: %v", err)
	}
	if moved != 3 {
		t.Fatalf("reassigned %d members, want 3", moved)
	}

	var pre *State
	if err := r.ctrl.call(func() { pre = r.ctrl.exportState() }); err != nil {
		t.Fatalf("exportState: %v", err)
	}
	preBytes, err := EncodeState(pre)
	if err != nil {
		t.Fatalf("encoding pre-crash state: %v", err)
	}

	// Crash without a clean shutdown.
	r.ctrl.Close()
	j.Abandon()

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v (%v)", segs, err)
	}
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	segBase := filepath.Base(segs[0])

	// stateByPrefix pins determinism across the sweep: every cut that
	// recovers the same record prefix must replay to the same bytes. The
	// zero-record prefix is exempt — with nothing journaled, recovery is
	// a fresh boot whose initial key material is random, and no member
	// holds keys that replay would need to reproduce.
	stateByPrefix := map[int][]byte{}
	maxPrefix := -1
	for cut := 0; cut <= len(full); cut++ {
		cutDir := filepath.Join(t.TempDir(), fmt.Sprintf("cut-%d", cut))
		if err := os.MkdirAll(cutDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cutDir, segBase), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, rec2, err := journal.Open(journal.Options{Dir: cutDir, Fsync: journal.FsyncAlways, Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		cfg2 := cfgCopy
		cfg2.Journal = j2
		restored, err := NewFromJournal(cfg2, rec2)
		if err != nil {
			t.Fatalf("cut=%d: NewFromJournal after %d records: %v", cut, len(rec2.Records), err)
		}
		st := restored.exportState()
		stBytes, err := EncodeState(st)
		if err != nil {
			t.Fatalf("cut=%d: encoding recovered state: %v", cut, err)
		}
		if n := len(rec2.Records); n > 0 {
			if prev, ok := stateByPrefix[n]; ok {
				if !bytes.Equal(prev, stBytes) {
					t.Fatalf("cut=%d: replay of a %d-record prefix diverged from an earlier replay of the same prefix", cut, n)
				}
			} else {
				stateByPrefix[n] = stBytes
			}
			if n > maxPrefix {
				maxPrefix = n
			}
		}
		restored.Close()
		_ = j2.Close()
	}

	// The untorn journal must converge on the pre-crash state: the three
	// migrants gone, the three stayers keyed exactly as before the kill.
	if maxPrefix < 1 {
		t.Fatal("cut sweep never recovered a non-empty prefix")
	}
	if !bytes.Equal(stateByPrefix[maxPrefix], preBytes) {
		t.Fatalf("full-journal replay does not match the pre-crash state")
	}
}
