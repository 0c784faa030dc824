package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// openT opens a journal in dir, failing the test on error.
func openT(t *testing.T, opts Options) (*Journal, *Recovery) {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	j, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", opts.Dir, err)
	}
	return j, rec
}

func payloadN(i int) []byte { return []byte(fmt.Sprintf("record-%04d", i)) }

func TestAppendAndRecover(t *testing.T) {
	dir := t.TempDir()
	j, rec := openT(t, Options{Dir: dir})
	if !rec.Empty() {
		t.Fatalf("fresh journal reported recovery state: %+v", rec)
	}
	const n = 25
	for i := 0; i < n; i++ {
		lsn, err := j.Append(payloadN(i))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("append %d got LSN %d", i, lsn)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec2 := openT(t, Options{Dir: dir})
	defer j2.Close()
	if rec2.Snapshot != nil {
		t.Fatal("unexpected snapshot")
	}
	if len(rec2.Records) != n {
		t.Fatalf("recovered %d records, want %d", len(rec2.Records), n)
	}
	for i, p := range rec2.Records {
		if !bytes.Equal(p, payloadN(i)) {
			t.Fatalf("record %d = %q, want %q", i, p, payloadN(i))
		}
	}
	if got := j2.NextLSN(); got != n+1 {
		t.Fatalf("NextLSN = %d, want %d", got, n+1)
	}
}

func TestSnapshotAndCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation so compaction has something to delete.
	j, _ := openT(t, Options{Dir: dir, SegmentBytes: 64, KeepSnapshots: 1})
	for i := 0; i < 10; i++ {
		if _, err := j.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Snapshot([]byte("state@10")); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 14; i++ {
		if _, err := j.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Compaction must have removed segments fully covered by the snapshot.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) >= 10 {
		t.Fatalf("compaction left %d segments", len(segs))
	}

	j2, rec := openT(t, Options{Dir: dir})
	defer j2.Close()
	if string(rec.Snapshot) != "state@10" {
		t.Fatalf("snapshot = %q", rec.Snapshot)
	}
	if rec.SnapshotLSN != 10 {
		t.Fatalf("SnapshotLSN = %d", rec.SnapshotLSN)
	}
	if len(rec.Records) != 4 {
		t.Fatalf("replay tail has %d records, want 4", len(rec.Records))
	}
	for i, p := range rec.Records {
		if !bytes.Equal(p, payloadN(10+i)) {
			t.Fatalf("tail record %d = %q", i, p)
		}
	}
}

func TestNewerSnapshotWins(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir})
	for i := 0; i < 3; i++ {
		if _, err := j.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Snapshot([]byte("old")); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(payloadN(3)); err != nil {
		t.Fatal(err)
	}
	if err := j.Snapshot([]byte("new")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, rec := openT(t, Options{Dir: dir})
	defer j2.Close()
	if string(rec.Snapshot) != "new" || rec.SnapshotLSN != 4 || len(rec.Records) != 0 {
		t.Fatalf("recovery = snap %q @%d + %d records", rec.Snapshot, rec.SnapshotLSN, len(rec.Records))
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir})
	for i := 0; i < 3; i++ {
		if _, err := j.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Snapshot([]byte("good")); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(payloadN(3)); err != nil {
		t.Fatal(err)
	}
	if err := j.Snapshot([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Flip a payload byte in the newest snapshot; recovery must fall back
	// to the older one and replay the records past it.
	name := filepath.Join(dir, "snap-0000000000000004.snap")
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-5] ^= 0xFF
	if err := os.WriteFile(name, b, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rec := openT(t, Options{Dir: dir})
	defer j2.Close()
	if string(rec.Snapshot) != "good" || rec.SnapshotLSN != 3 {
		t.Fatalf("fell back to snap %q @%d", rec.Snapshot, rec.SnapshotLSN)
	}
	if len(rec.Records) != 1 || !bytes.Equal(rec.Records[0], payloadN(3)) {
		t.Fatalf("replay tail = %q", rec.Records)
	}
}

func TestAbandonLosesNothingWithFsyncAlways(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir, Fsync: FsyncAlways})
	for i := 0; i < 5; i++ {
		if _, err := j.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Abandon() // crash: close fds without the Close-path sync

	j2, rec := openT(t, Options{Dir: dir})
	defer j2.Close()
	if len(rec.Records) != 5 {
		t.Fatalf("recovered %d records after crash, want 5", len(rec.Records))
	}
}

func TestClosedJournalErrors(t *testing.T) {
	j, _ := openT(t, Options{Dir: t.TempDir()})
	j.Close()
	if _, err := j.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: %v", err)
	}
	if err := j.Snapshot([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Snapshot after Close: %v", err)
	}
	if err := j.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after Close: %v", err)
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
		ok   bool
	}{
		{"always", FsyncAlways, true},
		{"", FsyncAlways, true},
		{"interval", FsyncInterval, true},
		{"never", FsyncNever, true},
		{"group", FsyncAlways, true}, // retired spelling, see ParseFsyncPolicy
		{"sometimes", 0, false},
	} {
		got, err := ParseFsyncPolicy(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		back, err := ParseFsyncPolicy(p.String())
		if err != nil || back != p {
			t.Errorf("round trip %v: %v, %v", p, back, err)
		}
	}
}

// TestGroupPolicyParses pins that the retired "group" spelling is read
// only: it parses to FsyncAlways, which prints as "always".
func TestGroupPolicyParses(t *testing.T) {
	p, err := ParseFsyncPolicy("group")
	if err != nil || p != FsyncAlways {
		t.Fatalf("ParseFsyncPolicy(group) = %v, %v", p, err)
	}
	if got := p.String(); got != "always" {
		t.Fatalf("String() = %q", got)
	}
}

// TestFailedAppendPoisonsHandle forces one segment I/O failure by
// swapping the segment handle, then restores the good handle: the journal
// must stay failed anyway. A short write (ENOSPC) leaves a torn frame that
// a later append would land behind at the same LSN, and an fsync retried
// after a failure can report success for pages the kernel dropped. Reopen
// must recover exactly the acknowledged prefix.
func TestFailedAppendPoisonsHandle(t *testing.T) {
	const acked = 3
	for _, tc := range []struct {
		name string
		// broken returns the handle to fail on, given the good one.
		broken func(t *testing.T, good *os.File) *os.File
	}{
		{"write", func(t *testing.T, good *os.File) *os.File {
			// The part of the frame a short write got out before failing.
			if _, err := good.Write(AppendRecord(nil, payloadN(acked))[:5]); err != nil {
				t.Fatal(err)
			}
			ro, err := os.Open(good.Name()) // read-only: Write fails
			if err != nil {
				t.Fatal(err)
			}
			return ro
		}},
		{"fsync", func(t *testing.T, _ *os.File) *os.File {
			r, w, err := os.Pipe() // Write succeeds, Sync fails
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			return w
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j, _ := openT(t, Options{Dir: dir, Fsync: FsyncAlways})
			for i := 0; i < acked; i++ {
				if _, err := j.Append(payloadN(i)); err != nil {
					t.Fatal(err)
				}
			}
			good := j.seg
			broken := tc.broken(t, good)
			j.seg = broken
			_, failure := j.Append(payloadN(acked))
			if failure == nil {
				t.Fatal("append through the broken handle succeeded")
			}
			broken.Close()
			j.seg = good

			if _, err := j.Append(payloadN(acked)); !errors.Is(err, failure) {
				t.Fatalf("Append after the failure: %v, want %v", err, failure)
			}
			if err := j.Sync(); !errors.Is(err, failure) {
				t.Fatalf("Sync after the failure: %v", err)
			}
			if err := j.Snapshot([]byte("state")); !errors.Is(err, failure) {
				t.Fatalf("Snapshot after the failure: %v", err)
			}
			if _, err := j.ExportFrom(1); !errors.Is(err, failure) {
				t.Fatalf("ExportFrom after the failure: %v", err)
			}
			if got := j.NextLSN(); got != acked+1 {
				t.Fatalf("NextLSN = %d after a failed append, want %d", got, acked+1)
			}
			if err := j.Close(); !errors.Is(err, failure) {
				t.Fatalf("Close of a failed handle: %v", err)
			}

			j2, rec := openT(t, Options{Dir: dir})
			defer j2.Close()
			if len(rec.Records) != acked {
				t.Fatalf("recovered %d records, want the %d acknowledged", len(rec.Records), acked)
			}
			for i, p := range rec.Records {
				if !bytes.Equal(p, payloadN(i)) {
					t.Fatalf("record %d = %q", i, p)
				}
			}
		})
	}
}

// TestConcurrentAppendAcrossRotation crosses segment boundaries while
// several appenders race (the controller loop is the only appender in a
// deployment, but NextLSN and ExportFrom are called off it and the handle
// is documented safe for concurrent use): every record must get its own
// LSN, exports taken meanwhile must be contiguous, and nothing is lost.
func TestConcurrentAppendAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir, Fsync: FsyncAlways, SegmentBytes: 512})

	const (
		writers = 6
		each    = 30
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := j.Append([]byte(fmt.Sprintf("w%d-%d-padding-to-force-rotation", w, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	// An off-loop reader, as a replica pull is: exports until the
	// appenders are done.
	stop, exported := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exported)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := j.ExportFrom(1); err != nil {
				t.Errorf("export during appends: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-exported
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec := openT(t, Options{Dir: dir})
	defer j2.Close()
	if got, want := len(rec.Records), writers*each; got != want {
		t.Fatalf("recovered %d records across rotations, want %d", got, want)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) < 2 {
		t.Fatalf("test never rotated (segments: %v); shrink SegmentBytes", segs)
	}
}

// TestCrashConsistency is the satellite crash suite: build a small log,
// then truncate the (single) segment at EVERY byte offset and require
// recovery to yield a valid prefix of the original records — never an
// error, never a mangled or reordered record, and appends must work
// afterwards. This simulates a kill at each possible point of a torn
// final write.
func TestCrashConsistency(t *testing.T) {
	master := t.TempDir()
	j, _ := openT(t, Options{Dir: master})
	const n = 8
	for i := 0; i < n; i++ {
		if _, err := j.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	segs, err := filepath.Glob(filepath.Join(master, "seg-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v (%v)", segs, err)
	}
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	segBase := filepath.Base(segs[0])

	for cut := 0; cut <= len(full); cut++ {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("cut-%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segBase), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, rec, err := Open(Options{Dir: dir, Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		// Every recovered record must be an exact prefix of the originals.
		if len(rec.Records) > n {
			t.Fatalf("cut=%d: recovered %d records from a %d-record log", cut, len(rec.Records), n)
		}
		for i, p := range rec.Records {
			if !bytes.Equal(p, payloadN(i)) {
				t.Fatalf("cut=%d: record %d = %q, want %q", cut, i, p, payloadN(i))
			}
		}
		// The journal must accept new appends at the right LSN and
		// recover them on a further reopen (no second-crash amnesia).
		lsn, err := j2.Append([]byte("post-crash"))
		if err != nil {
			t.Fatalf("cut=%d: post-crash append: %v", cut, err)
		}
		if want := uint64(len(rec.Records)) + 1; lsn != want {
			t.Fatalf("cut=%d: post-crash LSN %d, want %d", cut, lsn, want)
		}
		if err := j2.Close(); err != nil {
			t.Fatalf("cut=%d: Close: %v", cut, err)
		}
		j3, rec3, err := Open(Options{Dir: dir, Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if want := len(rec.Records) + 1; len(rec3.Records) != want {
			t.Fatalf("cut=%d: reopen recovered %d records, want %d", cut, len(rec3.Records), want)
		}
		j3.Close()
	}
}

// TestCrashConsistencyWithSnapshot repeats the cut sweep with a snapshot
// in place: however the tail is torn, the snapshot plus a record prefix
// must survive.
func TestCrashConsistencyWithSnapshot(t *testing.T) {
	master := t.TempDir()
	j, _ := openT(t, Options{Dir: master})
	for i := 0; i < 4; i++ {
		if _, err := j.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Snapshot([]byte("snap@4")); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 8; i++ {
		if _, err := j.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	// Records 5..8 live in the post-snapshot portion of the segment; cut
	// the segment at every offset and require snapshot + prefix.
	segs, err := filepath.Glob(filepath.Join(master, "seg-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v (%v)", segs, err)
	}
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	snapB, err := os.ReadFile(filepath.Join(master, "snap-0000000000000004.snap"))
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(full); cut++ {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("cut-%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[0])), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000004.snap"), snapB, 0o644); err != nil {
			t.Fatal(err)
		}
		j2, rec, err := Open(Options{Dir: dir, Logf: func(string, ...any) {}})
		if err != nil {
			// A cut below the snapshot's covered LSN loses records the
			// snapshot claims — recovery must refuse loudly, not
			// fabricate state. (Impossible under the fsync invariant:
			// Snapshot syncs the log first.)
			continue
		}
		if string(rec.Snapshot) != "snap@4" || rec.SnapshotLSN != 4 {
			t.Fatalf("cut=%d: snapshot %q @%d", cut, rec.Snapshot, rec.SnapshotLSN)
		}
		if len(rec.Records) > 4 {
			t.Fatalf("cut=%d: %d tail records", cut, len(rec.Records))
		}
		for i, p := range rec.Records {
			if !bytes.Equal(p, payloadN(4+i)) {
				t.Fatalf("cut=%d: tail record %d = %q", cut, i, p)
			}
		}
		j2.Close()
	}
}

// TestSegmentRotationChain verifies multi-segment recovery ordering and
// that a gap in the chain is a hard error rather than silent data loss.
func TestSegmentRotationChain(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir, SegmentBytes: 48})
	const n = 12
	for i := 0; i < n; i++ {
		if _, err := j.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) < 3 {
		t.Fatalf("rotation produced only %d segments", len(segs))
	}

	j2, rec := openT(t, Options{Dir: dir})
	if len(rec.Records) != n {
		t.Fatalf("recovered %d records across segments, want %d", len(rec.Records), n)
	}
	j2.Close()

	// Remove a middle segment: the chain has a hole, recovery must fail.
	sortedSegs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err := os.Remove(sortedSegs[1]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir, Logf: func(string, ...any) {}}); err == nil {
		t.Fatal("recovery with a missing middle segment did not fail")
	}
}

// TestCorruptMiddleSegmentFails: corruption anywhere but the final
// segment means acknowledged records are unrecoverable — a hard error.
func TestCorruptMiddleSegmentFails(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir, SegmentBytes: 48})
	for i := 0; i < 12; i++ {
		if _, err := j.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(segs))
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir, Logf: func(string, ...any) {}}); err == nil {
		t.Fatal("recovery with a corrupt non-final segment did not fail")
	}
}
