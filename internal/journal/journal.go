// Package journal is Mykil's durability layer: a segmented, CRC32C-framed,
// append-only write-ahead log plus point-in-time snapshots, stored in one
// directory per node. An area controller (or the registration server)
// appends one record per state mutation and periodically writes a full
// state snapshot; after a crash, Open finds the newest valid snapshot,
// replays the record tail behind it, and truncates any torn final record
// instead of failing. Restart thereby becomes a local replay rather than a
// network-wide rejoin storm (the §IV failure model's worst case at scale).
//
// The journal stores opaque byte payloads; callers define record and
// snapshot encodings (internal/wire/codec in this repo). Layout:
//
//	seg-<firstLSN>.wal    record frames, rotated at SegmentBytes
//	snap-<throughLSN>.snap one snapshot frame covering records ≤ throughLSN
//
// Records are numbered by LSN starting at 1. Each frame is a uvarint
// payload length, the payload, and a CRC32C of the payload, so a torn
// write is detectable at any byte offset. Fsync policy is configurable:
// FsyncAlways survives power loss per record, FsyncInterval bounds loss to
// a time window, FsyncNever leaves flushing to the OS.
//
// A failed segment write or fsync is sticky: the handle refuses all
// further work with that error. A short write leaves a torn frame that a
// later append must not land behind, and an fsync retried after a failure
// can report success for pages the kernel already dropped; the caller
// reopens the directory, and recovery keeps exactly the acknowledged
// prefix.
package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mykil/internal/clock"
)

// FsyncPolicy selects when appended records are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append: no acknowledged record is
	// ever lost, at the cost of one fsync per mutation.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs when FsyncEvery has elapsed since the last
	// sync, bounding loss to one interval of records.
	FsyncInterval
	// FsyncNever leaves flushing to the operating system. Process
	// crashes lose nothing (the OS holds the pages); power loss may.
	FsyncNever
)

// String returns the policy's config-file spelling.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy parses "always", "interval" or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	// "group" named a group-commit policy with FsyncAlways's durability
	// promise; it is gone, and the spelling stays only because benchmark/
	// still passes it. String never prints it.
	case "always", "", "group":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("journal: unknown fsync policy %q (want always|interval|never)", s)
}

// Defaults for zero-valued Options fields.
const (
	DefaultSegmentBytes = 4 << 20
	DefaultFsyncEvery   = 100 * time.Millisecond
	DefaultKeepSnaps    = 2
)

// Options parameterizes Open.
type Options struct {
	// Dir is the journal directory, created if absent. Required.
	Dir string
	// Fsync selects the sync policy; the zero value is FsyncAlways.
	Fsync FsyncPolicy
	// FsyncEvery spaces syncs under FsyncInterval; 0 means 100ms.
	FsyncEvery time.Duration
	// SegmentBytes rotates the active segment once it reaches this size;
	// 0 means 4 MiB.
	SegmentBytes int64
	// KeepSnapshots retains this many snapshots after compaction (older
	// segments are deleted once covered by the oldest kept snapshot);
	// 0 means 2, so one corrupt snapshot never strands recovery.
	KeepSnapshots int
	// Logf, if set, receives recovery and compaction notes.
	Logf func(format string, args ...any)
	// Clock drives the FsyncInterval policy; nil means the wall clock.
	// Tests inject a fake clock so interval-sync behavior replays
	// deterministically.
	Clock clock.Clock
}

func (o *Options) fillDefaults() error {
	if o.Dir == "" {
		return errors.New("journal: Dir is required")
	}
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = DefaultFsyncEvery
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.KeepSnapshots <= 0 {
		o.KeepSnapshots = DefaultKeepSnaps
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.Clock == nil {
		o.Clock = clock.Real{}
	}
	return nil
}

// Recovery reports what Open found on disk: the newest valid snapshot (if
// any) and the record tail to replay on top of it.
type Recovery struct {
	// Snapshot is the newest valid snapshot payload, nil when none exists.
	Snapshot []byte
	// SnapshotLSN is the LSN the snapshot covers through (0 with no
	// snapshot). Records carries every record with a higher LSN.
	SnapshotLSN uint64
	// Records is the replay tail, in LSN order starting at SnapshotLSN+1.
	Records [][]byte
	// TruncatedBytes counts torn final-record bytes discarded from the
	// last segment during recovery.
	TruncatedBytes int64
}

// Empty reports whether the journal held no usable state at all.
func (r *Recovery) Empty() bool {
	return r == nil || (r.Snapshot == nil && len(r.Records) == 0)
}

// Journal is an open write-ahead log. Safe for concurrent appenders;
// methods lock internally.
type Journal struct {
	opts Options

	mu       sync.Mutex
	seg      *os.File // active segment
	segStart uint64   // first LSN of the active segment
	segSize  int64
	nextLSN  uint64
	lastSync time.Time
	snaps    []uint64 // through-LSNs of on-disk snapshots, ascending
	segStats []uint64 // first LSNs of on-disk segments, ascending (incl. active)
	closed   bool
	failed   error // first segment write or fsync error; sticky

	appends   int64
	syncs     int64
	snapshots int64

	scratch []byte
}

// Open creates or recovers the journal in opts.Dir. The returned Recovery
// describes on-disk state for the caller to rebuild from; appending
// continues at the next LSN in a fresh segment (a previously torn tail is
// physically truncated first, so segments never interleave live and dead
// bytes).
func Open(opts Options) (*Journal, *Recovery, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: creating dir: %w", err)
	}
	j := &Journal{opts: opts, nextLSN: 1}
	rec, err := j.recover()
	if err != nil {
		return nil, nil, err
	}
	if err := j.openSegment(); err != nil {
		return nil, nil, err
	}
	return j, rec, nil
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.opts.Dir }

// NextLSN returns the LSN the next Append will receive.
func (j *Journal) NextLSN() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextLSN
}

// Appends reports how many records were appended through this handle.
func (j *Journal) Appends() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends
}

// Syncs reports how many fsyncs this handle performed.
func (j *Journal) Syncs() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncs
}

// ErrClosed reports use of a closed journal.
var ErrClosed = errors.New("journal: closed")

// usableLocked reports why the handle takes no more work: it is closed,
// or an earlier write or fsync failed.
func (j *Journal) usableLocked() error {
	if j.closed {
		return ErrClosed
	}
	return j.failed
}

// Append writes one record and applies the fsync policy. It returns the
// record's LSN. Any error fails the handle for good (see the package
// comment) and leaves the LSN where it was.
func (j *Journal) Append(payload []byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.usableLocked(); err != nil {
		return 0, err
	}
	if err := j.appendLocked(payload); err != nil {
		j.failed = err
		return 0, err
	}
	lsn := j.nextLSN
	j.nextLSN++
	j.appends++
	return lsn, nil
}

// appendLocked is Append's I/O: rotate if due, encode, write, then sync
// as the policy says.
func (j *Journal) appendLocked(payload []byte) error {
	if j.segSize >= j.opts.SegmentBytes {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	j.scratch = AppendRecord(j.scratch[:0], payload)
	if _, err := j.seg.Write(j.scratch); err != nil {
		return fmt.Errorf("journal: appending record %d: %w", j.nextLSN, err)
	}
	j.segSize += int64(len(j.scratch))
	switch j.opts.Fsync {
	case FsyncAlways:
		return j.syncLocked()
	case FsyncInterval:
		if j.opts.Clock.Now().Sub(j.lastSync) >= j.opts.FsyncEvery {
			return j.syncLocked()
		}
	}
	return nil
}

// syncLocked is every method's fsync of the active segment; its failure
// is sticky whichever of them asked.
func (j *Journal) syncLocked() error {
	if err := j.seg.Sync(); err != nil {
		j.failed = fmt.Errorf("journal: fsync: %w", err)
		return j.failed
	}
	j.lastSync = j.opts.Clock.Now()
	j.syncs++
	return nil
}

// Sync forces the active segment to stable storage regardless of policy.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.usableLocked(); err != nil {
		return err
	}
	return j.syncLocked()
}

// Snapshot writes a snapshot covering every record appended so far, then
// compacts: snapshots beyond KeepSnapshots and segments fully covered by
// the oldest kept snapshot are deleted. The snapshot is written to a
// temporary file, synced, and renamed, so a crash mid-write never corrupts
// an existing snapshot.
func (j *Journal) Snapshot(state []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.usableLocked(); err != nil {
		return err
	}
	// The snapshot must not claim records the log hasn't made durable.
	if err := j.syncLocked(); err != nil {
		return err
	}
	through := j.nextLSN - 1
	name := snapName(through)
	tmp := filepath.Join(j.opts.Dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	buf := AppendRecord(snapMagic(), state)
	if _, err := f.Write(buf); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // the sync error is the one worth reporting
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(j.opts.Dir, name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot rename: %w", err)
	}
	j.syncDir()
	j.snapshots++
	// Replace any snapshot at the same LSN (no new records since last
	// snapshot), then compact.
	j.snaps = append(removeLSN(j.snaps, through), through)
	sort.Slice(j.snaps, func(a, b int) bool { return j.snaps[a] < j.snaps[b] })
	j.compactLocked()
	return nil
}

// compactLocked drops snapshots beyond KeepSnapshots and segments fully
// covered by the oldest kept snapshot.
func (j *Journal) compactLocked() {
	for len(j.snaps) > j.opts.KeepSnapshots {
		old := j.snaps[0]
		j.snaps = j.snaps[1:]
		if err := os.Remove(filepath.Join(j.opts.Dir, snapName(old))); err != nil {
			j.opts.Logf("journal: removing snapshot %d: %v", old, err)
		}
	}
	if len(j.snaps) == 0 {
		return
	}
	cover := j.snaps[0] // oldest kept snapshot covers through this LSN
	// A non-final segment's last LSN is the next segment's first minus 1.
	for len(j.segStats) > 1 && j.segStats[1] <= cover+1 {
		first := j.segStats[0]
		j.segStats = j.segStats[1:]
		if err := os.Remove(filepath.Join(j.opts.Dir, segName(first))); err != nil {
			j.opts.Logf("journal: removing segment %d: %v", first, err)
		}
	}
}

// rotateLocked seals the active segment and starts a new one.
func (j *Journal) rotateLocked() error {
	if err := j.syncLocked(); err != nil {
		return err
	}
	if err := j.seg.Close(); err != nil {
		return err
	}
	j.seg = nil
	return j.openSegment()
}

// openSegment starts a fresh segment at nextLSN. Called at Open and on
// rotation; the previous segment, if any, is already closed.
func (j *Journal) openSegment() error {
	path := filepath.Join(j.opts.Dir, segName(j.nextLSN))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: creating segment: %w", err)
	}
	if _, err := f.Write(segMagic()); err != nil {
		_ = f.Close() // the header-write error is the one worth reporting
		return fmt.Errorf("journal: segment header: %w", err)
	}
	j.seg = f
	j.segStart = j.nextLSN
	j.segSize = int64(len(segMagic()))
	j.segStats = append(j.segStats, j.nextLSN)
	j.syncDir()
	return nil
}

// syncDir fsyncs the journal directory so renames and creations are
// durable. Failures are logged, not fatal: data-file syncs already
// happened.
func (j *Journal) syncDir() {
	d, err := os.Open(j.opts.Dir)
	if err != nil {
		return
	}
	if err := d.Sync(); err != nil {
		j.opts.Logf("journal: dir sync: %v", err)
	}
	_ = d.Close() // read-only directory handle; nothing to lose
}

// Close syncs and closes the journal. A failed handle skips the sync and
// reports its failure.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	err := j.failed
	if err == nil {
		err = j.syncLocked()
	}
	if cerr := j.seg.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abandon closes file descriptors without syncing — it simulates a crash
// for tests and drills: everything not yet flushed by the fsync policy is
// at the OS's mercy, exactly as in a real kill.
func (j *Journal) Abandon() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	j.closed = true
	//lint:ignore errcheck-io Abandon simulates a crash: losing unflushed bytes is the point, so a close error carries no information the caller could act on
	j.seg.Close()
}

func segName(firstLSN uint64) string { return fmt.Sprintf("seg-%016x.wal", firstLSN) }
func snapName(through uint64) string { return fmt.Sprintf("snap-%016x.snap", through) }
func removeLSN(s []uint64, v uint64) []uint64 {
	out := s[:0]
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}
