package journal

import (
	"bytes"
	"fmt"
	"testing"
)

// TestExportFrom covers the tail read-out: whole log, mid-log suffix,
// nothing-to-ship, and the snapshot-baseline path after compaction.
func TestExportFrom(t *testing.T) {
	j, rec, err := Open(Options{Dir: t.TempDir(), SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !rec.Empty() {
		t.Fatalf("fresh journal not empty: %+v", rec)
	}
	var want [][]byte
	for i := 0; i < 10; i++ {
		p := []byte(fmt.Sprintf("record-%02d-padding-to-force-rotation", i))
		want = append(want, p)
		if _, err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}

	checkRecords := func(ex *Export, from int) {
		t.Helper()
		if ex.FromLSN != uint64(from+1) || ex.NextLSN != 11 {
			t.Fatalf("export range [%d,%d), want [%d,11)", ex.FromLSN, ex.NextLSN, from+1)
		}
		if len(ex.Records) != len(want)-from {
			t.Fatalf("exported %d records, want %d", len(ex.Records), len(want)-from)
		}
		for i, p := range ex.Records {
			if !bytes.Equal(p, want[from+i]) {
				t.Fatalf("record %d mismatch: %q", from+i, p)
			}
		}
	}

	ex, err := j.ExportFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Snapshot != nil {
		t.Fatal("unexpected snapshot baseline before compaction")
	}
	checkRecords(ex, 0)

	ex, err = j.ExportFrom(6)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(ex, 5)

	ex, err = j.ExportFrom(11)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Records) != 0 || ex.FromLSN != 11 || ex.NextLSN != 11 {
		t.Fatalf("up-to-date export should be empty, got %+v", ex)
	}

	// Two snapshots compact the early segments away; an export from LSN 1
	// must now fall back to the newest snapshot baseline.
	for i := 0; i < 2; i++ {
		if err := j.Snapshot([]byte("state@10")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := j.Append([]byte("record-11")); err != nil {
		t.Fatal(err)
	}
	ex, err = j.ExportFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	if ex.SnapshotLSN != 10 || !bytes.Equal(ex.Snapshot, []byte("state@10")) {
		t.Fatalf("want snapshot baseline @10, got @%d %q", ex.SnapshotLSN, ex.Snapshot)
	}
	if ex.FromLSN != 11 || ex.NextLSN != 12 || len(ex.Records) != 1 || !bytes.Equal(ex.Records[0], []byte("record-11")) {
		t.Fatalf("baseline export tail wrong: %+v", ex)
	}
}

// TestInstallContinuesLog covers the write-in counterpart of ExportFrom:
// a replicated (baseline, tail) installed into another directory must be
// recovered by Open byte-for-byte, continue the source's LSN numbering,
// serve exports to lagging readers from either side of the baseline, and
// replace whatever the directory held before.
func TestInstallContinuesLog(t *testing.T) {
	for _, fsync := range []FsyncPolicy{FsyncAlways, FsyncNever} {
		t.Run(fsync.String(), func(t *testing.T) {
			opts := Options{Dir: t.TempDir(), Fsync: fsync}
			// A stale log from an earlier incarnation must not survive.
			stale, _, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := stale.Append([]byte("stale")); err != nil {
				t.Fatal(err)
			}
			if err := stale.Close(); err != nil {
				t.Fatal(err)
			}

			in := &Recovery{
				Snapshot:    []byte("state@7"),
				SnapshotLSN: 7,
				Records:     [][]byte{[]byte("record-08"), []byte("record-09")},
			}
			if err := Install(opts, in); err != nil {
				t.Fatalf("Install: %v", err)
			}
			j, rec, err := Open(opts)
			if err != nil {
				t.Fatalf("Open after Install: %v", err)
			}
			defer j.Close()
			if !bytes.Equal(rec.Snapshot, in.Snapshot) || rec.SnapshotLSN != 7 || rec.TruncatedBytes != 0 {
				t.Fatalf("recovered baseline @%d %q", rec.SnapshotLSN, rec.Snapshot)
			}
			if len(rec.Records) != 2 || !bytes.Equal(rec.Records[0], in.Records[0]) || !bytes.Equal(rec.Records[1], in.Records[1]) {
				t.Fatalf("recovered tail %q", rec.Records)
			}
			if got := j.NextLSN(); got != 10 {
				t.Fatalf("NextLSN = %d, want 10", got)
			}
			if lsn, err := j.Append([]byte("record-10")); err != nil || lsn != 10 {
				t.Fatalf("Append = %d, %v; want LSN 10", lsn, err)
			}

			// A reader already at LSN 9 gets the tail only; one behind the
			// baseline gets the baseline and everything after it.
			ex, err := j.ExportFrom(9)
			if err != nil {
				t.Fatal(err)
			}
			if ex.Snapshot != nil || ex.FromLSN != 9 || ex.NextLSN != 11 || len(ex.Records) != 2 {
				t.Fatalf("tail export wrong: %+v", ex)
			}
			ex, err = j.ExportFrom(3)
			if err != nil {
				t.Fatal(err)
			}
			if ex.SnapshotLSN != 7 || !bytes.Equal(ex.Snapshot, in.Snapshot) || ex.FromLSN != 8 || len(ex.Records) != 3 {
				t.Fatalf("baseline export wrong: %+v", ex)
			}
		})
	}

	t.Run("empty", func(t *testing.T) {
		opts := Options{Dir: t.TempDir()}
		if err := Install(opts, &Recovery{}); err != nil {
			t.Fatalf("Install: %v", err)
		}
		j, rec, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		if !rec.Empty() || j.NextLSN() != 1 {
			t.Fatalf("empty install recovered %+v at LSN %d", rec, j.NextLSN())
		}
	})

	if err := Install(Options{Dir: t.TempDir()}, &Recovery{SnapshotLSN: 4}); err == nil {
		t.Error("baseline LSN without a snapshot accepted")
	}
}
