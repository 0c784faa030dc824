package journal

import (
	"fmt"
	"path/filepath"
)

// Export is a read-out of the log tail from a requested LSN: the segment
// replication unit a primary ships to a lagging replica. When the
// requested LSN has been compacted away, the newest snapshot rides along
// as a baseline and Records resume at SnapshotLSN+1.
type Export struct {
	// FromLSN is the LSN of the first record in Records (SnapshotLSN+1
	// when a baseline snapshot is included).
	FromLSN uint64
	// NextLSN is one past the last record shipped — the journal's next
	// append position at export time.
	NextLSN uint64
	// SnapshotLSN and Snapshot carry a baseline when the requested LSN
	// predates the oldest retained segment; Snapshot is nil otherwise.
	SnapshotLSN uint64
	Snapshot    []byte
	// Records holds the payloads for LSNs [FromLSN, NextLSN), in order.
	Records [][]byte
}

// ExportFrom reads every record with LSN >= fromLSN back out of the log
// (fromLSN 0 or 1 means from the beginning). Records below the oldest
// retained segment are represented by the newest snapshot instead —
// compaction guarantees the snapshot and the retained segments overlap,
// so the export is always contiguous. Safe to call between Appends; the
// caller sees a consistent prefix of the log.
func (j *Journal) ExportFrom(fromLSN uint64) (*Export, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.usableLocked(); err != nil {
		return nil, err
	}
	if fromLSN == 0 {
		fromLSN = 1
	}
	ex := &Export{FromLSN: fromLSN, NextLSN: j.nextLSN}
	if fromLSN >= j.nextLSN {
		ex.FromLSN = j.nextLSN
		return ex, nil
	}
	start := fromLSN
	oldest := j.nextLSN
	if len(j.segStats) > 0 {
		oldest = j.segStats[0]
	}
	if start < oldest {
		// The tail below the oldest segment is gone; substitute the
		// newest snapshot as a baseline.
		if len(j.snaps) == 0 {
			return nil, fmt.Errorf("journal: export from %d: records compacted and no snapshot", fromLSN)
		}
		snapLSN := j.snaps[len(j.snaps)-1]
		state, err := readSnapshotFile(filepath.Join(j.opts.Dir, snapName(snapLSN)))
		if err != nil {
			return nil, fmt.Errorf("journal: export baseline: %w", err)
		}
		ex.Snapshot = state
		ex.SnapshotLSN = snapLSN
		start = snapLSN + 1
		ex.FromLSN = start
	}
	// Walk the retained segments and collect payloads at LSN >= start.
	// Appends hold the same lock and write whole frames, so the on-disk
	// bytes of every retained segment are complete.
	for i, first := range j.segStats {
		var segEnd uint64 // one past the segment's last LSN
		if i+1 < len(j.segStats) {
			segEnd = j.segStats[i+1]
		} else {
			segEnd = j.nextLSN
		}
		if segEnd <= start {
			continue
		}
		payloads, _, err := j.readSegment(filepath.Join(j.opts.Dir, segName(first)), false)
		if err != nil {
			return nil, fmt.Errorf("journal: export segment %s: %w", segName(first), err)
		}
		for k, p := range payloads {
			if first+uint64(k) >= start {
				ex.Records = append(ex.Records, p)
			}
		}
	}
	if got := uint64(len(ex.Records)); ex.FromLSN+got != ex.NextLSN {
		return nil, fmt.Errorf("journal: export from %d: have %d records, want %d",
			fromLSN, got, ex.NextLSN-ex.FromLSN)
	}
	return ex, nil
}
