package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Install lays rec down in opts.Dir — the snapshot as snap-<SnapshotLSN>,
// the record tail as one segment starting at SnapshotLSN+1 — so that
// Open(opts) recovers exactly rec and appends at the LSN after its last
// record. An election winner adopts the log it replicated from the dead
// primary this way: LSNs keep the primary's numbering, and the surviving
// replicas go on pulling the winner's tail from where they stand.
//
// Journal files already in the directory are removed first: the installed
// log supersedes whatever an earlier incarnation left there. Each file is
// one write, and one fsync unless the policy is FsyncNever; the directory
// itself is synced by the Open that follows, when it creates its segment.
func Install(opts Options, rec *Recovery) error {
	if err := opts.fillDefaults(); err != nil {
		return err
	}
	if rec.Snapshot == nil && rec.SnapshotLSN != 0 {
		return fmt.Errorf("journal: install: baseline LSN %d without a snapshot", rec.SnapshotLSN)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return fmt.Errorf("journal: creating dir: %w", err)
	}
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return fmt.Errorf("journal: scanning dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".wal") || strings.HasSuffix(name, ".snap") || strings.HasSuffix(name, ".tmp") {
			if err := os.Remove(filepath.Join(opts.Dir, name)); err != nil {
				return fmt.Errorf("journal: install: clearing %s: %w", name, err)
			}
		}
	}
	durable := opts.Fsync != FsyncNever
	if rec.Snapshot != nil {
		buf := AppendRecord(snapMagic(), rec.Snapshot)
		if err := writeFile(filepath.Join(opts.Dir, snapName(rec.SnapshotLSN)), buf, durable); err != nil {
			return fmt.Errorf("journal: install snapshot: %w", err)
		}
	}
	if len(rec.Records) > 0 {
		buf := segMagic()
		for _, p := range rec.Records {
			buf = AppendRecord(buf, p)
		}
		if err := writeFile(filepath.Join(opts.Dir, segName(rec.SnapshotLSN+1)), buf, durable); err != nil {
			return fmt.Errorf("journal: install segment: %w", err)
		}
	}
	return nil
}

// writeFile creates path holding b with a single write, synced on request.
func writeFile(path string, b []byte, sync bool) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	if err == nil && sync {
		err = f.Sync()
	}
	return errors.Join(err, f.Close())
}
