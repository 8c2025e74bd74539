package snap

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFile atomically writes the snapshot to path (see WriteAtomic).
func WriteFile(path string, s *Snapshot) error {
	return WriteAtomic(path, s.Encode(), nil)
}

// WriteAtomic writes data to path so that a crash at any instant leaves
// either the old file or the new one, never a torn file: the bytes land in
// a temporary file in the same directory (named after path with a
// ".tmp-" infix), are fsynced, and are renamed over the destination. The
// directory is fsynced afterwards so the rename itself survives a crash.
// beforeRename, when non-nil, is called with the temp file's path after
// its fsync and before the rename.
func WriteAtomic(path string, data []byte, beforeRename func(tmpPath string)) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("snap: creating temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("snap: writing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snap: syncing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snap: closing %s: %w", tmp.Name(), err)
	}
	if beforeRename != nil {
		beforeRename(tmp.Name())
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("snap: renaming into place: %w", err)
	}
	// Persist the rename. Some platforms cannot fsync a directory;
	// failing that is not worth failing the write over.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// ReadFile reads and validates a snapshot file.
func ReadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snap: reading %s: %w", path, err)
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("snap: %s: %w", path, err)
	}
	return s, nil
}
