package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/faultfs"
)

// readCheckpointMeta returns the checkpoint metadata under dir, nil when
// the directory (or its meta file) is absent or unreadable — an absent or
// half-written checkpoint is "no checkpoint", not an error; only an
// unreadable filesystem is.
func readCheckpointMeta(fs faultfs.FS, dir string) (*checkpointMeta, error) {
	data, err := fs.ReadFile(filepath.Join(dir, metaFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("durable: read checkpoint meta: %w", err)
	}
	var meta checkpointMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		// A torn meta write means the checkpoint never completed; the WAL
		// still has everything since the previous one.
		return nil, nil
	}
	return &meta, nil
}

// writeCheckpointMeta writes the validity marker last: a checkpoint
// directory is only real once its meta file parses.
func writeCheckpointMeta(fs faultfs.FS, dir string, meta checkpointMeta) error {
	data, err := json.MarshalIndent(&meta, "", "  ")
	if err != nil {
		return fmt.Errorf("durable: marshal checkpoint meta: %w", err)
	}
	if err := fs.WriteFile(filepath.Join(dir, metaFile), data, 0o644); err != nil {
		return fmt.Errorf("durable: write checkpoint meta: %w", err)
	}
	return nil
}

// syncTree fsyncs every file and directory under root (root included), so
// a completed checkpoint survives power loss, not just process death.
func syncTree(fs faultfs.FS, root string) error {
	if err := syncDir(fs, root); err != nil {
		return err
	}
	entries, err := fs.ReadDir(root)
	if err != nil {
		return err
	}
	for _, e := range entries {
		path := filepath.Join(root, e.Name())
		if e.IsDir() {
			if err := syncTree(fs, path); err != nil {
				return err
			}
			continue
		}
		if err := syncDir(fs, path); err != nil {
			return err
		}
	}
	return nil
}

// treeSize is what a directory tree holds.
type treeSize struct {
	files int
	bytes int64
}

// measureTree counts the regular files under root and their bytes.
func measureTree(fs faultfs.FS, root string) (treeSize, error) {
	var size treeSize
	entries, err := fs.ReadDir(root)
	if err != nil {
		return size, err
	}
	for _, e := range entries {
		if e.IsDir() {
			sub, err := measureTree(fs, filepath.Join(root, e.Name()))
			if err != nil {
				return size, err
			}
			size.files += sub.files
			size.bytes += sub.bytes
			continue
		}
		info, err := e.Info()
		if err != nil {
			return size, err
		}
		size.files++
		size.bytes += info.Size()
	}
	return size, nil
}

// syncDir fsyncs one file or directory by path. Directory fsync persists
// the entries (renames, creates) inside it.
func syncDir(fs faultfs.FS, path string) error {
	f, err := fs.Open(path)
	if err != nil {
		return err
	}
	serr := f.Sync()
	if cerr := f.Close(); serr == nil {
		serr = cerr
	}
	return serr
}
