package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

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

// checkpointParts are the parts checkpointPart sorts a checkpoint's files
// into.
var checkpointParts = []string{"catalog", "bm25", "meta"}

// treeSize is what a checkpoint directory holds: files and bytes, in total
// and by part. The parts map is never written once measureTree returns.
type treeSize struct {
	files int
	bytes int64
	parts map[string]int64
}

// measureTree counts the regular files under a checkpoint directory and
// their bytes, in total and by part.
func measureTree(fs faultfs.FS, root string) (treeSize, error) {
	size := treeSize{parts: make(map[string]int64, len(checkpointParts))}
	if err := size.add(fs, root, false); err != nil {
		return treeSize{}, err
	}
	return size, nil
}

func (size *treeSize) add(fs faultfs.FS, dir string, indexes bool) error {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			if err := size.add(fs, filepath.Join(dir, e.Name()), indexes || e.Name() == "indexes"); err != nil {
				return err
			}
			continue
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		size.files++
		size.bytes += info.Size()
		size.parts[checkpointPart(e.Name(), indexes)] += info.Size()
	}
	return nil
}

// checkpointPart names the part a checkpoint file belongs to. Index files
// are named for their family (bm25-<kind>-000.idx under indexes/), the
// META.json and indexes/meta.json markers are metadata, and everything else
// is the catalog: catalog.vaib.
func checkpointPart(name string, indexes bool) string {
	switch {
	case name == metaFile || indexes && name == "meta.json":
		return "meta"
	case indexes && strings.HasPrefix(name, "bm25-"):
		return "bm25"
	}
	return "catalog"
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
