package wal

import (
	"fmt"
	"os"

	"repro/internal/faultfs"
)

// SegmentFiles lists the log segment file paths in dir, ascending by
// sequence — the read-only enumeration `verifai waldump` walks. It opens
// no Log and takes no locks, so it is safe to run against a live data
// directory (reads race benignly with appends: DumpSegment tolerates a
// torn tail, which is all a concurrent append can look like).
func SegmentFiles(dir string) ([]string, error) {
	seqs, err := listSegments(faultfs.OS, dir)
	if err != nil {
		return nil, err
	}
	paths := make([]string, len(seqs))
	for i, seq := range seqs {
		paths[i] = segmentPath(dir, seq)
	}
	return paths, nil
}

// DumpSegment streams every complete record in one segment file through fn
// in append order, decoding either payload encoding. Unlike Open it never
// writes: a trailing torn frame is reported via the returned byte count
// and left in place. Corruption (bad length, CRC, payload) aborts with an
// error naming the offset. fn returning an error aborts the dump.
func DumpSegment(path string, fn func(Record) error) (torn int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("wal: dump segment: %w", err)
	}
	end, err := walkFrames(path, data, fn)
	if err != nil {
		return 0, err
	}
	return int64(len(data) - end), nil
}
