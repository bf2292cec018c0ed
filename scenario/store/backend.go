package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Backend is the segment blob interface of a segmented store: sealed
// segments are immutable, individually-hashed JSONL blobs, and a
// backend only needs to list, fetch (whole, or one byte range), publish
// and delete them — no appends, no locking. That shape is deliberate:
// because the store is content-addressed and every segment is
// self-verifying (its name carries the SHA-256 of its bytes),
// replication is just shipping immutable blobs, and an object-store
// backend (S3, GCS) is a drop-in behind this interface. DirBackend,
// the local-filesystem implementation, ships today.
//
// Implementations must make WriteSegment atomic with respect to
// ListSegments: a crash mid-write must never surface a half-written
// blob under a valid segment name (DirBackend writes a temp file and
// renames). They need not be safe for concurrent use by multiple
// stores; one Store drives one Backend.
type Backend interface {
	// ListSegments returns the names of every stored segment, sorted by
	// segment sequence (the replay order).
	ListSegments() ([]string, error)
	// ReadSegment returns a segment's complete bytes.
	ReadSegment(name string) ([]byte, error)
	// ReadSegmentAt returns exactly the n bytes at offset off of a
	// segment — one record's line, when a lookup hits a record the store
	// no longer keeps in memory (an object store serves it as a ranged
	// GET). A short read is an error.
	ReadSegmentAt(name string, off int64, n int) ([]byte, error)
	// WriteSegment publishes an immutable segment atomically: after it
	// returns, ListSegments includes name and ReadSegment returns
	// exactly data; on a crash mid-call, neither.
	WriteSegment(name string, data []byte) error
	// Remove deletes a segment (compaction removing merged inputs).
	// Removing an absent segment is not an error.
	Remove(name string) error
}

// DirBackend stores segments as files in a local directory — the
// filesystem implementation of Backend that OpenDir wires up. Segment
// files live alongside the store's live tail (tail.jsonl); only names
// matching the segment pattern are ever listed, so the tail and
// foreign files are invisible to the segment replay.
type DirBackend struct {
	dir string
}

// NewDirBackend creates (if needed) dir and returns a backend over it.
func NewDirBackend(dir string) (*DirBackend, error) {
	if dir == "" {
		return nil, fmt.Errorf("empty backend directory: %w", ErrStore)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating backend directory %s: %w: %w", dir, err, ErrStore)
	}
	return &DirBackend{dir: dir}, nil
}

// checkName rejects names that are not well-formed segment names —
// both foreign files and path escapes (a name with a separator could
// otherwise read or delete outside the directory).
func checkName(name string) error {
	if _, _, ok := parseSegmentName(name); !ok {
		return fmt.Errorf("malformed segment name %q: %w", name, ErrStore)
	}
	return nil
}

// ListSegments implements Backend: segment-pattern files in the
// directory, sorted by sequence then name.
func (b *DirBackend) ListSegments() ([]string, error) {
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return nil, fmt.Errorf("listing %s: %w: %w", b.dir, err, ErrStore)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, _, ok := parseSegmentName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	sortSegmentNames(names)
	return names, nil
}

// ReadSegment implements Backend.
func (b *DirBackend) ReadSegment(name string) ([]byte, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(b.dir, name))
	if err != nil {
		return nil, fmt.Errorf("reading segment %s: %w: %w", name, err, ErrStore)
	}
	return data, nil
}

// ReadSegmentAt implements Backend.
func (b *DirBackend) ReadSegmentAt(name string, off int64, n int) ([]byte, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(b.dir, name))
	if err != nil {
		return nil, fmt.Errorf("reading segment %s: %w: %w", name, err, ErrStore)
	}
	defer f.Close()
	data := make([]byte, n)
	if _, err := f.ReadAt(data, off); err != nil {
		return nil, fmt.Errorf("reading %d bytes at %d of segment %s: %w: %w", n, off, name, err, ErrStore)
	}
	return data, nil
}

// WriteSegment implements Backend: the bytes land in a temp file that
// is renamed into place, so a crash mid-write leaves only a *.tmp the
// lister ignores — never a torn blob under a valid segment name.
func (b *DirBackend) WriteSegment(name string, data []byte) error {
	if err := checkName(name); err != nil {
		return err
	}
	tmp := filepath.Join(b.dir, name+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("writing segment %s: %w: %w", name, err, ErrStore)
	}
	if err := os.Rename(tmp, filepath.Join(b.dir, name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("publishing segment %s: %w: %w", name, err, ErrStore)
	}
	return nil
}

// Remove implements Backend; removing an absent segment succeeds.
func (b *DirBackend) Remove(name string) error {
	if err := checkName(name); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(b.dir, name)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("removing segment %s: %w: %w", name, err, ErrStore)
	}
	return nil
}

// sortSegmentNames orders names by (sequence, name) — the replay
// order. Ties on sequence cannot happen from one store's seal path,
// but a deterministic order keeps replay stable even for a directory
// assembled by hand.
func sortSegmentNames(names []string) {
	sort.Slice(names, func(i, j int) bool {
		si, _, _ := parseSegmentName(names[i])
		sj, _, _ := parseSegmentName(names[j])
		if si != sj {
			return si < sj
		}
		return strings.Compare(names[i], names[j]) < 0
	})
}
