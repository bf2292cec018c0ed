package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// backend is the segment blob seam of a store: sealed segments are
// immutable, individually-hashed JSONL blobs, and a backend only needs
// to list, fetch (whole, or one byte range), publish and delete them —
// no appends, no locking. Because the store is content-addressed and
// every segment is self-verifying (its name carries the SHA-256 of its
// bytes), replication is just shipping immutable blobs. dirBackend,
// the local-filesystem implementation behind OpenDir, is the only
// production one; tests fake it to fail on demand.
//
// WriteSegment must be atomic with respect to ListSegments: a crash
// mid-write must never surface a half-written blob under a valid
// segment name. One Store drives one backend.
type backend interface {
	// ListSegments returns the names of every stored segment, sorted by
	// segment sequence (the replay order).
	ListSegments() ([]string, error)
	// ReadSegment returns a segment's complete bytes.
	ReadSegment(name string) ([]byte, error)
	// ReadSegmentAt returns exactly the n bytes at offset off of a
	// segment — one record's line, when a lookup hits a record the store
	// no longer keeps in memory. A short read is an error.
	ReadSegmentAt(name string, off int64, n int) ([]byte, error)
	// WriteSegment publishes an immutable segment atomically and
	// durably: after it returns, ListSegments includes name and
	// ReadSegment returns exactly data, power cut or not; on a crash
	// mid-call, neither.
	WriteSegment(name string, data []byte) error
	// Remove deletes a segment (compaction removing merged inputs).
	// Removing an absent segment is not an error.
	Remove(name string) error
}

// dirBackend stores segments as files in the store's directory,
// alongside its live tail (tail.jsonl); only names matching the segment
// pattern are ever listed, so the tail and foreign files are invisible
// to the segment replay.
type dirBackend struct {
	dir string
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

// ListSegments implements backend: segment-pattern files in the
// directory, sorted by sequence then name.
func (b dirBackend) ListSegments() ([]string, error) {
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

// ReadSegment implements backend.
func (b dirBackend) ReadSegment(name string) ([]byte, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(b.dir, name))
	if err != nil {
		return nil, fmt.Errorf("reading segment %s: %w: %w", name, err, ErrStore)
	}
	return data, nil
}

// ReadSegmentAt implements backend.
func (b dirBackend) ReadSegmentAt(name string, off int64, n int) ([]byte, error) {
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

// WriteSegment implements backend: the bytes land in a temp file that
// is synced and renamed into place, and the directory is synced after
// the rename — so a crash mid-write leaves only a *.tmp the lister
// ignores, and once it returns the segment survives a power cut (the
// seal truncates the tail right after).
func (b dirBackend) WriteSegment(name string, data []byte) error {
	if err := checkName(name); err != nil {
		return err
	}
	tmp := filepath.Join(b.dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		if _, err = f.Write(data); err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(b.dir, name))
	}
	if err == nil {
		var d *os.File
		if d, err = os.Open(b.dir); err == nil {
			err = d.Sync()
			d.Close()
		}
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("publishing segment %s: %w: %w", name, err, ErrStore)
	}
	return nil
}

// Remove implements backend; removing an absent segment succeeds.
func (b dirBackend) Remove(name string) error {
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
