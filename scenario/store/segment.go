package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/maphash"
	"io"
	"path/filepath"
	"strconv"
	"strings"
)

// Segmented layout. A store directory holds one append-only live tail
// (tail.jsonl) and the immutable segments it has sealed: once the tail
// crosses sealBytes, its bytes become a segment published through the
// backend under a name that embeds their SHA-256, and the tail restarts
// empty. Open replays sealed segments in sequence order and then the
// tail:
//
//   - the tail is append-only: a torn final line is truncated away,
//     malformed or key-mismatched lines are skipped;
//   - a sealed segment is all-or-nothing: its content hash must match
//     the hash in its name, and a mismatch skips the WHOLE segment
//     (counted in Stats.Tampered) — a sealed blob was written
//     atomically, so any deviation is tampering or bit rot, never a
//     torn append;
//   - duplicate keys resolve last-write-wins across the whole replay
//     (segments in sequence order, then the tail), matching the order
//     the records were originally appended in.
//
// Only the tail's results stay in memory. A record in a sealed segment
// is indexed by (segment, offset, length, digest) and read back through
// backend.ReadSegmentAt when a lookup hits it; the line must then match
// the digest taken while its verified bytes were in hand and pass the
// same acceptance rule Open applies (Store.resolve), so a segment
// altered on disk AFTER Open is never served either — the cell
// recomputes. The heap holds at most sealBytes of results however many
// were ever saved.
//
// Compact merges every sealed segment into one: last write per key
// wins, superseded records and records that fail their integrity
// check are dropped, and the merged segment replaces its inputs. The
// tail is never compacted — it seals on its own schedule. Because the
// merged segment carries a higher sequence than its inputs, a crash
// between publishing it and removing them is harmless: the next Open
// replays old-then-merged and last-write-wins lands on identical
// entries.
//
// Crash windows, exhaustively: a crash mid-seal leaves either a *.tmp
// blob (ignored) or a published segment plus an untruncated tail — the
// same records twice, collapsing under last-write-wins to the same
// index, with the duplicates visible as Stats.Superseded until the
// next Compact. A segment is synced before the tail is truncated, so a
// power cut cannot empty a segment whose records the tail gave up. A
// process crash mid-append tears only the tail's final line. Tail
// appends are not synced: they survive a process crash, not a power
// cut, which can lose the records appended since the last seal.

// sealBytes is the tail size at which an append seals the tail into a
// segment; in-package tests lower Store.sealAt to force sealing.
const sealBytes = 4 << 20

// segmentPrefix and segmentSuffix frame every segment name:
// seg-<8-digit sequence>-<64-hex sha256>.jsonl.
const (
	segmentPrefix = "seg-"
	segmentSuffix = ".jsonl"
)

// segmentName renders the self-verifying name of a segment holding
// data: the sequence orders replay, the hash authenticates the bytes.
func segmentName(seq int, data []byte) string {
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%s%08d-%s%s", segmentPrefix, seq, hex.EncodeToString(sum[:]), segmentSuffix)
}

// parseSegmentName extracts the sequence and content hash from a
// segment name; ok is false for anything that is not a well-formed
// segment name (foreign files, temp files, path escapes).
func parseSegmentName(name string) (seq int, hash string, ok bool) {
	if name != filepath.Base(name) {
		return 0, "", false
	}
	rest, found := strings.CutPrefix(name, segmentPrefix)
	if !found {
		return 0, "", false
	}
	rest, found = strings.CutSuffix(rest, segmentSuffix)
	if !found {
		return 0, "", false
	}
	seqStr, hash, found := strings.Cut(rest, "-")
	if !found || len(seqStr) != 8 || len(hash) != sha256.Size*2 {
		return 0, "", false
	}
	seq, err := strconv.Atoi(seqStr)
	if err != nil || seq < 0 {
		return 0, "", false
	}
	if _, err := hex.DecodeString(hash); err != nil {
		return 0, "", false
	}
	return seq, hash, true
}

// verifySegment reports whether data hashes to the hash embedded in
// name — the wholesale integrity check Open and Compact apply before
// trusting a single line of a sealed segment.
func verifySegment(name string, data []byte) bool {
	_, want, ok := parseSegmentName(name)
	if !ok {
		return false
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]) == want
}

// loadSegments indexes every sealed segment in sequence order; open
// scans the tail after it, so tail lines win over segment lines.
func (s *Store) loadSegments() error {
	names, err := s.backend.ListSegments()
	if err != nil {
		return err
	}
	for _, name := range names {
		if seq, _, ok := parseSegmentName(name); ok && seq > s.segSeq {
			s.segSeq = seq
		}
		data, err := s.backend.ReadSegment(name)
		if err != nil {
			return err
		}
		if !verifySegment(name, data) {
			// The blob does not match the hash it was published under:
			// tampering or rot. Sealed blobs are atomic, so there is no
			// "torn tail" excuse — skip it wholesale, serve nothing from
			// it, and let the affected cells recompute.
			s.stats.Tampered++
			continue
		}
		s.segments = append(s.segments, name)
		var off int64
		for _, line := range splitLines(data) {
			s.indexLine(line, name, off)
			off += int64(len(line))
		}
	}
	return nil
}

// splitLines cuts a blob of newline-terminated records into lines,
// dropping a trailing fragment (sealed segments never have one).
func splitLines(data []byte) [][]byte {
	var lines [][]byte
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			break
		}
		lines = append(lines, data[:i+1])
		data = data[i+1:]
	}
	return lines
}

// Seal publishes the current tail as an immutable segment and empties
// the tail. It is a no-op on an empty tail and an error on an in-memory
// store. Appends seal automatically once the tail reaches sealBytes;
// Seal exists for tests and for operators who want a consistent
// segment boundary (say, before replicating).
func (s *Store) Seal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.backend == nil {
		return fmt.Errorf("an in-memory store has no segments: %w", ErrStore)
	}
	return s.sealLocked()
}

// sealLocked moves the tail's bytes into a new sealed segment; callers
// hold s.mu. The publish happens BEFORE the tail truncate, so a crash
// between the two duplicates records (resolved by last-write-wins at
// the next Open) instead of losing them. The tail's entries then turn
// cold: the segment IS the tail's bytes, so each keeps its offset and
// length, takes the digest of its line while the blob is in hand, and
// lets its resident payload go.
func (s *Store) sealLocked() error {
	if s.offset == 0 || s.file == nil {
		return nil
	}
	data := make([]byte, s.offset)
	if _, err := s.file.ReadAt(data, 0); err != nil && err != io.EOF {
		return fmt.Errorf("reading tail for seal: %w: %w", err, ErrStore)
	}
	// A failed publish still burns its sequence, so a retry's segment
	// can never tie with a half-published one.
	s.segSeq++
	name := segmentName(s.segSeq, data)
	if err := s.backend.WriteSegment(name, data); err != nil {
		return err
	}
	s.segments = append(s.segments, name)
	if err := s.rollbackTo(0); err != nil {
		// The segment holds every record, so the store is still fully
		// durable — the un-emptied tail just duplicates it until the
		// next successful truncate or Open.
		return fmt.Errorf("truncating sealed tail: %w: %w", err, ErrStore)
	}
	s.offset = 0
	s.segRecords += s.tailRecords
	s.tailRecords = 0
	s.stats.Seals++
	for _, id := range s.tailKeys {
		// A key saved twice into this tail is listed twice and indexed
		// once, at its last line; the second visit finds it cold. A key
		// whose replayed record was dropped since is not indexed at all.
		if e, ok := s.index[id]; ok && e.seg == "" {
			e.seg, e.raw = name, nil
			e.digest = maphash.Bytes(s.seed, data[e.off:e.off+int64(e.n)])
			s.index[id] = e
		}
	}
	s.tailKeys = s.tailKeys[:0]
	return nil
}

// Compact merges every sealed segment into one, last write per key
// winning, dropping superseded records and records or segments that
// fail their integrity checks, then removes the merged inputs. Lookups
// are unchanged by construction — compaction rewrites where bytes live,
// never which bytes a key resolves to: cold entries are re-pointed at
// their line in the merged segment as it is laid out. The tail is
// untouched. An in-memory store errors; a store whose segments are
// already fully compacted is a no-op.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.backend == nil {
		return fmt.Errorf("an in-memory store has no segments: %w", ErrStore)
	}
	names, err := s.backend.ListSegments()
	if err != nil {
		return err
	}
	if len(names) == 0 {
		return nil
	}
	// Replay the sealed segments alone: final line per key, in
	// first-appearance key order (deterministic, append-flavored).
	final := make(map[string][]byte)
	var order []string
	dropped := false // any duplicate, malformed, or tampered byte on disk
	for _, name := range names {
		data, err := s.backend.ReadSegment(name)
		if err != nil {
			return err
		}
		if !verifySegment(name, data) {
			dropped = true
			continue // drop the tampered segment from disk below
		}
		for _, line := range splitLines(data) {
			_, key, v := decodeLine(line)
			if v != lineOK {
				// Malformed and tampered lines are dropped by the merge;
				// they were counted when Open replayed them.
				dropped = v != lineEmpty
				continue
			}
			if _, seen := final[key]; !seen {
				order = append(order, key)
			} else {
				dropped = true // superseded copy goes away
			}
			final[key] = append([]byte(nil), line...)
		}
	}
	if len(names) == 1 && !dropped {
		return nil // one clean segment with no duplicates: nothing to gain
	}
	var merged []byte
	for _, key := range order {
		merged = append(merged, final[key]...)
	}
	name := "" // of the merged segment; none when nothing survived
	if len(merged) > 0 {
		s.segSeq++
		name = segmentName(s.segSeq, merged)
		if err := s.backend.WriteSegment(name, merged); err != nil {
			return err
		}
		s.segments = []string{name}
	} else {
		s.segments = nil
	}
	s.repointLocked(name, order, final)
	// Inputs go only after the merged segment is durable; a failed
	// Remove leaves a lower-sequence duplicate that the next Open
	// resolves identically, so removal is best-effort but reported.
	var removeErr error
	for _, name := range names {
		if err := s.backend.Remove(name); err != nil && removeErr == nil {
			removeErr = err
		}
	}
	s.segRecords = len(final)
	s.stats.Compactions++
	return removeErr
}

// repointLocked moves every cold entry to its line in the merged
// segment name, whose layout is final's lines in order; callers hold
// s.mu. A key shadowed by a newer tail record is resident and stays
// put. A cold entry the merge did not carry — its segment failed the
// whole-segment hash and is about to be removed — has no bytes left to
// read and is dropped; its cell recomputes.
func (s *Store) repointLocked(name string, order []string, final map[string][]byte) {
	var off int64
	for _, key := range order {
		line := final[key]
		id := idOf(key)
		if e, ok := s.index[id]; ok && e.seg != "" {
			digest := maphash.Bytes(s.seed, line)
			// The merge keeps a key's last intact line, which is the line
			// the entry described unless a later copy was lost with a
			// tampered segment; a different line has not been through
			// the canonical check yet.
			e.verified = e.verified && digest == e.digest
			e.seg, e.off, e.n, e.digest = name, off, int32(len(line)), digest
			s.index[id] = e
		}
		off += int64(len(line))
	}
	for id, e := range s.index {
		if e.seg != "" && e.seg != name {
			delete(s.index, id)
			if e.durable {
				s.durableKeys--
			}
		}
	}
}

// Segments returns the names of the sealed segments currently backing
// the store, in replay order (empty for in-memory stores).
func (s *Store) Segments() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.segments...)
}
