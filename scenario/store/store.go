// Package store persists scenario cell results in a content-addressed,
// append-only JSONL store, keyed by a canonical hash of each cell's
// fully-resolved Spec. It implements scenario.ResultStore, so a
// scenario.Runner (or the krum-scenariod service) consults it before
// running a cell and writes fresh results through — repeated and
// overlapping experiment grids become near-free, because a cell is a
// pure function of its spec and a hit returns a result byte-identical
// (under distsgd.Result's stable JSON encoding) to a cold run.
//
// # Keys
//
// A key hashes the spec's identity, scenario.Spec.Canonical: the store
// resolves no axis itself, it only hashes. Canonical replaces each
// axis spec string by its registry's canonical form, so spelling
// variants collapse to one key — "krum" at n=15, f=3 and "krum(f=3)"
// hit the same entry, as do "Gaussian(sigma=200)" and
// "gaussian(sigma=200)". A parameter set away from its default is part
// of the identity even where the rule's Name omits it: at f=3,
// "krum(f=5)" keys as krum(f=5), never as krum. The cosmetic Name
// label is excluded: it cannot change a result. Everything else —
// including Seed, EvalEvery/EvalBatch/TrackSelection (they change
// Result contents) and the Incremental flag — is hashed, together with
// the Version salt and the kernel order family.
//
// # Invalidation
//
// Version is the code-version salt. Because it participates in every
// key, bumping it orphans all previously-stored entries at once: old
// records remain in the file but their stored key no longer matches
// any key the new code computes, so every cell recomputes — stale
// results are never served. Bump Version whenever training semantics,
// spec interpretation, or the Result encoding change. The same
// mechanism guards individual records: Open re-derives each record's
// key from its stored spec and drops mismatches (e.g. a hand-edited
// spec), so a tampered record triggers recomputation instead of a
// stale serve.
//
// # File format and corruption
//
// The file holds one JSON record per line: {"key", "version", "spec",
// "result"}. Writes are append-only; a crash can therefore only tear
// the final line. Open tolerates exactly that: a truncated tail is
// dropped (and the file truncated back to the last intact record) so
// subsequent appends start clean; interior lines that fail to parse or
// whose key does not re-derive are skipped and counted (Stats), never
// served. Duplicate keys resolve last-write-wins, matching the append
// order. One Store is safe for concurrent use within a process; the
// file itself assumes a single writing process at a time.
package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"os"
	"strings"
	"sync"

	"krum/distsgd"
	"krum/internal/vec"
	"krum/scenario"
)

// Version is the code-version salt mixed into every key. Bump it
// whenever a change anywhere in the training stack (kernels, rules,
// attacks, schedules, workloads, protocol, Result encoding) can alter
// the result a spec produces: all existing store entries then miss and
// recompute — the invalidation rule documented in the package comment.
//
// v2: distsgd.Result gained the Kernel metadata field (the stable
// encoding changed) and keys gained the kernel-order salt below.
const Version = "krum-store-v2"

// ErrStore is the sentinel wrapped by store failures.
var ErrStore = errors.New("store: error")

// Key returns the spec's content address under the active order family
// (see address). The key is conservative: two specs sharing a key are
// guaranteed to produce the same result under the current code
// version, but not every result-identical pair shares a key — notably
// Incremental is hashed (it is part of the cell's declared identity
// even though results are bit-identical either way), so flipping it
// recomputes.
func Key(s scenario.Spec) (string, error) {
	_, key, err := identify("", s, "")
	return key, err
}

// identify resolves a caller's spec to its identity (Spec.Canonical)
// and that identity's address under the active order family — the one
// path from a spec to a key. kind is "" for a cell.
func identify(kind string, s scenario.Spec, params string) (scenario.Spec, string, error) {
	c, err := s.Canonical()
	if err != nil {
		return scenario.Spec{}, "", err
	}
	key, err := address(vec.KernelOrder(), kind, params, c)
	return c, key, err
}

// address renders the content address of one identity: "sha256:" plus
// the hex SHA-256 of the Version salt, a kernel accumulation-order
// family and the identity's JSON — the canonical spec for a cell
// (kind ""), or the auxIdentity for an auxiliary record. The two
// preimage families start with different JSON structure, so they cannot
// collide. A cell needs a rule, a schedule and a workload; a spec
// without them has no cell key.
//
// The kernel salt is the order FAMILY, not the tier name: tiers with
// the same canonical accumulation order produce bit-identical results
// (pinned in internal/vec's gram_test.go), so a pure-Go worker and an
// SSE2 worker deliberately share keys — while a result computed under
// the fma4 (AVX2) order can never be served to a pair2 process, whose
// cold run would produce different low bits. A tier switch (new CPU,
// KRUM_KERNEL_TIER change) across order families therefore orphans
// entries exactly like a Version bump, per order family. Records are
// re-derived under their own stored family too (see decodeLine's
// foreign verdict).
func address(order, kind, params string, c scenario.Spec) (string, error) {
	var blob []byte
	switch {
	case kind != "":
		blob, _ = json.Marshal(auxIdentity{Kind: kind, Params: params, Spec: c})
	case c.Rule == "" || c.Schedule == "" || c.Workload == "":
		return "", fmt.Errorf("a cell needs a rule, a schedule and a workload: %w", ErrStore)
	default:
		blob, _ = json.Marshal(c)
	}
	h := sha256.New()
	h.Write([]byte(Version + "\n" + order + "\n"))
	h.Write(blob)
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

// keyID is a content address in binary: the 32 digest bytes behind a
// "sha256:<hex>" key string. Keys travel as strings (Key's result,
// record.Key); the index is keyed by keyID because the string form
// costs three times the bytes per record, and the index is the part of
// a segmented store that grows with everything ever saved.
type keyID [sha256.Size]byte

// idOf parses a key string. Only address's renderings ever reach
// the index (a record's stored key is indexed only once it equals a
// derived one), so anything else maps to the zero id, which nothing is
// stored under.
func idOf(key string) (id keyID) {
	if digits := strings.TrimPrefix(key, "sha256:"); len(digits) == hex.EncodedLen(len(id)) {
		hex.Decode(id[:], []byte(digits))
	}
	return id
}

// record is one JSONL line.
type record struct {
	// Key is the content address the record was stored under.
	Key string `json:"key"`
	// Version is the salt in effect at write time (informational — the
	// salt is already baked into Key).
	Version string `json:"version"`
	// Kernel is the accumulation-order family (vec.Tier.Order) active at
	// write time. Unlike Version it is load-bearing: a record whose Key
	// fails re-derivation under the ACTIVE family is re-checked against
	// its own declared family, and if intact under that salt it is
	// classified foreign (another family's valid entry — never served
	// here, but preserved by Compact) instead of tampered. Altering the
	// stored identity after hashing still fails BOTH derivations, so
	// this weakens no integrity check.
	Kernel string `json:"kernel,omitempty"`
	// Kind discriminates the record family: empty for distsgd cell
	// results (scenario.ResultStore records), a harness kind such as
	// "table1" or "ablation" for auxiliary Monte-Carlo records (see
	// aux.go). The kind participates in the key, so the families can
	// never collide.
	Kind string `json:"kind,omitempty"`
	// Params is the auxiliary record's extra identity (trial counts,
	// dimensions — everything result-affecting that the spec does not
	// carry); empty for cell records.
	Params string `json:"params,omitempty"`
	// Spec is the canonical spec the result was computed from.
	Spec scenario.Spec `json:"spec"`
	// Result is the stable-encoded training outcome (for cell records)
	// or the kind-specific JSON payload (for auxiliary records).
	Result json.RawMessage `json:"result"`
}

// Stats is a snapshot of a store's counters.
type Stats struct {
	// Entries is the number of distinct keys currently indexed.
	Entries int
	// Hits and Misses count Lookup outcomes since Open.
	Hits, Misses int
	// ColdReads counts the Hits that were served from a sealed segment —
	// read back from the backend and re-verified — rather than from the
	// resident tail (always 0 for single-file and in-memory stores).
	ColdReads int
	// FlightWaits counts single-flight followers since Open: DoCellRaw
	// calls that found the same key already executing and waited for
	// its result instead of computing (see DoCellRaw).
	FlightWaits int
	// Saves counts successful Save calls since Open.
	Saves int
	// SkippedRecords counts records dropped from the index at Open
	// time: malformed lines, key mismatches (tampered or stale-salt
	// entries), foreign-family records, or undecodable results.
	// Skipped records are never served by this process.
	SkippedRecords int
	// DroppedTailBytes is the size of the torn final line Open
	// discarded (0 for a clean file).
	DroppedTailBytes int
	// Superseded counts records currently on disk that are shadowed by
	// a later write to the same key — duplicates from re-saves, crashed
	// seals, or un-compacted history. It is the store's compaction
	// debt: Compact drives the sealed-segment share of it to zero.
	Superseded int
	// Tampered counts integrity-check failures observed since Open:
	// records whose stored key did not re-derive from their stored
	// identity, whole sealed segments whose content hash did not match
	// the hash in their name (each such segment counts once and is
	// skipped wholesale), plus sealed records that no longer read back
	// as the bytes that were indexed (each counts once and is dropped
	// from the index). Tampered data is never served; the affected
	// cells recompute. Records written under a DIFFERENT kernel-order
	// family are not tampered — see Foreign.
	Tampered int
	// Foreign counts intact records observed since Open that belong to
	// another kernel-order family (their key re-derives under their own
	// stored Kernel salt, not the active one). They are skipped — this
	// process's kernels cannot reproduce their rounding — but healthy:
	// a mixed-family fleet sharing one store file reports them here,
	// not as Tampered, and Compact preserves them on disk.
	Foreign int
	// Segments is the number of sealed segments currently backing the
	// store (0 for single-file and in-memory stores).
	Segments int
	// Seals counts tail→segment seals since Open.
	Seals int
	// Compactions counts Compact merges since Open.
	Compactions int
}

// String renders the counters in one line.
func (s Stats) String() string {
	line := fmt.Sprintf("%d entries, %d hits, %d misses, %d flight waits, %d saves, %d skipped, %d tampered, %d superseded, %d tail bytes dropped",
		s.Entries, s.Hits, s.Misses, s.FlightWaits, s.Saves, s.SkippedRecords, s.Tampered, s.Superseded, s.DroppedTailBytes)
	if s.Foreign > 0 {
		line += fmt.Sprintf(", %d foreign-family", s.Foreign)
	}
	if s.Segments > 0 || s.Seals > 0 || s.Compactions > 0 {
		line += fmt.Sprintf(", %d segments (%d seals, %d compactions, %d cold reads)", s.Segments, s.Seals, s.Compactions, s.ColdReads)
	}
	return line
}

// entry is one indexed record: where its bytes live and what is known
// about them. A record is RESIDENT (raw holds its result payload) while
// it lives in memory only, in a single-file store or in a segmented
// store's tail, and COLD (seg names its sealed segment, raw is nil) once
// its tail has sealed — then a hit reads the line back (see fetchLocked
// and resolve). That split is what bounds a segmented store's heap by
// SealBytes plus this struct per record, whatever it has ever saved.
type entry struct {
	// raw is the resident result payload; nil when cold.
	raw json.RawMessage
	// seg is the sealed segment holding the record's line ("" while
	// resident); off and n locate the line — in seg when cold, in the
	// live file when resident in a file-backed store. A tail's bytes
	// become its segment's bytes, so off and n carry over a seal.
	seg string
	off int64
	n   int32
	// verified records that the payload is a canonical result encoding:
	// true from birth for records this process appended, set on the
	// first single-flight hit for records replayed from disk (DoCellRaw).
	verified bool
	// durable records that the key has at least one record on disk (it
	// outlives the record itself when a store that lost its file
	// re-saves the key in memory only).
	durable bool
	// digest is the seeded hash of the line, taken when the entry went
	// cold — the bytes were in hand and verified then, and a cold read
	// must find them unchanged.
	digest uint64
}

// sameRecord reports that two snapshots of one key's entry describe the
// same stored line (the key was not re-saved, sealed or compacted in
// between).
func (e entry) sameRecord(o entry) bool { return e.seg == o.seg && e.off == o.off }

// Store is a content-addressed scenario result store: an in-memory
// index from key to result — the result's bytes, or where they lie in
// a sealed segment (see entry) — optionally backed by an append-only
// JSONL file. It implements scenario.ResultStore and is safe for
// concurrent use.
type Store struct {
	mu   sync.Mutex
	path string
	file *os.File // nil for in-memory stores
	// offset is the end of the last fully-written record — the safe
	// append position. After a failed write the file is rolled back to
	// it so a torn fragment can never fuse with the next record.
	offset int64
	index  map[keyID]entry
	// seed keys entry.digest. It is drawn per process, so someone who
	// can only write the disk cannot craft bytes that keep a digest.
	seed maphash.Seed
	// flights tracks in-progress single-flight executions by key (see
	// singleflight.go); entries exist only while a leader is computing.
	flights map[string]*flight
	stats   Stats

	// backend, when non-nil, makes this a SEGMENTED store (see
	// segment.go): the tail seals into immutable hashed segments at
	// sealBytes, replayed before the tail at Open.
	backend   Backend
	sealBytes int64
	// segSeq is the highest segment sequence in use; segments lists the
	// sealed segments in replay order.
	segSeq   int
	segments []string
	// segRecords / tailRecords count the valid indexed records living
	// in sealed segments and in the tail respectively; together with
	// durableKeys they make Stats.Superseded exact: superseded =
	// segRecords + tailRecords − durableKeys.
	segRecords  int
	tailRecords int
	// durableKeys counts the distinct keys with at least one durable
	// record — the index entries flagged durable (all of them, unless
	// the store dropped to memory-only).
	durableKeys int
	// tailKeys lists, in append order, the keys of the records in a
	// segmented store's tail — the entries a seal turns cold.
	tailKeys []keyID
}

// NewMemory returns a store with no backing file — the index lives and
// dies with the process. It is the default for krum-scenariod when no
// -store-dir is given, and convenient in tests and examples.
func NewMemory() *Store {
	return &Store{
		index:   make(map[keyID]entry),
		flights: make(map[string]*flight),
	}
}

// Open opens (creating if needed) the JSONL store at path, loads every
// intact record into the index, and prepares the file for appends. See
// the package comment for the corruption rules: a torn final line is
// truncated away, records whose key does not re-derive from their spec
// are skipped, duplicate keys resolve last-write-wins. The returned
// Stats (via Stats) report what was skipped.
func Open(path string) (*Store, error) {
	return open(nil, 0, path)
}

// open is the one open path behind Open and OpenSegmented: sealed
// segments first when a backend is present, then a single scan of the
// file at path — so every record is decoded once, in the order it was
// appended, and last write wins across the whole replay.
func open(backend Backend, sealBytes int64, path string) (*Store, error) {
	if path == "" {
		return nil, fmt.Errorf("empty path (use NewMemory for an in-memory store): %w", ErrStore)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("opening %s: %w: %w", path, err, ErrStore)
	}
	s := &Store{
		path:      path,
		file:      f,
		index:     make(map[keyID]entry),
		seed:      maphash.MakeSeed(),
		flights:   make(map[string]*flight),
		backend:   backend,
		sealBytes: sealBytes,
	}
	if backend != nil {
		err = s.loadSegments()
	}
	if err == nil {
		err = s.load()
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// load scans the JSONL file, indexing intact records and truncating a
// torn tail.
func (s *Store) load() error {
	r := bufio.NewReader(s.file)
	var offset int64 // end of the last newline-terminated line
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// A final fragment without a newline is a torn append:
			// drop it and truncate so the next append starts clean.
			if len(line) > 0 {
				s.stats.DroppedTailBytes = len(line)
				if err := s.file.Truncate(offset); err != nil {
					return fmt.Errorf("truncating torn tail of %s: %w: %w", s.path, err, ErrStore)
				}
			}
			break
		}
		if err != nil {
			return fmt.Errorf("reading %s: %w: %w", s.path, err, ErrStore)
		}
		s.indexLine(line, "", offset)
		offset += int64(len(line))
	}
	if _, err := s.file.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("seeking %s: %w: %w", s.path, err, ErrStore)
	}
	s.offset = offset
	return nil
}

// lineVerdict classifies one JSONL line for indexing.
type lineVerdict int

const (
	// lineOK is a servable record.
	lineOK lineVerdict = iota
	// lineEmpty is whitespace only.
	lineEmpty
	// lineMalformed failed to parse as a record.
	lineMalformed
	// lineTampered parsed but failed the integrity check: its stored
	// key does not re-derive from its stored identity (hand-edited
	// spec, stale version salt), or it carries no result.
	lineTampered
	// lineForeign is intact but belongs to ANOTHER kernel-order family:
	// its key re-derives under the record's own stored Kernel salt, just
	// not under the active one. Never served by this process (its low
	// bits encode a rounding order these kernels cannot reproduce), but
	// not corruption either — Compact carries foreign records through so
	// a mixed-family fleet sharing one store never loses the other
	// family's results to a compaction.
	lineForeign
)

// decodeLine parses one complete JSONL line and re-derives its key —
// the acceptance rule shared by Open's replay and Compact's merge. A
// key mismatch under BOTH the active order-family salt and the
// record's own declared one means the record was written under a
// different code version (stale salt) or its identity was altered
// after hashing — either way serving it could be a stale result. A
// mismatch that re-derives intact under the record's declared family
// alone is foreign (see lineForeign); its returned key is the stored
// one, valid in that family's keyspace and collision-free with ours
// because the salt differs.
func decodeLine(line []byte) (rec record, key string, v lineVerdict) {
	trimmed := strings.TrimSpace(string(line))
	if trimmed == "" {
		return record{}, "", lineEmpty
	}
	if err := json.Unmarshal([]byte(trimmed), &rec); err != nil {
		return record{}, "", lineMalformed
	}
	c, err := rec.Spec.Canonical()
	if err == nil {
		key, err = address(vec.KernelOrder(), rec.Kind, rec.Params, c)
	}
	if err != nil || len(rec.Result) == 0 {
		return record{}, "", lineTampered
	}
	if key != rec.Key {
		if rec.Kernel != "" && rec.Kernel != vec.KernelOrder() {
			if fk, _ := address(rec.Kernel, rec.Kind, rec.Params, c); fk == rec.Key {
				return rec, rec.Key, lineForeign
			}
		}
		return record{}, "", lineTampered
	}
	return rec, key, lineOK
}

// indexLine validates one complete line found at off in seg ("" for the
// live file) and indexes it, counting (not failing on) records that
// cannot be served safely. A live-file record stays resident; a
// segment's is indexed cold, by location and digest, and its bytes are
// let go.
func (s *Store) indexLine(line []byte, seg string, off int64) {
	rec, key, v := decodeLine(line)
	switch v {
	case lineEmpty:
		return
	case lineMalformed:
		s.stats.SkippedRecords++
		return
	case lineTampered:
		s.stats.SkippedRecords++
		s.stats.Tampered++
		return
	case lineForeign:
		s.stats.SkippedRecords++
		s.stats.Foreign++
		return
	}
	id := idOf(key)
	e := entry{seg: seg, off: off, n: int32(len(line)), durable: true}
	if seg != "" {
		e.digest = maphash.Bytes(s.seed, line)
		s.segRecords++
	} else {
		e.raw = rec.Result
		s.tailRecords++
		if s.backend != nil {
			s.tailKeys = append(s.tailKeys, id)
		}
	}
	s.setLocked(id, e) // duplicate keys: last write wins
}

// setLocked indexes e under id, keeping the durable-key count; callers
// hold s.mu.
func (s *Store) setLocked(id keyID, e entry) {
	if s.index[id].durable {
		e.durable = true
	} else if e.durable {
		s.durableKeys++
	}
	s.index[id] = e
}

// fetchLocked snapshots key's entry and, for a cold one, reads its line
// back from the sealed segment. Callers hold s.mu — the read happens
// under it so Compact cannot remove the segment mid-read — and pass
// what they got to resolve after releasing it.
func (s *Store) fetchLocked(key string) (e entry, line []byte, ok bool) {
	e, ok = s.index[idOf(key)]
	if ok && e.seg != "" {
		// A failed read leaves line nil, which resolve rejects like any
		// other line that is not the one indexed.
		line, _ = s.backend.ReadSegmentAt(e.seg, e.off, int(e.n))
	}
	return e, line, ok
}

// resolve turns fetchLocked's snapshot into the record's result
// payload; callers do not hold s.mu. A resident entry answers from
// memory. A cold line must still be the bytes that were indexed (the
// seeded digest taken while they were in hand) AND pass decodeLine —
// the acceptance rule Open applied — under the same key; otherwise it
// was altered on disk after Open: the entry is dropped, Tampered counts
// it, and the caller sees a miss, so the cell recomputes and its fresh
// record heals the store.
func (s *Store) resolve(key string, e entry, line []byte) (json.RawMessage, bool) {
	if e.seg == "" {
		return e.raw, true
	}
	if maphash.Bytes(s.seed, line) == e.digest {
		if rec, got, v := decodeLine(line); v == lineOK && got == key {
			return rec.Result, true
		}
	}
	s.mu.Lock()
	s.stats.Tampered++
	s.dropLocked(key, e)
	s.mu.Unlock()
	return nil, false
}

// dropLocked removes key's entry if it still describes the record the
// caller examined (e); callers hold s.mu. Only records replayed from
// disk or read back from a segment are ever dropped, so a durable line
// goes out of the location tallies with it.
func (s *Store) dropLocked(key string, e entry) {
	id := idOf(key)
	cur, ok := s.index[id]
	if !ok || !cur.sameRecord(e) {
		return
	}
	delete(s.index, id)
	if cur.durable {
		s.durableKeys--
	}
	if e.seg != "" {
		s.segRecords--
	} else {
		s.tailRecords--
	}
}

// get is the whole read path for callers that need nothing from the
// lock afterwards (Lookup, LookupAux): the payload under key, whether
// it came from a sealed segment, and whether there is one.
func (s *Store) get(key string) (raw json.RawMessage, cold, ok bool) {
	s.mu.Lock()
	e, line, ok := s.fetchLocked(key)
	s.mu.Unlock()
	if !ok {
		return nil, false, false
	}
	raw, ok = s.resolve(key, e, line)
	return raw, e.seg != "", ok
}

// countLookup tallies one lookup outcome.
func (s *Store) countLookup(hit, cold bool) {
	s.mu.Lock()
	switch {
	case !hit:
		s.stats.Misses++
	case cold:
		s.stats.ColdReads++
		fallthrough
	default:
		s.stats.Hits++
	}
	s.mu.Unlock()
}

// Lookup implements scenario.ResultStore. Any internal failure — a
// spec that cannot be keyed, a result that no longer decodes — is a
// miss: the runner recomputes, which is always safe.
func (s *Store) Lookup(spec scenario.Spec) (*distsgd.Result, bool) {
	key, err := Key(spec)
	if err != nil {
		s.countLookup(false, false)
		return nil, false
	}
	raw, cold, ok := s.get(key)
	var res *distsgd.Result
	if ok {
		res = new(distsgd.Result)
		ok = json.Unmarshal(raw, res) == nil
	}
	s.countLookup(ok, cold)
	if !ok {
		return nil, false
	}
	return res, true
}

// Save implements scenario.ResultStore: it appends one record to the
// file (when backed by one) and indexes it. The stored spec is the
// canonical form, so reloads re-derive the same key.
func (s *Store) Save(spec scenario.Spec, res *distsgd.Result) error {
	raw, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w: %w", err, ErrStore)
	}
	c, key, err := identify("", spec, "")
	if err != nil {
		return fmt.Errorf("keying spec: %w", err)
	}
	return s.appendRecord(record{Key: key, Version: Version, Spec: c, Result: raw})
}

// appendRecord writes one validated record to the file (when backed by
// one) and indexes it, stamping the active kernel order family into
// the record's informational Kernel field.
func (s *Store) appendRecord(rec record) error {
	if rec.Kernel == "" {
		rec.Kernel = vec.KernelOrder()
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encoding record: %w: %w", err, ErrStore)
	}
	line = append(line, '\n')

	id := idOf(rec.Key)
	// Cell callers hand over bytes they encoded themselves or that passed
	// the canonical check, so the entry is born verified (aux payloads
	// never meet that check).
	e := entry{raw: rec.Result, verified: true}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.file != nil {
		if _, err := s.file.Write(line); err != nil {
			// A failed append may have left a torn fragment; roll the
			// file back to the last good record so a later successful
			// Save cannot fuse with it (which would silently lose THAT
			// record on the next Open). If even the rollback fails, the
			// file is unusable — drop to memory-only so persistence
			// errors stay loud but hits keep working.
			if terr := s.rollbackTo(s.offset); terr != nil {
				s.file.Close()
				s.file = nil
				return fmt.Errorf("appending to %s: %w (rollback failed: %v; store is memory-only now): %w", s.path, err, terr, ErrStore)
			}
			return fmt.Errorf("appending to %s: %w: %w", s.path, err, ErrStore)
		}
		e.off, e.n, e.durable = s.offset, int32(len(line)), true
		s.offset += int64(len(line))
		s.tailRecords++
		if s.backend != nil {
			s.tailKeys = append(s.tailKeys, id)
		}
	}
	s.setLocked(id, e)
	s.stats.Saves++
	// The record is durable; sealing is opportunistic on top of it — a
	// failed seal leaves the tail to keep growing and the next append
	// (or an explicit Seal) retries.
	if s.backend != nil && s.offset >= s.sealBytes {
		_ = s.sealLocked()
	}
	return nil
}

// rollbackTo truncates the file to offset and repositions the append
// cursor there. Callers hold s.mu.
func (s *Store) rollbackTo(offset int64) error {
	if err := s.file.Truncate(offset); err != nil {
		return err
	}
	_, err := s.file.Seek(offset, io.SeekStart)
	return err
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.index)
	st.Segments = len(s.segments)
	st.Superseded = s.segRecords + s.tailRecords - s.durableKeys
	return st
}

// Path returns the backing file path ("" for in-memory stores).
func (s *Store) Path() string { return s.path }

// Close releases the backing file (a no-op for in-memory stores). The
// store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.file == nil {
		return nil
	}
	err := s.file.Close()
	s.file = nil
	return err
}
