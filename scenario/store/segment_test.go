package store

// Segmented-store coverage: the seal → compact → Open round-trip must
// serve bit-for-bit what a store that never sealed serves, and every
// crash window at a segment boundary — torn tail before a seal, torn
// tail after a seal, a seal that published its segment but died before
// truncating the tail — must resolve by today's rules: torn tails
// dropped, duplicates last-write-wins, tampered segments skipped
// wholesale.

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"krum/distsgd"
	"krum/scenario"
)

// seededSpec is quickSpec with a distinct seed — one distinct store
// key per i.
func seededSpec(i int) scenario.Spec {
	s := quickSpec()
	s.Seed = uint64(1000 + i)
	return s
}

// fakeResult builds a small synthetic result whose stable encoding is
// recognizably tied to tag — cheap stand-ins for trained cells.
func fakeResult(tag int) *distsgd.Result {
	return &distsgd.Result{
		History:           []distsgd.RoundStats{{Round: 0, TrainLoss: float64(tag)}},
		FinalParams:       []float64{float64(tag), 2, 3},
		FinalTestAccuracy: 0.5,
		FinalTestLoss:     float64(tag) / 7,
	}
}

// lookupEncoded returns the stable encoding of a stored cell, failing
// the test on a miss.
func lookupEncoded(t *testing.T, st *Store, s scenario.Spec) string {
	t.Helper()
	res, ok := st.Lookup(s)
	if !ok {
		t.Fatalf("lookup miss for %s", s.Label())
	}
	return encode(t, res)
}

// tailPathOf is the live tail location of an OpenDir store.
func tailPathOf(dir string) string { return filepath.Join(dir, "tail.jsonl") }

// openSealAt is OpenDir with the tail sealing at sealAt bytes instead
// of sealBytes, so a test decides where segment boundaries fall.
func openSealAt(dir string, sealAt int64) (*Store, error) {
	st, err := OpenDir(dir)
	if err == nil {
		st.sealAt = sealAt
	}
	return st, err
}

// TestSegmentedRoundTripMatchesUnsealed is the round-trip criterion:
// the same save sequence — including duplicate keys — lands in a store that never seals (every record stays in its tail)
// and one that seals after every append; the sealing one is also
// compacted; after reopening both, every lookup is bit-for-bit
// identical across the two.
func TestSegmentedRoundTripMatchesUnsealed(t *testing.T) {
	base := t.TempDir()
	flatDir := filepath.Join(base, "unsealed")
	segDir := filepath.Join(base, "segmented")

	flat, err := OpenDir(flatDir)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := openSealAt(segDir, 1) // seal after every append
	if err != nil {
		t.Fatal(err)
	}

	const cells = 5
	save := func(st *Store) {
		t.Helper()
		for i := 0; i < cells; i++ {
			if err := st.Save(seededSpec(i), fakeResult(i)); err != nil {
				t.Fatal(err)
			}
		}
		// Duplicate key: cell 2 re-saved with different bytes — the
		// later write must win everywhere.
		if err := st.Save(seededSpec(2), fakeResult(777)); err != nil {
			t.Fatal(err)
		}
	}
	save(flat)
	save(seg)
	if got := seg.Stats().Seals; got == 0 {
		t.Fatalf("no seals happened at sealAt=1 (stats: %s)", seg.Stats())
	}
	if err := seg.Compact(); err != nil {
		t.Fatal(err)
	}
	flat.Close()
	seg.Close()

	flat2, err := OpenDir(flatDir)
	if err != nil {
		t.Fatal(err)
	}
	defer flat2.Close()
	seg2, err := OpenDir(segDir)
	if err != nil {
		t.Fatal(err)
	}
	defer seg2.Close()

	if f, s := flat2.Stats().Entries, seg2.Stats().Entries; f != s {
		t.Fatalf("entries diverge: unsealed %d, segmented %d", f, s)
	}
	for i := 0; i < cells; i++ {
		if a, b := lookupEncoded(t, flat2, seededSpec(i)), lookupEncoded(t, seg2, seededSpec(i)); a != b {
			t.Errorf("cell %d: segmented bytes differ from unsealed bytes", i)
		}
	}
	// The duplicate resolved last-write-wins in both worlds.
	if got := lookupEncoded(t, seg2, seededSpec(2)); got != encode(t, fakeResult(777)) {
		t.Error("segmented store served the superseded copy of cell 2")
	}
	// Compaction left exactly one sealed segment and zero sealed-side
	// superseded debt (the duplicate save collapsed).
	if st := seg2.Stats(); st.Segments != 1 || st.Superseded != 0 {
		t.Errorf("after compact + reopen: %s; want 1 segment, 0 superseded", st)
	}
}

// TestSegmentedTornTailBeforeSeal is the crash-during-append case on
// the segment-N side of a boundary: the append that would have crossed
// the seal threshold tears. Open must drop exactly the torn fragment,
// keep every sealed and intact record, and let the next seal proceed
// cleanly.
func TestSegmentedTornTailBeforeSeal(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDir(dir) // a few records, far below sealBytes: no auto-seal
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := st.Save(seededSpec(i), fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Tear the tail's final line mid-record.
	tail := tailPathOf(dir)
	blob, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(blob), "\n")
	torn := lines[0] + lines[1][:len(lines[1])/2]
	if err := os.WriteFile(tail, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	stats := st2.Stats()
	if stats.Entries != 1 || stats.DroppedTailBytes == 0 {
		t.Fatalf("after tear: %s; want 1 entry and a dropped tail", stats)
	}
	if _, ok := st2.Lookup(seededSpec(1)); ok {
		t.Error("torn record served")
	}
	// Sealing the survivor and re-saving the torn cell proceeds clean.
	if err := st2.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := st2.Save(seededSpec(1), fakeResult(1)); err != nil {
		t.Fatal(err)
	}
	if st := st2.Stats(); st.Entries != 2 || st.Segments != 1 {
		t.Errorf("after repair: %s; want 2 entries in 1 segment + tail", st)
	}
}

// TestSegmentedTornTailAfterSeal is the segment-N+1 side: the crash
// tears the FIRST record of the fresh tail right after a seal. The
// sealed segment must be untouched and the empty-after-truncation tail
// must keep appending cleanly.
func TestSegmentedTornTailAfterSeal(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := st.Save(seededSpec(i), fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(seededSpec(2), fakeResult(2)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Tear the tail's only record (the first after the seal) in half.
	tail := tailPathOf(dir)
	blob, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tail, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	stats := st2.Stats()
	if stats.Entries != 2 || stats.Segments != 1 || stats.DroppedTailBytes == 0 {
		t.Fatalf("after tear: %s; want the segment's 2 entries and a dropped tail", stats)
	}
	for i := 0; i < 2; i++ {
		if got := lookupEncoded(t, st2, seededSpec(i)); got != encode(t, fakeResult(i)) {
			t.Errorf("sealed cell %d served wrong bytes after boundary tear", i)
		}
	}
	if _, ok := st2.Lookup(seededSpec(2)); ok {
		t.Error("torn post-seal record served")
	}
	if err := st2.Save(seededSpec(2), fakeResult(2)); err != nil {
		t.Fatal(err)
	}
	if got := st2.Stats().Entries; got != 3 {
		t.Errorf("entries after repair = %d, want 3", got)
	}
}

// TestSegmentedTailCountedOnce pins the single-pass open: a store with
// a sealed segment replays its tail once, so a segment holding a good
// record and a tail holding a malformed line and a record keyed under
// the retired pair2 order report exactly that damage, once.
func TestSegmentedTailCountedOnce(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(seededSpec(0), fakeResult(0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	blob, err := os.ReadFile(tailPathOf(dir))
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, "not json\n"+pair2Line(t)...)
	if err := os.WriteFile(tailPathOf(dir), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if s := got.Stats(); s.Entries != 1 || s.Segments != 1 || s.SkippedRecords != 2 || s.Tampered != 1 || s.Superseded != 0 {
		t.Errorf("tail damage %s; want 1 entry in 1 segment, 2 skipped, 1 tampered, 0 superseded", s)
	}
}

// TestSegmentedCrashMidSeal exercises the publish-then-truncate
// window: the segment was published but the process died before the
// tail was emptied, so every record exists twice. Open must collapse
// the duplicates last-write-wins (identical bytes, so either copy
// serves the same result), report them as Superseded, and a
// seal + compact must clear the debt.
func TestSegmentedCrashMidSeal(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := st.Save(seededSpec(i), fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Replay the crash by hand: publish the tail bytes as segment 1
	// and leave the tail as-is — exactly what a death between
	// WriteSegment and Truncate leaves behind.
	tailBytes, err := os.ReadFile(tailPathOf(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := (dirBackend{dir: dir}).WriteSegment(segmentName(1, tailBytes), tailBytes); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	stats := st2.Stats()
	if stats.Entries != 2 || stats.Superseded != 2 {
		t.Fatalf("after mid-seal crash: %s; want 2 entries, 2 superseded", stats)
	}
	for i := 0; i < 2; i++ {
		if got := lookupEncoded(t, st2, seededSpec(i)); got != encode(t, fakeResult(i)) {
			t.Errorf("cell %d served wrong bytes after mid-seal crash", i)
		}
	}
	// Seal the duplicated tail and compact: the debt collapses to one
	// record per key and lookups are unchanged.
	if err := st2.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := st2.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := st2.Stats(); got.Superseded != 0 || got.Segments != 1 {
		t.Errorf("after seal+compact: %s; want 0 superseded in 1 segment", got)
	}
	st2.Close()

	st3, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	for i := 0; i < 2; i++ {
		if got := lookupEncoded(t, st3, seededSpec(i)); got != encode(t, fakeResult(i)) {
			t.Errorf("cell %d served wrong bytes after compaction reload", i)
		}
	}
}

// TestSegmentedDuplicatesStraddlingSegments writes three generations
// of one key across two sealed segments and the tail: replay order
// (segments by sequence, then tail) must resolve to the newest copy,
// Superseded must count the shadowed two, and compaction must drop the
// sealed-side duplicate while never touching which bytes the key
// serves.
func TestSegmentedDuplicatesStraddlingSegments(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := seededSpec(0)
	if err := st.Save(spec, fakeResult(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(spec, fakeResult(2)); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(spec, fakeResult(3)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	stats := st2.Stats()
	if stats.Entries != 1 || stats.Superseded != 2 || stats.Segments != 2 {
		t.Fatalf("straddling duplicates: %s; want 1 entry, 2 superseded, 2 segments", stats)
	}
	if got := lookupEncoded(t, st2, spec); got != encode(t, fakeResult(3)) {
		t.Error("lookup did not serve the newest generation")
	}
	// Compact merges the two sealed generations into one record; the
	// tail still shadows it, so one superseded copy legitimately
	// remains until the tail itself seals and compacts.
	if err := st2.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := st2.Stats(); got.Segments != 1 || got.Superseded != 1 {
		t.Errorf("after compact: %s; want 1 segment, 1 superseded (the tail copy)", got)
	}
	if got := lookupEncoded(t, st2, spec); got != encode(t, fakeResult(3)) {
		t.Error("compaction changed the served bytes")
	}
	st2.Close()

	st3, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if got := lookupEncoded(t, st3, spec); got != encode(t, fakeResult(3)) {
		t.Error("reload after compaction changed the served bytes")
	}
}

// TestSegmentedTamperedSegmentSkippedWholesale flips one byte inside a
// sealed segment: the name hash no longer matches, so the WHOLE
// segment is skipped (its cells recompute — never stale-serve), the
// damage is counted, and compaction removes the corpse from disk.
func TestSegmentedTamperedSegmentSkippedWholesale(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := st.Save(seededSpec(i), fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(seededSpec(2), fakeResult(2)); err != nil {
		t.Fatal(err)
	}
	segs := st.Segments()
	if len(segs) != 1 {
		t.Fatalf("segments = %v, want exactly 1", segs)
	}
	st.Close()

	// Flip a byte mid-segment. The record lines inside may even still
	// parse — the wholesale hash check must reject the blob regardless.
	segPath := filepath.Join(dir, segs[0])
	blob, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(segPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	stats := st2.Stats()
	if stats.Entries != 1 || stats.Tampered != 1 || stats.Segments != 0 {
		t.Fatalf("after tamper: %s; want only the tail's entry, 1 tampered, 0 live segments", stats)
	}
	for i := 0; i < 2; i++ {
		if _, ok := st2.Lookup(seededSpec(i)); ok {
			t.Errorf("cell %d served from a tampered segment", i)
		}
	}
	if got := lookupEncoded(t, st2, seededSpec(2)); got != encode(t, fakeResult(2)) {
		t.Error("tail record lost behind the tampered segment")
	}
	// The tampered cells recompute (here: re-save) and compaction
	// removes the corrupt blob from disk for good.
	for i := 0; i < 2; i++ {
		if err := st2.Save(seededSpec(i), fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st2.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := st2.Compact(); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	names, err := dirBackend{dir: dir}.ListSegments()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if name == segs[0] {
			t.Errorf("tampered segment %s still on disk after compaction", name)
		}
	}
	st3, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if got := st3.Stats(); got.Entries != 3 || got.Tampered != 0 {
		t.Errorf("after heal + compact: %s; want 3 entries, 0 tampered", got)
	}
}

// TestSegmentNameRoundTrip pins the self-verifying name scheme.
func TestSegmentNameRoundTrip(t *testing.T) {
	data := []byte("{\"key\":\"x\"}\n")
	name := segmentName(7, data)
	seq, _, ok := parseSegmentName(name)
	if !ok || seq != 7 {
		t.Fatalf("parseSegmentName(%q) = %d, %v", name, seq, ok)
	}
	if !verifySegment(name, data) {
		t.Fatal("freshly-named segment does not verify")
	}
	if verifySegment(name, append([]byte("x"), data...)) {
		t.Fatal("altered bytes still verify")
	}
	for _, bad := range []string{
		"seg-0000001-ffff.jsonl", // short seq, short hash
		"../" + name,             // path escape
		"tail.jsonl",             // the live tail is not a segment
		name + ".tmp",            // in-flight write
		"seg-abcdefgh-" + strings.Repeat("0", 64) + ".jsonl", // non-numeric seq
	} {
		if _, _, ok := parseSegmentName(bad); ok {
			t.Errorf("parseSegmentName accepted %q", bad)
		}
	}
}

// TestSegmentedAutoSeal pins the threshold trigger: with a tiny
// threshold every append seals, the tail stays bounded, and lookups
// are unaffected.
func TestSegmentedAutoSeal(t *testing.T) {
	dir := t.TempDir()
	st, err := openSealAt(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	const cells = 4
	for i := 0; i < cells; i++ {
		if err := st.Save(seededSpec(i), fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.Seals != cells || stats.Segments != cells {
		t.Fatalf("auto-seal: %s; want %d seals and %d segments", stats, cells, cells)
	}
	if fi, err := os.Stat(tailPathOf(dir)); err != nil || fi.Size() != 0 {
		t.Fatalf("tail not empty after sealing: size %v err %v", fi, err)
	}
	for i := 0; i < cells; i++ {
		if got := lookupEncoded(t, st, seededSpec(i)); got != encode(t, fakeResult(i)) {
			t.Errorf("cell %d wrong bytes after auto-seal", i)
		}
	}
	st.Close()

	st2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if err := st2.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := st2.Stats(); got.Segments != 1 || got.Entries != cells {
		t.Errorf("after compact: %s; want %d entries in 1 segment", got, cells)
	}
	for i := 0; i < cells; i++ {
		if got := lookupEncoded(t, st2, seededSpec(i)); got != encode(t, fakeResult(i)) {
			t.Errorf("cell %d wrong bytes after compact", i)
		}
	}
}

// faultyBackend is the directory backend with switchable failures of
// WriteSegment and Remove — the seam's stand-in for a full disk or a
// permission flip. failAfterWrite publishes the segment and then fails,
// as a directory sync that errors after the rename does.
type faultyBackend struct {
	dirBackend
	failWrite, failAfterWrite, failRemove bool
}

var errInjected = errors.New("injected backend fault")

func (b *faultyBackend) WriteSegment(name string, data []byte) error {
	if b.failWrite {
		return errInjected
	}
	if err := b.dirBackend.WriteSegment(name, data); err != nil || !b.failAfterWrite {
		return err
	}
	return errInjected
}

func (b *faultyBackend) Remove(name string) error {
	if b.failRemove {
		return errInjected
	}
	return b.dirBackend.Remove(name)
}

// openFaulty opens a store over dir through a faultyBackend.
func openFaulty(t *testing.T, dir string) (*Store, *faultyBackend) {
	t.Helper()
	b := &faultyBackend{dirBackend: dirBackend{dir: dir}}
	st, err := open(b, tailPathOf(dir))
	if err != nil {
		t.Fatal(err)
	}
	return st, b
}

// TestSegmentSealFailureRetries pins sealing's "the next append
// retries": a Save whose seal cannot publish still succeeds — the
// record is durable in the tail and a hit — while no seal is counted
// and the tail keeps growing; once the fault clears, one Seal publishes
// every record, and a reopen serves each with the bytes saved.
func TestSegmentSealFailureRetries(t *testing.T) {
	dir := t.TempDir()
	st, b := openFaulty(t, dir)
	st.sealAt = 1 // every append tries to seal
	b.failWrite = true
	const cells = 3
	var tail int64
	for i := 0; i < cells; i++ {
		if err := st.Save(seededSpec(i), fakeResult(i)); err != nil {
			t.Fatalf("save %d with a failing seal: %v", i, err)
		}
		if got := lookupEncoded(t, st, seededSpec(i)); got != encode(t, fakeResult(i)) {
			t.Errorf("cell %d served other bytes after a failed seal", i)
		}
		info, err := os.Stat(tailPathOf(dir))
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() <= tail {
			t.Errorf("save %d: tail %d bytes, was %d; want it growing", i, info.Size(), tail)
		}
		tail = info.Size()
	}
	if got := st.Stats(); got.Seals != 0 || got.Segments != 0 {
		t.Fatalf("after failed seals: %s; want 0 seals, 0 segments", got)
	}

	b.failWrite = false
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.Seals != 1 || got.Segments != 1 || got.Entries != cells {
		t.Fatalf("after the retry: %s; want 1 seal into 1 segment holding %d entries", got, cells)
	}
	st.Close()

	re, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Stats(); got.Entries != cells || got.Segments != 1 || got.Superseded != 0 {
		t.Errorf("reopen: %s; want %d entries in 1 segment, 0 superseded", got, cells)
	}
	for i := 0; i < cells; i++ {
		if got := lookupEncoded(t, re, seededSpec(i)); got != encode(t, fakeResult(i)) {
			t.Errorf("cell %d: reopened store serves other bytes", i)
		}
	}
}

// TestSegmentCompactRemoveFailure pins Compact's best-effort removal: a
// Remove that fails is reported, and every lookup — in the store and
// after a reopen, which replays the surviving inputs before the merged
// segment — still answers with the bytes last saved.
func TestSegmentCompactRemoveFailure(t *testing.T) {
	dir := t.TempDir()
	st, b := openFaulty(t, dir)
	saves := []int{0, 1, 0} // cell 0 re-saved, so the merge drops a copy
	for gen, i := range saves {
		if err := st.Save(seededSpec(i), fakeResult(10*gen+i)); err != nil {
			t.Fatal(err)
		}
		if err := st.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	want := map[int]string{0: encode(t, fakeResult(20)), 1: encode(t, fakeResult(11))}
	check := func(st *Store, when string) {
		t.Helper()
		for i, w := range want {
			if got := lookupEncoded(t, st, seededSpec(i)); got != w {
				t.Errorf("%s: cell %d serves other bytes", when, i)
			}
		}
	}
	check(st, "before compaction")

	b.failRemove = true
	if err := st.Compact(); !errors.Is(err, errInjected) {
		t.Fatalf("Compact with a failing Remove returned %v, want the injected fault", err)
	}
	check(st, "after the failed removal")
	st.Close()

	re, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check(re, "after reopen")
	if got := re.Stats(); got.Entries != len(want) || got.Tampered != 0 {
		t.Errorf("reopen: %s; want %d entries, 0 tampered", got, len(want))
	}
}

// TestSegmentHalfPublishedSealKeepsOrder: a seal whose segment was
// published although WriteSegment reported failure leaves its records
// in the tail, so the retry publishes them again next to newer ones.
// The retry must take a higher sequence — two segments on one sequence
// replay in name order, not append order — and a reopen must serve the
// newest copy of a key saved in between.
func TestSegmentHalfPublishedSealKeepsOrder(t *testing.T) {
	dir := t.TempDir()
	st, b := openFaulty(t, dir)
	b.failAfterWrite = true
	spec := seededSpec(0)
	if err := st.Save(spec, fakeResult(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); !errors.Is(err, errInjected) {
		t.Fatalf("half-published seal returned %v, want the injected fault", err)
	}
	b.failAfterWrite = false
	if err := st.Save(spec, fakeResult(2)); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	names, err := dirBackend{dir: dir}.ListSegments()
	if err != nil {
		t.Fatal(err)
	}
	seqs := make(map[int]bool)
	for _, name := range names {
		seq, _, _ := parseSegmentName(name)
		if seqs[seq] {
			t.Errorf("segments %v share sequence %d", names, seq)
		}
		seqs[seq] = true
	}
	re, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := lookupEncoded(t, re, spec); got != encode(t, fakeResult(2)) {
		t.Error("reopen served the copy saved before the retried seal")
	}
}
