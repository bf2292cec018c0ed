package store

// The off-heap index: records in sealed segments are indexed by
// location and digest and read back on a hit. These tests pin that a
// cold hit is the resident hit byte for byte (through seal, compaction
// and reopen), that bytes altered on disk after Open are never served,
// that a record replayed from disk meets the canonical check on its
// first single-flight hit, that the heap stays bounded by the tail, and
// — as a seeded property over save / seal / compact / reopen — that
// every lookup answers with the bytes last saved, whichever store kind
// holds them.

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"krum/distsgd"
	"krum/scenario"
)

// errMustHit is what hitRaw's compute returns: reaching it means the
// store missed.
var errMustHit = errors.New("the store was expected to hit")

// hitRaw returns the bytes the single-flight serves for spec, failing
// the test if it would compute instead.
func hitRaw(t *testing.T, st *Store, spec scenario.Spec) json.RawMessage {
	t.Helper()
	raw, shared, storeErr, runErr := st.DoCellRaw(spec, func() (json.RawMessage, error) { return nil, errMustHit })
	if runErr != nil || storeErr != nil || !shared {
		t.Fatalf("%s: shared=%v storeErr=%v runErr=%v, want a hit", spec.Label(), shared, storeErr, runErr)
	}
	return raw
}

// mustMarshal is json.Marshal for values that cannot fail.
func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestColdHitByteIdentical: the same key answers with the same bytes
// while its record is resident in the tail, after the tail sealed,
// after compaction moved the line, and after a reopen — on both read
// paths (single-flight and typed Lookup) — and the cold answers are
// counted.
func TestColdHitByteIdentical(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	const cells = 4
	want := make([]json.RawMessage, cells)
	for i := range want {
		want[i] = mustMarshal(t, fakeResult(i))
	}
	saveAll := func() {
		t.Helper()
		for i := 0; i < cells; i++ {
			if err := st.Save(seededSpec(i), fakeResult(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(stage string, cold bool) {
		t.Helper()
		before := st.Stats()
		for i := 0; i < cells; i++ {
			if got := hitRaw(t, st, seededSpec(i)); !bytes.Equal(got, want[i]) {
				t.Errorf("%s: cell %d served %s, want %s", stage, i, got, want[i])
			}
			if got := lookupEncoded(t, st, seededSpec(i)); got != string(want[i]) {
				t.Errorf("%s: typed lookup of cell %d re-encodes to %s", stage, i, got)
			}
		}
		after := st.Stats()
		reads, wantCold := 2*cells, 0
		if cold {
			wantCold = reads
		}
		if after.Hits-before.Hits != reads || after.ColdReads-before.ColdReads != wantCold || after.Tampered != 0 {
			t.Errorf("%s: %d hits, %d cold reads, %d tampered; want %d, %d, 0", stage,
				after.Hits-before.Hits, after.ColdReads-before.ColdReads, after.Tampered, reads, wantCold)
		}
	}

	saveAll()
	check("resident in the tail", false)
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	check("sealed", true)
	for id, e := range st.index {
		if e.raw != nil || e.seg == "" {
			t.Errorf("after the seal %x is still resident", id)
		}
	}

	// A second segment with a duplicate of every key, so compaction has
	// lines to drop and every survivor moves.
	saveAll()
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if segs := st.Segments(); len(segs) != 1 {
		t.Fatalf("segments after compaction: %v", segs)
	}
	check("compacted", true)

	st.Close()
	if st, err = OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	check("reopened", true)
}

// TestColdReadRejectsBytesAlteredAfterOpen: a sealed segment passes the
// whole-segment hash at Open and is then edited on disk — one record's
// result payload and another's spec, both in place. None of the edited records is ever served: each cold read
// counts Tampered and drops the entry, the cell recomputes and its
// fresh record heals the key. The untouched record of the same segment
// keeps hitting.
func TestColdReadRejectsBytesAlteredAfterOpen(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Save(seededSpec(i), fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if st, err = OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Stats(); got.Entries != 3 || got.Tampered != 0 || got.Segments != 1 {
		t.Fatalf("fixture drifted: %s", got)
	}

	segPath := filepath.Join(dir, st.Segments()[0])
	blob, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	edits := 0
	edit := func(old, new string) {
		t.Helper()
		if len(old) != len(new) || bytes.Count(blob, []byte(old)) != 1 {
			t.Fatalf("edit %q → %q is not one in-place replacement", old, new)
		}
		blob = bytes.Replace(blob, []byte(old), []byte(new), 1)
		edits++
	}
	edit(`"final_test_loss":0}`, `"final_test_loss":9}`) // cell 0: the result payload (still canonical)
	edit(`"seed":1001,`, `"seed":1009,`)                 // cell 1: the spec
	if err := os.WriteFile(segPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	healed := mustMarshal(t, fakeResult(100))
	computes := 0
	raw, shared, storeErr, runErr := st.DoCellRaw(seededSpec(0), func() (json.RawMessage, error) {
		computes++
		return healed, nil
	})
	if shared || computes != 1 || storeErr != nil || runErr != nil || !bytes.Equal(raw, healed) {
		t.Fatalf("altered payload: shared=%v computes=%d storeErr=%v runErr=%v raw=%s; want one recompute", shared, computes, storeErr, runErr, raw)
	}
	if got := hitRaw(t, st, seededSpec(0)); !bytes.Equal(got, healed) {
		t.Errorf("after healing, cell 0 serves %s", got)
	}
	if _, ok := st.Lookup(seededSpec(1)); ok {
		t.Error("a record whose spec was altered on disk was served")
	}
	altered := seededSpec(1)
	altered.Seed = 1009
	if _, ok := st.Lookup(altered); ok {
		t.Error("the altered spec's own key was served")
	}
	if got := hitRaw(t, st, seededSpec(2)); !bytes.Equal(got, mustMarshal(t, fakeResult(2))) {
		t.Errorf("the untouched record serves %s", got)
	}
	if got := st.Stats(); got.Tampered != edits || got.Entries != 2 || got.Superseded != 0 {
		t.Errorf("after %d edits: %s; want %d tampered, the healed and the untouched entry, no superseded debt", edits, got, edits)
	}

	// The next Open rejects the edited segment wholesale; what healed
	// lives in the tail and survives.
	st.Close()
	if st, err = OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.Entries != 1 || got.Tampered != 1 {
		t.Errorf("reopened: %s; want the healed entry and one tampered segment", got)
	}
	if got := hitRaw(t, st, seededSpec(0)); !bytes.Equal(got, healed) {
		t.Errorf("reopened, cell 0 serves %s", got)
	}
}

// TestReplayedRecordMeetsCanonicalCheckOnFirstHit: records this process
// appended are born verified; a record replayed from disk — here from a
// hand-assembled sealed segment, so Open's hash and key checks all pass
// — is put through scenario.CanonicalResult by its first single-flight
// hit, once. A payload that fails is a miss that recomputes and heals,
// exactly as an undecodable index entry always was.
func TestReplayedRecordMeetsCanonicalCheckOnFirstHit(t *testing.T) {
	dir := t.TempDir()
	good := mustMarshal(t, fakeResult(1))
	payloads := []json.RawMessage{
		good,
		json.RawMessage(`{"final_params_b64":"%%%not-base64%%%"}`), // does not decode
		json.RawMessage(`{"garbage":1}`),                           // decodes to a zero Result, re-encodes differently
	}
	var blob []byte
	for i, payload := range payloads {
		c, key, err := identify(seededSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		blob = append(append(blob, mustMarshal(t, record{Key: key, Version: Version, Spec: c, Result: payload})...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(1, blob)), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Stats(); got.Entries != len(payloads) || got.SkippedRecords != 0 {
		t.Fatalf("fixture drifted: %s", got)
	}
	for id, e := range st.index {
		if e.verified {
			t.Errorf("replayed record %x is verified before any hit", id)
		}
	}

	for pass := 0; pass < 2; pass++ {
		if got := hitRaw(t, st, seededSpec(0)); !bytes.Equal(got, good) {
			t.Fatalf("pass %d: the canonical record serves %s", pass, got)
		}
	}
	key0, _ := Key(seededSpec(0))
	if e := st.index[idOf(key0)]; !e.verified || e.seg == "" {
		t.Errorf("after its first hit the canonical record is %+v, want verified and still cold", e)
	}

	for i := 1; i < len(payloads); i++ {
		healed := mustMarshal(t, fakeResult(50+i))
		computes := 0
		raw, shared, storeErr, runErr := st.DoCellRaw(seededSpec(i), func() (json.RawMessage, error) {
			computes++
			return healed, nil
		})
		if shared || computes != 1 || storeErr != nil || runErr != nil || !bytes.Equal(raw, healed) {
			t.Fatalf("payload %d: shared=%v computes=%d storeErr=%v runErr=%v; want one recompute", i, shared, computes, storeErr, runErr)
		}
		if got := hitRaw(t, st, seededSpec(i)); !bytes.Equal(got, healed) {
			t.Errorf("payload %d: after healing serves %s", i, got)
		}
	}
	if got := st.Stats(); got.Tampered != 0 || got.Saves != 2 {
		t.Errorf("after healing: %s; want 2 saves and nothing counted as tampering", got)
	}
}

// TestReplayedRecordLookupMeetsCanonicalCheck: the typed Lookup admits
// a replayed payload by the single-flight's rule. A tail record whose
// key checks out but whose result is not canonical — here a case-folded
// field and an unknown one, which encoding/json would read as accuracy
// 0.99 with no parameters — is a miss and is dropped, so the cell
// recomputes; a canonical record is served and marked verified.
func TestReplayedRecordLookupMeetsCanonicalCheck(t *testing.T) {
	dir := t.TempDir()
	good := mustMarshal(t, fakeResult(0))
	var tail []byte
	for i, payload := range []json.RawMessage{good, json.RawMessage(`{"history":[],"Final_Test_Accuracy":0.99,"extra":1}`)} {
		c, key, err := identify(seededSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		tail = append(append(tail, mustMarshal(t, record{Key: key, Version: Version, Spec: c, Result: payload})...), '\n')
	}
	if err := os.WriteFile(tailPathOf(dir), tail, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if res, ok := st.Lookup(seededSpec(1)); ok {
		t.Fatalf("Lookup served the non-canonical record as %+v", *res)
	}
	if got := st.Stats(); got.Entries != 1 || got.Misses != 1 || got.Hits != 0 {
		t.Errorf("after the refused lookup: %s; want the record dropped and one miss", got)
	}
	res, ok := st.Lookup(seededSpec(0))
	if !ok || !bytes.Equal(mustMarshal(t, res), good) {
		t.Fatalf("the canonical record: ok=%v", ok)
	}
	key0, _ := Key(seededSpec(0))
	if !st.index[idOf(key0)].verified {
		t.Error("a canonical record served by Lookup is not marked verified")
	}
	computes := 0
	if _, shared, _, _ := st.DoCellRaw(seededSpec(1), func() (json.RawMessage, error) {
		computes++
		return mustMarshal(t, fakeResult(1)), nil
	}); shared || computes != 1 {
		t.Errorf("the dropped cell: shared=%v computes=%d; want one recompute", shared, computes)
	}
}

// TestDroppedTailRecordStaysDroppedAcrossSeal: a replayed tail record
// that failed the canonical check and was not healed (its recompute
// failed) is gone from the index; the seal that later turns the tail's
// entries cold must not bring it back.
func TestDroppedTailRecordStaysDroppedAcrossSeal(t *testing.T) {
	dir := t.TempDir()
	var tail []byte
	for i, payload := range []json.RawMessage{mustMarshal(t, fakeResult(0)), json.RawMessage(`{"garbage":1}`)} {
		c, key, err := identify(seededSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		tail = append(append(tail, mustMarshal(t, record{Key: key, Version: Version, Spec: c, Result: payload})...), '\n')
	}
	if err := os.WriteFile(tailPathOf(dir), tail, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	failing := func() (json.RawMessage, error) { return nil, errMustHit }
	if _, shared, _, runErr := st.DoCellRaw(seededSpec(1), failing); shared || !errors.Is(runErr, errMustHit) {
		t.Fatalf("the garbage record: shared=%v err=%v, want a miss", shared, runErr)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.Entries != 1 || got.Superseded != 0 || got.Tampered != 0 {
		t.Errorf("after the seal: %s; want only the canonical record", got)
	}
	if _, shared, _, runErr := st.DoCellRaw(seededSpec(1), failing); shared || !errors.Is(runErr, errMustHit) {
		t.Errorf("after the seal the garbage record: shared=%v err=%v, want a miss", shared, runErr)
	}
	if got := hitRaw(t, st, seededSpec(0)); !bytes.Equal(got, mustMarshal(t, fakeResult(0))) {
		t.Errorf("the canonical record serves %s", got)
	}
}

// TestColdIndexConcurrent drives one segmented store from several
// goroutines at once — a writer whose saves keep sealing the tail, a
// compactor, and readers on all three read paths — and requires every
// read of a key already saved to answer with that key's bytes: entries
// turning cold or moving between segments under a reader's feet must
// never surface as a miss, a wrong answer or a tamper count. It is the
// race detector's window onto the index.
func TestColdIndexConcurrent(t *testing.T) {
	st, err := openSealAt(t.TempDir(), 1500)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const (
		keys    = 120
		readers = 4
	)
	var saved atomic.Int64 // keys below this are in the store
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < keys; k++ {
			if err := st.Save(seededSpec(k), fakeResult(k)); err != nil {
				t.Error(err)
				return
			}
			saved.Store(int64(k + 1))
			if k%3 == 0 { // supersede an older key with the same bytes
				if err := st.Save(seededSpec(k/2), fakeResult(k/2)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for saved.Load() < keys {
			if err := st.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(r), 24))
			for n := saved.Load(); n < keys; n = saved.Load() {
				if n == 0 {
					runtime.Gosched()
					continue
				}
				k := rng.IntN(int(n))
				want := mustMarshal(t, fakeResult(k))
				if r%2 == 0 {
					raw, shared, _, runErr := st.DoCellRaw(seededSpec(k), func() (json.RawMessage, error) { return nil, errMustHit })
					if !shared || runErr != nil || !bytes.Equal(raw, want) {
						t.Errorf("cell %d: shared=%v err=%v raw=%s", k, shared, runErr, raw)
						return
					}
				} else if res, ok := st.Lookup(seededSpec(k)); !ok || !bytes.Equal(mustMarshal(t, res), want) {
					t.Errorf("cell %d: typed lookup hit=%v", k, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := st.Stats(); got.Tampered != 0 || got.Entries != keys || got.ColdReads == 0 {
		t.Errorf("afterwards: %s; want %d entries, cold reads, nothing tampered", got, keys)
	}
}

// cellSizedResult encodes to about 2.9 KB — the size of a grid_small
// cell's result, the unit the service benchmark stores by the thousand.
func cellSizedResult(tag int) *distsgd.Result {
	res := &distsgd.Result{FinalParams: make([]float64, 30), FinalTestAccuracy: 0.5, Kernel: "pair2"}
	for r := 0; r < 18; r++ {
		res.History = append(res.History, distsgd.RoundStats{
			Round: r, TrainLoss: 1 / float64(tag+r+3), UpdateNorm: 1 / float64(tag+r+7), LearningRate: 1 / float64(r+11),
		})
	}
	return res
}

// TestColdIndexHeapBound: after 6 000 saves of a 2.9 KB result (19 MB
// of records) a default OpenDir store holds the tail's results plus an
// index entry per record — under SealBytes + 1 MB of heap, where
// keeping every result resident took the full 19 MB.
func TestColdIndexHeapBound(t *testing.T) {
	if testing.Short() {
		t.Skip("6 000 keyed saves")
	}
	const saves = 6000
	if n := len(mustMarshal(t, cellSizedResult(0))); n < 2800 || n > 3000 {
		t.Fatalf("fixture drifted: a result encodes to %d bytes, want about 2.9 KB", n)
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	// Whatever the keying path memoizes is allocated before the baseline.
	if _, err := Key(seededSpec(0)); err != nil {
		t.Fatal(err)
	}
	before := heap()
	st, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < saves; i++ {
		if err := st.Save(seededSpec(i), cellSizedResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	grown := int64(heap()) - int64(before)
	stats := st.Stats()
	t.Logf("%d saves, %s: heap grew %.1f MB", saves, stats, float64(grown)/(1<<20))
	if stats.Entries != saves || stats.Seals < 4 {
		t.Fatalf("fixture drifted: %s", stats)
	}
	if limit := int64(sealBytes + 1<<20); grown > limit {
		t.Errorf("heap grew %d bytes over %d saves, want at most SealBytes + 1 MB = %d", grown, saves, limit)
	}
	// Spot-check that what left the heap still answers.
	for _, i := range []int{0, saves / 2, saves - 1} {
		if got := hitRaw(t, st, seededSpec(i)); !bytes.Equal(got, mustMarshal(t, cellSizedResult(i))) {
			t.Errorf("cell %d serves %s", i, got)
		}
	}
	runtime.KeepAlive(st)
}

// TestLookupsAnswerLastSavedBytes is the model-based property: a seeded
// sequence of saves (over a small key pool so keys repeat and
// supersede), seals, compactions and reopens runs against both
// store kinds, and after every step every key answers with exactly the
// bytes last saved under it — or misses if none were. Seal, Compact and
// reopen are meaningless in memory and skipped there, so the in-memory
// store doubles as the reference the directory one must equal.
func TestLookupsAnswerLastSavedBytes(t *testing.T) {
	const (
		keys  = 7
		steps = 400
	)
	base := t.TempDir()
	kinds := []struct {
		name      string
		open      func() (*Store, error)
		segmented bool
	}{
		{"segmented", func() (*Store, error) { return openSealAt(filepath.Join(base, "seg"), 2000) }, true},
		{"in-memory", func() (*Store, error) { return NewMemory(), nil }, false},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(24, 933067))
			st, err := kind.open()
			if err != nil {
				t.Fatal(err)
			}
			defer func() { st.Close() }()
			cells := make(map[int]json.RawMessage) // the model
			for step := 0; step < steps; step++ {
				switch op := rng.IntN(20); {
				case op < 14:
					k, tag := rng.IntN(keys), rng.IntN(1<<20)
					if err := st.Save(seededSpec(k), fakeResult(tag)); err != nil {
						t.Fatal(err)
					}
					cells[k] = mustMarshal(t, fakeResult(tag))
				case op < 16 && kind.segmented:
					if err := st.Seal(); err != nil {
						t.Fatal(err)
					}
				case op < 18 && kind.segmented:
					if err := st.Compact(); err != nil {
						t.Fatal(err)
					}
				case op < 20 && kind.segmented:
					st.Close()
					if st, err = kind.open(); err != nil {
						t.Fatal(err)
					}
				}
				for k := 0; k < keys; k++ {
					raw, shared, _, runErr := st.DoCellRaw(seededSpec(k), func() (json.RawMessage, error) { return nil, errMustHit })
					if want, saved := cells[k]; saved != shared || (saved && !bytes.Equal(raw, want)) || (!saved && !errors.Is(runErr, errMustHit)) {
						t.Fatalf("step %d, cell %d: shared=%v err=%v raw=%s, model has %s", step, k, shared, runErr, raw, want)
					}
				}
				if stats := st.Stats(); stats.Tampered != 0 || stats.Entries != len(cells) ||
					(!kind.segmented && stats.ColdReads != 0) {
					t.Fatalf("step %d: %s with %d keys in the model", step, stats, len(cells))
				}
			}
			if kind.segmented {
				if stats := st.Stats(); stats.ColdReads == 0 {
					t.Errorf("the sequence never read a sealed record: %s", stats)
				}
			}
		})
	}
}
