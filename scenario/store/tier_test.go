package store

import (
	"testing"

	"krum/internal/vec"
)

// forceTier switches the active kernel tier for one test, restoring it
// on cleanup; it skips the test when the host CPU lacks the tier.
func forceTier(t *testing.T, tier vec.Tier) {
	t.Helper()
	if !vec.TierAvailable(tier) {
		t.Skipf("kernel tier %v not available on this CPU", tier)
	}
	restore, err := vec.SetKernelTier(tier)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restore)
}

// keyUnder computes quickSpec's store key with tier forced.
func keyUnder(t *testing.T, tier vec.Tier) string {
	t.Helper()
	forceTier(t, tier)
	key, err := Key(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestKeyKernelOrderSalt pins the key salting on the accumulation
// order: the fma4 order (avx2) produces a different key for the same
// spec than pair2 (go), so results computed under different rounding
// orders can never alias.
func TestKeyKernelOrderSalt(t *testing.T) {
	goKey := keyUnder(t, vec.TierGo)
	if !vec.TierAvailable(vec.TierAVX2) {
		t.Skip("no avx2 tier: cross-family key divergence untestable on this CPU")
	}
	if avxKey := keyUnder(t, vec.TierAVX2); avxKey == goKey {
		t.Errorf("avx2 key equals go key (%s); fma4 results would alias pair2 results", avxKey)
	}
}

// TestCrossOrderStoreMiss is the aliasing-impossible proof at the
// Lookup level: a result saved while one order family is active is a
// MISS under the other family (both directions), and a hit again once
// the original family is restored — exactly the Version-bump
// invalidation semantics, per order family.
func TestCrossOrderStoreMiss(t *testing.T) {
	if !vec.TierAvailable(vec.TierAVX2) {
		t.Skip("no avx2 tier: single order family on this CPU")
	}
	spec := quickSpec()

	// Compute and save under pair2.
	restore, err := vec.SetKernelTier(vec.TierGo)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restore)
	s := NewMemory()
	res := mustRun(t, spec)
	if err := s.Save(spec, res); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lookup(spec); !ok {
		t.Fatal("pair2 save not visible to pair2 lookup")
	}

	// Under fma4 the same spec must miss: the cached result's low bits
	// are pair2 rounding, which this process's kernels cannot reproduce.
	restoreAVX, err := vec.SetKernelTier(vec.TierAVX2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lookup(spec); ok {
		restoreAVX()
		t.Fatal("pair2-computed result served to an fma4 process; cross-order aliasing")
	}
	// And a fresh fma4 result saves under the fma4 key without
	// disturbing the pair2 entry.
	resAVX := mustRun(t, spec)
	if err := s.Save(spec, resAVX); err != nil {
		restoreAVX()
		t.Fatal(err)
	}
	got, ok := s.Lookup(spec)
	restoreAVX()
	if !ok {
		t.Fatal("fma4 save not visible to fma4 lookup")
	}
	if encode(t, got) != encode(t, resAVX) {
		t.Fatal("fma4 lookup returned different bytes than the fma4 save")
	}

	// Back under pair2 the original entry is served, bit for bit.
	got, ok = s.Lookup(spec)
	if !ok {
		t.Fatal("restoring the order family lost the original entry")
	}
	if encode(t, got) != encode(t, res) {
		t.Fatal("pair2 lookup after round trip returned different bytes than the pair2 save")
	}
	if st := s.Stats(); st.Entries != 2 {
		t.Fatalf("store holds %d entries, want 2 (one per order family)", st.Entries)
	}
}

// TestForeignFamilyRecordsSurviveCompaction pins the on-disk half of
// the cross-family story: a record written under one order family,
// read by a process running another, is classified FOREIGN (skipped
// but healthy — Stats.Foreign, never Stats.Tampered), and a Compact
// run by that other process merges it through instead of dropping it —
// a mixed-family fleet sharing one store directory cannot lose the
// other family's results to housekeeping.
func TestForeignFamilyRecordsSurviveCompaction(t *testing.T) {
	if !vec.TierAvailable(vec.TierAVX2) {
		t.Skip("no avx2 tier: single order family on this CPU")
	}
	dir := t.TempDir()
	spec := quickSpec()

	// Compute, save and seal under pair2.
	restore, err := vec.SetKernelTier(vec.TierGo)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restore)
	st, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, spec)
	if err := st.Save(spec, res); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Reopen under fma4: the pair2 record is foreign, not tampered, and
	// the spec misses.
	restoreAVX, err := vec.SetKernelTier(vec.TierAVX2)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := OpenDir(dir)
	if err != nil {
		restoreAVX()
		t.Fatal(err)
	}
	if s := st2.Stats(); s.Foreign != 1 || s.Tampered != 0 {
		restoreAVX()
		t.Fatalf("cross-family reopen: foreign=%d tampered=%d, want 1/0 (%s)", s.Foreign, s.Tampered, s)
	}
	if _, ok := st2.Lookup(spec); ok {
		restoreAVX()
		t.Fatal("pair2 record served to an fma4 process")
	}
	// Save this family's own result, seal, and compact: the merge runs
	// entirely under fma4 and must carry the pair2 record through.
	resAVX := mustRun(t, spec)
	if err := st2.Save(spec, resAVX); err != nil {
		restoreAVX()
		t.Fatal(err)
	}
	if err := st2.Seal(); err != nil {
		restoreAVX()
		t.Fatal(err)
	}
	if err := st2.Compact(); err != nil {
		restoreAVX()
		t.Fatal(err)
	}
	if s := st2.Stats(); s.Segments != 1 {
		restoreAVX()
		t.Fatalf("compaction left %d segments, want 1 (%s)", s.Segments, s)
	}
	st2.Close()
	restoreAVX()

	// Back under pair2 the original record survived the fma4 compaction
	// bit for bit, and now the fma4 record is the foreign one.
	st3, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	got, ok := st3.Lookup(spec)
	if !ok {
		t.Fatal("compaction under fma4 lost the pair2 record")
	}
	if encode(t, got) != encode(t, res) {
		t.Fatal("pair2 record changed bytes across an fma4 compaction")
	}
	if s := st3.Stats(); s.Foreign != 1 || s.Tampered != 0 {
		t.Fatalf("post-compaction reopen: foreign=%d tampered=%d, want 1/0 (%s)", s.Foreign, s.Tampered, s)
	}
}
