package store

import (
	"testing"

	"krum/scenario"
)

// mustKey hashes a spec, failing the test on canonicalization errors.
func mustKey(t *testing.T, s scenario.Spec) string {
	t.Helper()
	k, err := Key(s)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestKeyArrivalSyncAliases is the store-key level of the tentpole
// differential: every spelling of the synchronous arrival process —
// absent, "sync", any tau=0 spec, case/whitespace variants — hashes to
// the pre-arrival sync key, so stored synchronous results stay warm
// with no Version bump.
func TestKeyArrivalSyncAliases(t *testing.T) {
	base := quickSpec()
	want := mustKey(t, base)
	for _, arr := range []string{
		"sync", "SYNC", " sync ",
		"bounded(tau=0)", "bernoulli(p=0.5,tau=0)", "bounded(tau=0,damp=2)",
	} {
		s := base
		s.Arrival = arr
		if got := mustKey(t, s); got != want {
			t.Errorf("arrival %q: key %s differs from the sync key %s", arr, got, want)
		}
	}
}

// TestKeyAsyncDistinctFromSync: a genuinely asynchronous arrival is
// part of the cell identity — its key can never alias the synchronous
// cell or a differently-parameterized async cell.
func TestKeyAsyncDistinctFromSync(t *testing.T) {
	base := quickSpec()
	keys := map[string]string{"": mustKey(t, base)}
	for _, arr := range []string{
		"bounded(tau=1)", "bounded(tau=3)", "bounded(tau=3,damp=0.5)",
		"bernoulli(p=0.5,tau=8)", "bernoulli(p=0.25,tau=8)",
	} {
		s := base
		s.Arrival = arr
		k := mustKey(t, s)
		for prev, pk := range keys {
			if pk == k {
				t.Errorf("arrival %q aliases %q", arr, prev)
			}
		}
		keys[arr] = k
	}
}

// TestKeyArrivalSpellingVariants: async specs canonicalize through the
// registry, so parameter order, case and defaults collapse to one key.
func TestKeyArrivalSpellingVariants(t *testing.T) {
	base := quickSpec()
	a := base
	a.Arrival = "bernoulli(p=0.5,tau=8)"
	b := base
	b.Arrival = " Bernoulli ( tau = 8 ) " // p defaults to 0.5
	if mustKey(t, a) != mustKey(t, b) {
		t.Error("bernoulli spelling variants hash to different keys")
	}
}

// TestCanonicalArrivalIdempotent extends the store's idempotence
// contract to the fifth axis.
func TestCanonicalArrivalIdempotent(t *testing.T) {
	for _, arr := range []string{"", "sync", "bounded(tau=0)", "bounded(tau=3)", "bernoulli(tau=4)"} {
		s := quickSpec()
		s.Arrival = arr
		once, err := s.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		twice, err := once.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if once != twice {
			t.Errorf("arrival %q: Canonical not idempotent:\n%+v\n%+v", arr, once, twice)
		}
	}
}

// TestStoreAsyncHitByteIdentical: an async cell's stored result is
// served byte-identically on the second run — asynchrony does not
// weaken the store's core promise.
func TestStoreAsyncHitByteIdentical(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	s := quickSpec()
	s.Arrival = "bernoulli(p=0.5,tau=4)"
	s.Incremental = true
	cold := runCell(st, 0, s)
	if cold.Err != nil {
		t.Fatal(cold.Err)
	}
	warm := runCell(st, 0, s)
	if warm.Err != nil {
		t.Fatal(warm.Err)
	}
	if encode(t, cold.Result) != encode(t, warm.Result) {
		t.Error("warm async hit differs from cold run")
	}
	stats := st.Stats()
	if stats.Hits == 0 {
		t.Errorf("expected a store hit, stats = %+v", stats)
	}
}
