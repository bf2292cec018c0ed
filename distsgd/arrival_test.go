package distsgd

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"krum/attack"
	"krum/internal/arrival"
)

// stableBytes encodes a Result through the store's stable JSON
// serialization — the strongest equality the repo has (bit-level for
// every float, including FinalParams' IEEE-754 payloads).
func stableBytes(t *testing.T, r *Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunArrivalSyncByteIdentical is the tentpole differential: the
// async machinery configured with arrival "sync" (or any τ = 0 spec,
// which the registry canonicalizes to Sync) produces byte-identical
// results to the legacy synchronous path, with and without the
// incremental cache — the new axis cannot silently perturb any stored
// result. The config exercises every moving part the async path
// touches: a stateful RNG attack, selection tracking, and periodic
// evaluation.
func TestRunArrivalSyncByteIdentical(t *testing.T) {
	base := quickConfig(t)
	base.Attack = attack.Gaussian{Sigma: 200}
	base.Rounds = 30
	base.EvalEvery = 10
	base.TrackSelection = true

	for _, incremental := range []bool{false, true} {
		legacy := base
		legacy.Incremental = incremental
		want, err := Run(legacy)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes := stableBytes(t, want)
		for _, spec := range []string{"sync", "bounded(tau=0)", "bernoulli(p=0.5,tau=0)"} {
			async := legacy
			async.ArrivalSpec = spec
			got, err := Run(async)
			if err != nil {
				t.Fatalf("arrival %q: %v", spec, err)
			}
			if !bytes.Equal(stableBytes(t, got), wantBytes) {
				t.Errorf("incremental=%v arrival=%q: result bytes differ from the synchronous path", incremental, spec)
			}
		}
	}
}

// TestRunAsyncIncrementalBitIdentical extends the PR-3 cache contract
// to asynchronous traffic: under a bernoulli arrival process the
// cached run is bit-identical to the uncached one, while actually
// taking the incremental path (row updates observed, fewer builds
// than rounds) — async replay is exactly the steady-state partial-
// update workload the cache was built for.
func TestRunAsyncIncrementalBitIdentical(t *testing.T) {
	t.Parallel()
	base := quickConfig(t)
	base.Attack = attack.Gaussian{Sigma: 200}
	base.Rounds = 40
	base.EvalEvery = 10
	base.TrackSelection = true
	base.ArrivalSpec = "bernoulli(p=0.4,tau=6)"

	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	inc := base
	inc.Incremental = true
	cached, err := Run(inc)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Stats.RowUpdates == 0 {
		t.Error("async incremental run never recomputed a row: cache path not exercised")
	}
	if got := cached.Stats.Builds; got >= uint64(base.Rounds) {
		t.Errorf("async incremental run built %d matrices over %d rounds: cache never reused", got, base.Rounds)
	}
	if !bytes.Equal(stableBytes(t, plain), stableBytes(t, cached)) {
		t.Error("async result bytes differ between incremental and full recompute")
	}
}

// TestRunAsyncRowUpdateCountMatchesTrace audits the honest change-set
// property: over a full async run with a distance-consuming rule, the
// run's Stats.RowUpdates equals the sum of the arrival process's
// changed-worker counts on exactly the rounds where the cache takes the
// incremental path (0 < changed < n after the cold start), and
// Stats.Builds accounts for the rest. The expected trace is replayed
// independently via arrival.Process.NewTrace — the same pure function
// of (Seed, N) the engine used.
func TestRunAsyncRowUpdateCountMatchesTrace(t *testing.T) {
	t.Parallel()
	cfg := quickConfig(t)
	cfg.Rounds = 50
	cfg.EvalEvery = 0
	cfg.Incremental = true
	cfg.ArrivalSpec = "bernoulli(p=0.4,tau=6)"

	proc, err := arrival.Parse(cfg.ArrivalSpec)
	if err != nil {
		t.Fatal(err)
	}
	tr := proc.NewTrace(cfg.Seed, cfg.N)
	var wantRows, wantBuilds uint64
	for round := 0; round < cfg.Rounds; round++ {
		c := len(tr.Next())
		switch {
		case round == 0 || c >= cfg.N:
			wantBuilds++
		case c > 0:
			wantRows += uint64(c)
		}
	}

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatal("run diverged; the audit assumes all rounds executed")
	}
	if got := res.Stats.RowUpdates; got != wantRows {
		t.Errorf("row updates = %d, want %d (sum of arrival change-sets)", got, wantRows)
	}
	if got := res.Stats.Builds; got != wantBuilds {
		t.Errorf("matrix builds = %d, want %d (cold start + full-arrival rounds)", got, wantBuilds)
	}
}

// TestRunAsyncDiffersFromSync is the sanity complement of the
// differential: a genuinely asynchronous process (τ > 0 with real
// straggling) must NOT reproduce the synchronous result — otherwise
// the axis is dead and every async cell would waste a store slot.
func TestRunAsyncDiffersFromSync(t *testing.T) {
	base := quickConfig(t)
	base.Rounds = 30
	sync, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	async := base
	async.ArrivalSpec = "bounded(tau=3)"
	stale, err := Run(async)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(sync.FinalParams, stale.FinalParams) {
		t.Error("bounded(tau=3) produced identical FinalParams to the synchronous run")
	}
}

// TestRunAsyncDamped: Kardam damping changes the trajectory relative
// to pure replay, and the damped run keeps the incremental-cache
// bit-identity contract (damping declares the full change-set, so the
// cache rebuilds instead of serving stale rows).
func TestRunAsyncDamped(t *testing.T) {
	base := quickConfig(t)
	base.Rounds = 30
	base.ArrivalSpec = "bounded(tau=3)"
	replay, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	damped := base
	damped.ArrivalSpec = "bounded(tau=3,damp=0.5)"
	d1, err := Run(damped)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(replay.FinalParams, d1.FinalParams) {
		t.Error("damp=0.5 produced identical FinalParams to pure replay")
	}
	dampedInc := damped
	dampedInc.Incremental = true
	d2, err := Run(dampedInc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stableBytes(t, d1), stableBytes(t, d2)) {
		t.Error("damped result bytes differ between incremental and full recompute")
	}
}

// TestRunBadArrivalSpec: a malformed arrival spec is rejected up front
// with the registry's sentinel.
func TestRunBadArrivalSpec(t *testing.T) {
	cfg := quickConfig(t)
	cfg.ArrivalSpec = "bounded(tau=-1)"
	if _, err := Run(cfg); !errors.Is(err, arrival.ErrBadArrival) {
		t.Fatalf("error = %v, want ErrBadArrival", err)
	}
}
