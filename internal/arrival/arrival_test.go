package arrival

import (
	"errors"
	"reflect"
	"testing"

	"krum/internal/vec"
)

// collect materializes rounds arrivals of a fresh trace.
func collect(p Process, seed uint64, n, rounds int) [][]int {
	tr := p.NewTrace(seed, n)
	out := make([][]int, rounds)
	for t := range out {
		out[t] = append([]int(nil), tr.Next()...)
	}
	return out
}

// TestSyncAllArriveEveryRound pins the degenerate process: every
// worker, every round.
func TestSyncAllArriveEveryRound(t *testing.T) {
	all := make([]int, 7)
	for i := range all {
		all[i] = i
	}
	for r, arr := range collect(Sync{}, 1, 7, 5) {
		if !reflect.DeepEqual(arr, all) {
			t.Fatalf("round %d: sync arrivals = %v, want all 7", r, arr)
		}
	}
}

// TestRoundZeroColdStart: every process starts with a full arrival
// round — there is nothing to replay yet.
func TestRoundZeroColdStart(t *testing.T) {
	for _, p := range []Process{
		Sync{},
		Bounded{TauBound: 3},
		Bernoulli{P: 0.1, TauBound: 9},
	} {
		arr := p.NewTrace(99, 11).Next()
		if len(arr) != 11 {
			t.Fatalf("%s: round 0 arrivals = %v, want all 11", p.Name(), arr)
		}
	}
}

// TestTauBoundNeverViolated is the core property test: over a sweep of
// processes and seeds, replayed staleness never exceeds τ, arrivals
// are strictly ascending, and Staleness agrees with an independently
// tracked last-arrival table.
func TestTauBoundNeverViolated(t *testing.T) {
	procs := []Process{
		Sync{},
		Bounded{TauBound: 1},
		Bounded{TauBound: 4},
		Bounded{TauBound: 7, Lambda: 0.5},
		Bernoulli{P: 0.05, TauBound: 3},
		Bernoulli{P: 0.3, TauBound: 8},
		Bernoulli{P: 0.9, TauBound: 1},
		Bernoulli{P: 1, TauBound: 6},
	}
	rng := vec.NewRNG(2026)
	for _, p := range procs {
		for trial := 0; trial < 8; trial++ {
			seed := rng.Uint64()
			n := 1 + rng.Intn(40)
			tr := p.NewTrace(seed, n)
			lastAt := make([]int, n)
			for round := 0; round < 200; round++ {
				arr := tr.Next()
				for k, i := range arr {
					if i < 0 || i >= n {
						t.Fatalf("%s n=%d: arrival index %d out of range", p.Name(), n, i)
					}
					if k > 0 && arr[k-1] >= i {
						t.Fatalf("%s n=%d round %d: arrivals %v not strictly ascending", p.Name(), n, round, arr)
					}
					lastAt[i] = round
				}
				for i := 0; i < n; i++ {
					s := round - lastAt[i]
					if s > p.Tau() {
						t.Fatalf("%s n=%d round %d: worker %d staleness %d exceeds tau %d",
							p.Name(), n, round, i, s, p.Tau())
					}
					if got := tr.Staleness(i); got != s {
						t.Fatalf("%s n=%d round %d: Staleness(%d) = %d, want %d",
							p.Name(), n, round, i, got, s)
					}
				}
			}
		}
	}
}

// TestTraceDeterminism: the trace is a pure function of (seed, n) —
// same inputs, same arrivals; for the RNG-backed family, different
// seeds give different traces.
func TestTraceDeterminism(t *testing.T) {
	p := Bernoulli{P: 0.4, TauBound: 6}
	a := collect(p, 42, 15, 60)
	b := collect(p, 42, 15, 60)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed, n) produced different traces")
	}
	c := collect(p, 43, 15, 60)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical bernoulli traces")
	}
}

// TestNextAllocatesNothing: a trace serves its rounds from the slice it
// minted with, so a synchronous training round costs no allocation for
// being the τ = 0 arrival process.
func TestNextAllocatesNothing(t *testing.T) {
	for _, p := range []Process{Sync{}, Bounded{TauBound: 3}, Bernoulli{P: 0.4, TauBound: 6}} {
		tr := p.NewTrace(9, 13)
		if allocs := testing.AllocsPerRun(50, func() { tr.Next() }); allocs != 0 {
			t.Errorf("%s: Next allocated %v times per round", p.Name(), allocs)
		}
	}
}

// TestBoundedRotation pins the staggered schedule: after the cold
// start, worker i arrives exactly at rounds with (t+i) ≡ 0 mod (τ+1),
// so every proposal hits staleness exactly τ before refresh.
func TestBoundedRotation(t *testing.T) {
	const tau, n, rounds = 3, 8, 40
	tr := Bounded{TauBound: tau}.NewTrace(5, n)
	for round := 0; round < rounds; round++ {
		arr := tr.Next()
		want := make([]int, 0, n)
		for i := 0; i < n; i++ {
			if round == 0 || (round+i)%(tau+1) == 0 {
				want = append(want, i)
			}
		}
		if !reflect.DeepEqual(arr, want) {
			t.Fatalf("round %d: arrivals %v, want %v", round, arr, want)
		}
	}
}

// TestDampFactor pins the Kardam damping curve and its two identity
// regimes (fresh proposals; λ = 0).
func TestDampFactor(t *testing.T) {
	if got := DampFactor(0.5, 0); got != 1 {
		t.Fatalf("DampFactor(0.5, 0) = %g, want exactly 1", got)
	}
	if got := DampFactor(0, 7); got != 1 {
		t.Fatalf("DampFactor(0, 7) = %g, want exactly 1", got)
	}
	if got, want := DampFactor(0.5, 2), 0.5; got != want {
		t.Fatalf("DampFactor(0.5, 2) = %g, want %g", got, want)
	}
	prev := 1.0
	for s := 1; s < 10; s++ {
		f := DampFactor(0.3, s)
		if f <= 0 || f >= prev {
			t.Fatalf("DampFactor not strictly decreasing positive: s=%d f=%g prev=%g", s, f, prev)
		}
		prev = f
	}
}

// TestParseRoundTrip: Parse(p.Name()) reconstructs an identical
// process for every built-in shape, matching the registry contract of
// the other four registries.
func TestParseRoundTrip(t *testing.T) {
	for _, s := range []string{
		"sync",
		"bounded(tau=1)",
		"bounded(tau=3)",
		"bounded(tau=3,damp=0.5)",
		"bernoulli(p=0.5,tau=8)",
		"bernoulli(p=0.25,tau=8)",
		"bernoulli(p=0.5,tau=4,damp=0.1)",
	} {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		back, err := Parse(p.Name())
		if err != nil {
			t.Fatalf("Parse(Name %q): %v", p.Name(), err)
		}
		if back.Name() != p.Name() {
			t.Fatalf("round trip unstable: %q -> %q -> %q", s, p.Name(), back.Name())
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("round trip changed process: %q: %#v vs %#v", s, p, back)
		}
	}
}

// TestTauZeroCollapsesToSync: τ = 0 means every worker is forced every
// round, so the parser canonicalizes those specs to Sync — the alias
// the store uses to keep bounded(tau=0) cells on sync keys.
func TestTauZeroCollapsesToSync(t *testing.T) {
	for _, s := range []string{"bounded(tau=0)", "bernoulli(p=0.5,tau=0)", "bounded(tau=0,damp=2)"} {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if _, ok := p.(Sync); !ok || p.Name() != "sync" {
			t.Fatalf("Parse(%q) = %#v (Name %q), want Sync", s, p, p.Name())
		}
	}
}

// TestParseDefaults pins bernoulli's p default.
func TestParseDefaults(t *testing.T) {
	p, err := Parse("bernoulli(tau=4)")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Name(); got != "bernoulli(p=0.5,tau=4)" {
		t.Fatalf("default p: Name = %q", got)
	}
}

// TestParseErrors: malformed specs are rejected with wrapped
// ErrBadArrival, never a panic.
func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"",
		"nosuch",
		"bounded",                // tau required
		"bounded()",              // tau required
		"bounded(tau=-1)",        // negative tau
		"bounded(tau=x)",         // malformed value
		"bounded(p=0.5)",         // unknown key for bounded
		"bernoulli(tau=2,p=0)",   // p out of range
		"bernoulli(tau=2,p=1.5)", // p out of range
		"bernoulli(p=0.5)",       // tau required
		"bounded(tau=2,damp=-1)", // negative damp
		"sync(tau=1)",            // sync takes no params
	} {
		if _, err := Parse(s); !errors.Is(err, ErrBadArrival) {
			t.Fatalf("Parse(%q) error = %v, want ErrBadArrival", s, err)
		}
	}
}

// TestBernoulliDrawStabilityUnderForcing: the election draw is
// consumed even on forced-arrival rounds, so the tail of the trace
// does not depend on how often forcing fired — two processes with the
// same p and seed but different τ agree on elections wherever neither
// is forced. Materially: the trace stays a pure function of (seed, n).
func TestBernoulliDrawStabilityUnderForcing(t *testing.T) {
	const n, rounds = 10, 80
	low := Bernoulli{P: 0.3, TauBound: 2}.NewTrace(7, n)
	high := Bernoulli{P: 0.3, TauBound: 40}.NewTrace(7, n)
	lowLast := make([]int, n)
	highLast := make([]int, n)
	for round := 0; round < rounds; round++ {
		la, ha := low.Next(), high.Next()
		inLow := memberSet(la)
		inHigh := memberSet(ha)
		for i := 0; i < n; i++ {
			lowForced := round == 0 || round-lowLast[i] > 2
			highForced := round == 0 || round-highLast[i] > 40
			if !lowForced && !highForced && inLow[i] != inHigh[i] {
				t.Fatalf("round %d worker %d: elections diverged across tau (low %v, high %v)",
					round, i, inLow[i], inHigh[i])
			}
			if inLow[i] {
				lowLast[i] = round
			}
			if inHigh[i] {
				highLast[i] = round
			}
		}
	}
}

func memberSet(arr []int) map[int]bool {
	m := make(map[int]bool, len(arr))
	for _, i := range arr {
		m[i] = true
	}
	return m
}
