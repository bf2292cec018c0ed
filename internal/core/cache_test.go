package core

import (
	"math"
	"runtime"
	"testing"

	"krum/internal/vec"
)

// cacheRound pulls one round's matrix through a cache-enabled engine,
// declaring the change-set the way the distsgd round loop does.
func cacheRound(e *Engine, vs [][]float64) *vec.DistanceMatrix {
	return e.Round(vs).SetChanged(e.Cache().Changed(vs)).Distances()
}

// TestRoundCacheReusesUnchangedRound: a second round over bit-identical
// proposals builds nothing and recomputes no rows.
func TestRoundCacheReusesUnchangedRound(t *testing.T) {
	t.Parallel()
	vs := engineTestVectors(9, 24, 7)
	e := new(Engine).EnableCache()
	first := cacheRound(e, vs)
	second := cacheRound(e, vec.CloneAll(vs)) // equal contents, different buffers
	if second != first {
		t.Error("unchanged round did not return the cached matrix")
	}
	if st := e.Stats(); st.Builds != 1 || st.Reuses != 1 || st.RowUpdates != 0 {
		t.Errorf("stats = %+v, want 1 build / 1 reuse / 0 row updates: the unchanged round built or recomputed", st)
	}
}

// TestEngineCountsMultiplyAdds: an engine's Stats sum the walker's
// multiply-adds over its builds and row updates — (n(n+1)/2 + ⌊n/2⌋)·d
// per Gram build, n·d per recomputed row (vec's
// TestMultiplyAddsClosedForm) — and a reused round adds none.
func TestEngineCountsMultiplyAdds(t *testing.T) {
	t.Parallel()
	const n, d = 11, 40
	build, row := uint64(n*(n+1)/2+n/2)*d, uint64(n*d)
	vs := engineTestVectors(n, d, 3)
	plain := new(Engine)
	plain.Round(vs).Distances()
	plain.Round(vs).Distances()
	if got := plain.Stats().MultiplyAdds; got != 2*build {
		t.Errorf("uncached: %d multiply-adds over two rounds, want %d", got, 2*build)
	}
	e := new(Engine).EnableCache()
	cacheRound(e, vs)
	cacheRound(e, vs)
	next := vec.CloneAll(vs)
	next[2] = engineTestVectors(1, d, 99)[0]
	next[7] = engineTestVectors(1, d, 100)[0]
	cacheRound(e, next)
	if got := e.Stats().MultiplyAdds; got != build+2*row {
		t.Errorf("cached: %d multiply-adds for a build, a reuse and two rows, want %d", got, build+2*row)
	}
}

// TestRoundCacheIncrementalMatchesRebuild: after mutating a few
// proposals, the cached matrix must be bit-identical to a from-scratch
// build over the new proposals, having recomputed only the changed
// rows.
func TestRoundCacheIncrementalMatchesRebuild(t *testing.T) {
	t.Parallel()
	const n, d = 11, 40
	vs := engineTestVectors(n, d, 3)
	e := new(Engine).EnableCache()
	cacheRound(e, vs)

	next := vec.CloneAll(vs)
	next[2] = engineTestVectors(1, d, 99)[0]
	next[7] = engineTestVectors(1, d, 100)[0]
	before := e.Stats()
	got := cacheRound(e, next)
	if b := e.Stats().Builds - before.Builds; b != 0 {
		t.Errorf("incremental round built %d matrices", b)
	}
	if r := e.Stats().RowUpdates - before.RowUpdates; r != 2 {
		t.Errorf("incremental round recomputed %d rows, want 2", r)
	}
	want := vec.NewDistanceMatrix(next)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("cell (%d,%d): cached %v, rebuild %v", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// TestRoundCacheBypasses: the documented full-rebuild cases — first
// round, a shape change (n or d), and a change-set covering every
// proposal — must all build rather than update.
func TestRoundCacheBypasses(t *testing.T) {
	t.Parallel()
	e := new(Engine).EnableCache()
	cacheRound(e, engineTestVectors(6, 20, 1)) // first round
	cacheRound(e, engineTestVectors(7, 20, 2)) // n changed
	cacheRound(e, engineTestVectors(7, 21, 3)) // d changed
	cacheRound(e, engineTestVectors(7, 21, 4)) // everything changed
	if st := e.Stats(); st.Builds != 4 || st.Reuses != 0 || st.RowUpdates != 0 {
		t.Errorf("stats = %+v, want 4 builds / 0 reuses / 0 row updates", st)
	}
}

// TestRoundCacheUndeclaredChangeSet: a context from a cached engine
// that never calls SetChanged must still serve correct matrices — the
// cache diffs the proposals itself.
func TestRoundCacheUndeclaredChangeSet(t *testing.T) {
	t.Parallel()
	const n, d = 8, 30
	vs := engineTestVectors(n, d, 5)
	e := new(Engine).EnableCache()
	e.Round(vs).Distances()
	next := vec.CloneAll(vs)
	next[4] = engineTestVectors(1, d, 50)[0]
	got := e.Round(next).Distances()
	if r := e.Stats().RowUpdates; r != 1 {
		t.Errorf("auto-diffed round recomputed %d rows, want 1", r)
	}
	want := vec.NewDistanceMatrix(next)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("cell (%d,%d): cached %v, rebuild %v", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// TestRoundCacheCountsDistinctRows: a declared change-set may repeat an
// index (the contract only forbids omissions); the row is recomputed,
// and counted, once.
func TestRoundCacheCountsDistinctRows(t *testing.T) {
	t.Parallel()
	const n, d = 8, 30
	vs := engineTestVectors(n, d, 6)
	e := new(Engine).EnableCache()
	e.Round(vs).Distances()
	next := vec.CloneAll(vs)
	next[3] = engineTestVectors(1, d, 60)[0]
	next[5] = engineTestVectors(1, d, 61)[0]
	e.Round(next).SetChanged([]int{3, 5, 3}).Distances()
	if st := e.Stats(); st.RowUpdates != 2 {
		t.Errorf("stats = %+v, want 2 row updates (distinct rows)", st)
	}
}

// TestRoundCacheChangedReportsAll: Changed on a cold or shape-mismatched
// cache names every index.
func TestRoundCacheChangedReportsAll(t *testing.T) {
	e := new(Engine).EnableCache()
	vs := engineTestVectors(5, 10, 8)
	changed := e.Cache().Changed(vs)
	if len(changed) != 5 {
		t.Fatalf("cold cache Changed = %v, want all 5", changed)
	}
	cacheRound(e, vs)
	if got := e.Cache().Changed(vs); len(got) != 0 {
		t.Errorf("identical round Changed = %v, want empty", got)
	}
	if got := e.Cache().Changed(engineTestVectors(6, 10, 9)); len(got) != 6 {
		t.Errorf("shape change Changed = %v, want all 6", got)
	}
}

// TestUncachedEngineIgnoresSetChanged: declaring a change-set on a
// plain engine is inert — every round builds fresh, and the engine
// counts each build.
func TestUncachedEngineIgnoresSetChanged(t *testing.T) {
	t.Parallel()
	vs := engineTestVectors(6, 12, 11)
	e := new(Engine)
	if e.Cache() != nil {
		t.Fatal("plain engine has a cache")
	}
	e.Round(vs).SetChanged(nil).Distances()
	e.Round(vs).SetChanged(nil).Distances()
	if st := e.Stats(); st.Builds != 2 || st.Reuses != 0 || st.RowUpdates != 0 {
		t.Errorf("stats = %+v, want the uncached engine's 2 builds", st)
	}
}

// TestRoundCacheParallelBuild: the cache's full builds — the first
// round's and a full-change round's in-place rebuild — fan out like any
// other and stay bit-identical to single-goroutine ones.
func TestRoundCacheParallelBuild(t *testing.T) {
	first := engineTestVectors(fanOutN, fanOutD, 13)
	second := engineTestVectors(fanOutN, fanOutD, 14)
	sameBitsAcrossProcs(t, "two full-change rounds", []int{1, 4}, func() []float64 {
		e := new(Engine).EnableCache()
		out := cells(cacheRound(e, first))
		out = append(out, cells(cacheRound(e, second))...)
		if st := e.Stats(); st.Builds != 2 {
			t.Fatalf("%d full builds, want 2", st.Builds)
		}
		return out
	})
}

// sameMatrix fails unless got equals, bit for bit, a fresh build over
// the round's proposals.
func sameMatrix(t *testing.T, what string, got *vec.DistanceMatrix, vs [][]float64) {
	t.Helper()
	want := NewRoundContext(vs).Distances()
	for i := range vs {
		for j := range vs {
			if g, w := got.At(i, j), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: cell (%d,%d): cached %v, rebuild %v", what, i, j, g, w)
			}
		}
	}
}

// TestRoundCacheUnservedRoundVoidsDeclaration: a declared change-set is
// relative to the previous ROUND, the cache's arena to the last round
// that asked for distances. When those differ — FiniteGuard re-ran its
// inner rule on a sanitized copy, or the round's rule needed no
// distances — taking the next declaration at face value leaves the rows
// that changed in the unserved round stale. The cache must notice the
// gap and diff for itself.
func TestRoundCacheUnservedRoundVoidsDeclaration(t *testing.T) {
	const n, d, f = 9, 24, 2
	t.Run("finiteguard", func(t *testing.T) {
		e := new(Engine).EnableCache()
		rule := FiniteGuard{Inner: NewKrum(f)}
		dst := make([]float64, d)
		round := func(vs [][]float64, changed []int) *RoundContext {
			ctx := e.Round(vs).SetChanged(changed)
			if err := rule.AggregateContext(dst, ctx); err != nil {
				t.Fatal(err)
			}
			return ctx
		}
		vs := engineTestVectors(n, d, 21)
		round(vs, []int{0, 1, 2, 3, 4, 5, 6, 7, 8})
		// Round 2: row 3 goes non-finite, so the guard aggregates on a
		// fresh context and the cache never sees row 5 move.
		vs = vec.CloneAll(vs)
		finite := vs[3][0]
		vs[3][0] = math.NaN()
		vec.Fill(vs[5], 1e3)
		round(vs, []int{3, 5})
		// Round 3: only row 3 changes, and says so.
		vs = vec.CloneAll(vs)
		vs[3][0] = finite
		ctx := round(vs, []int{3})
		sameMatrix(t, "round after a guarded round", ctx.Distances(), vs)
		want := make([]float64, d)
		if err := rule.Aggregate(want, vs); err != nil {
			t.Fatal(err)
		}
		if !vec.ApproxEqual(dst, want, 0) {
			t.Error("aggregate after a guarded round differs from the uncached rule's")
		}
	})
	t.Run("average-then-krum", func(t *testing.T) {
		e := new(Engine).EnableCache()
		rules := []Rule{Average{}, NewKrum(f)}
		dst := make([]float64, d)
		vs := engineTestVectors(n, d, 22)
		for r := 0; r < 12; r++ {
			// Every round moves two rows and declares exactly those;
			// only every other round asks the cache for distances.
			vs = vec.CloneAll(vs)
			changed := []int{r % n, (r + 4) % n}
			for _, i := range changed {
				vs[i] = engineTestVectors(1, d, uint64(100+10*r+i))[0]
			}
			ctx := e.Round(vs).SetChanged(changed)
			if err := AggregateContext(rules[r%2], dst, ctx); err != nil {
				t.Fatal(err)
			}
			if r%2 == 1 {
				sameMatrix(t, "alternating rules", ctx.Distances(), vs)
			}
		}
	})
}

// TestRoundCacheOwnsItsCopies is the owning half of the ownership rule
// (vec's TestBorrowedBuildMatchesDeepCopy is the borrowing half): the
// caller overwrites and recycles every proposal buffer between rounds —
// declared and undeclared change-sets, partial and full-change rounds —
// and every round's matrix still equals a fresh rebuild bit for bit,
// out of the one arena and the one matrix the cache allocated on its
// first round.
func TestRoundCacheOwnsItsCopies(t *testing.T) {
	t.Parallel()
	const n, d, rounds = 10, 40, 60
	rng := vec.NewRNG(31)
	e := new(Engine).EnableCache()
	bufs := engineTestVectors(n, d, 30)
	first := e.Round(bufs).Distances()
	arena := &e.Cache().rows[0][0]
	for r := 1; r <= rounds; r++ {
		var changed []int
		for i := range bufs {
			// Every third round rewrites every buffer; the others a
			// random third of them. A recycled buffer changes hands too.
			if r%3 == 0 || rng.Intn(3) == 0 {
				for k := range bufs[i] {
					bufs[i][k] = rng.NormFloat64()
				}
				changed = append(changed, i)
			}
		}
		if j := rng.Intn(n); r%5 == 0 && len(changed) > 0 && j != changed[0] {
			i := changed[0]
			bufs[i], bufs[j] = bufs[j], bufs[i]
			changed = append(changed, j)
		}
		ctx := e.Round(bufs)
		if r%2 == 0 {
			ctx.SetChanged(changed)
		}
		got := ctx.Distances()
		if got != first || &e.Cache().rows[0][0] != arena {
			t.Fatalf("round %d: the cache allocated a second matrix or arena", r)
		}
		sameMatrix(t, "recycled buffers", got, bufs)
	}
	if st := e.Stats(); st.Builds < rounds/3 || st.Reuses == 0 || st.Builds+st.Reuses != rounds+1 {
		t.Errorf("stats = %+v: want full-change rebuilds and incremental rounds over %d rounds", st, rounds+1)
	}
}

// allocPerRound returns the heap bytes one call of round allocates,
// averaged over count calls (runtime.MemStats.TotalAlloc is cumulative
// and exact, so the figure does not depend on the host's speed or on
// when the collector runs). TotalAlloc is process-wide, so its callers
// do not run in parallel with other tests.
func allocPerRound(count int, round func(r int)) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < count; r++ {
		round(r)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(count)
}

// TestDistanceBuildAllocations is the counted twin of the benchmark's
// proc.alloc_kb_per_op at the n = 40, d = 10⁴ stress shape: an uncached
// round allocates its n² cells plus O(n) — no n·d term, the proposals
// are read where they lie — and a cached full-change round, which
// rebuilds in place inside the cache's arena, next to nothing.
func TestDistanceBuildAllocations(t *testing.T) {
	const n, d, slack = 40, 10_000, 4 << 10
	sets := [2][][]float64{engineTestVectors(n, d, 41), engineTestVectors(n, d, 42)}
	uncached := new(Engine)
	if got := allocPerRound(100, func(r int) { uncached.Round(sets[r%2]).Distances() }); got > 8*n*n+slack {
		t.Errorf("uncached build allocates %d B, want ≤ 8·n² + 4 KB = %d (n·d·8 = %d)", got, 8*n*n+slack, 8*n*d)
	}
	cached := new(Engine).EnableCache()
	cached.Round(sets[1]).Distances()
	builds := cached.Stats().Builds
	if got := allocPerRound(100, func(r int) { cached.Round(sets[r%2]).Distances() }); got > slack {
		t.Errorf("cached full-change round allocates %d B, want ≤ 4 KB", got)
	}
	if got := cached.Stats().Builds - builds; got != 100 {
		t.Errorf("%d of 100 full-change rounds were counted as builds", got)
	}
}
