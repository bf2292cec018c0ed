package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"krum/scenario"
)

// TestGoldenKeys pins literal content addresses for one dense and one
// asynchronous spec. The literals were computed by the commit BEFORE
// scenario.Spec lost its omitempty "screened" field, so they prove that
// change moved no key; from here on they pin the whole key recipe
// (Version salt, order salt, canonical form, field order). A change
// that makes this test fail orphans every stored result and needs a
// Version bump.
func TestGoldenKeys(t *testing.T) {
	if Version != "krum-store-v2" {
		t.Fatalf("Version = %q: regenerate the golden keys with the bump", Version)
	}
	dense := scenario.Spec{
		Workload: "gmm(k=3,dim=6)", Rule: "krum", Attack: "gaussian(sigma=200)", Schedule: "const(gamma=0.1)",
		N: 9, F: 2, Rounds: 20, BatchSize: 8, Seed: 11, Incremental: true,
	}
	async := dense
	async.Arrival = "bounded(tau=2)"
	for _, tc := range []struct {
		name string
		spec scenario.Spec
		want string
	}{
		{"dense/fma4", dense, "sha256:9dca064980c16a0dc0fd72dbf37276d6627dc13a60395a922cb7c1ff71ad023d"},
		{"async/fma4", async, "sha256:c9351b723602f1f22307de6d630427b1ff667af8ea73c3bdafadcc6efbae4c5f"},
	} {
		c, err := tc.spec.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := address(c); got != tc.want {
			t.Errorf("%s: key %s, golden %s", tc.name, got, tc.want)
		}
	}
}

// legacyScreenedLines are store lines written by the last commit that
// had screened selection, for a spec with "screened": true — one under
// each kernel tier, which then had an order each.
const legacyScreenedLines = `{"key":"sha256:f56e25add9185c5f2b6fa3b7434a448a23833cb4f9c83984e2d5582a2af58e0f","version":"krum-store-v2","kernel":"fma4","spec":{"workload":"gmm(k=2,dim=2,radius=4,sigma=0.5)","rule":"krum","attack":"none","schedule":"const(gamma=0.1)","n":5,"f":1,"rounds":1,"batch_size":2,"seed":3,"screened":true},"result":{"history":[{"round":0,"train_loss":3.9441252179337503,"update_norm":3.5882118746089153,"learning_rate":0.1,"test_accuracy":0,"test_loss":0}],"final_params_b64":"UPRITDNs4D/LruV938H1P5USyJ6TXv2/rxcvehXj9j9ysWoZJJipv3GxahkkmKk/","final_test_accuracy":"NaN","final_test_loss":"NaN","kernel":"fma4"}}
{"key":"sha256:d821373459329646b493b26dd19eb8fb379d58c2fefa4c3df3d6449bbe38fa3d","version":"krum-store-v2","kernel":"pair2","spec":{"workload":"gmm(k=2,dim=2,radius=4,sigma=0.5)","rule":"krum","attack":"none","schedule":"const(gamma=0.1)","n":5,"f":1,"rounds":1,"batch_size":2,"seed":3,"screened":true},"result":{"history":[{"round":0,"train_loss":3.9441252179337503,"update_norm":3.5882118746089153,"learning_rate":0.1,"test_accuracy":0,"test_loss":0}],"final_params_b64":"UPRITDNs4D/LruV938H1P5USyJ6TXv2/rxcvehXj9j9ysWoZJJipv3GxahkkmKk/","final_test_accuracy":"NaN","final_test_loss":"NaN","kernel":"pair2"}}
`

// TestLegacyScreenedRecordsSkippedOnOpen: a store file still holding
// records of screened cells opens cleanly; those records hashed a field
// the spec no longer has, so their keys cannot re-derive, and they are
// counted as tampered and never served,
// not even to the dense twin of their spec. Records after them load.
func TestLegacyScreenedRecordsSkippedOnOpen(t *testing.T) {
	dir := t.TempDir()
	path := tailPathOf(dir)
	if err := os.WriteFile(path, []byte(legacyScreenedLines), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir over legacy screened records: %v", err)
	}
	fresh := quickSpec()
	if cr := runCell(st, 0, fresh); cr.Err != nil {
		t.Fatal(cr.Err)
	}
	st.Close()

	st, err = OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if stats := st.Stats(); stats.Entries != 1 || stats.SkippedRecords != 2 || stats.Tampered != 2 {
		t.Errorf("stats = %+v, want 1 entry and 2 skipped, tampered records", stats)
	}
	denseTwin := scenario.Spec{Workload: "gmm(k=2,dim=2)", Rule: "krum", Schedule: "const(gamma=0.1)", N: 5, F: 1, Rounds: 1, BatchSize: 2, Seed: 3}
	if _, ok := st.Lookup(denseTwin); ok {
		t.Error("legacy screened record served to its dense twin")
	}
	if _, ok := st.Lookup(fresh); !ok {
		t.Error("intact record lost behind the legacy lines")
	}
}

// legacyAuxLines are store lines written by the last commit that cached
// table1's Monte-Carlo cells as auxiliary records (krum-experiments -exp
// table1 -store D): its first record under KRUM_KERNEL_TIER=go, then
// under avx2. Each keyed a spec with no workload or schedule plus
// "kind" and "params" fields that records no longer have.
const legacyAuxLines = `{"key":"sha256:12435eed1ab9d573d8a4253f85bdee896486f69be0afb97ec320d896330a9070","version":"krum-store-v2","kernel":"pair2","kind":"table1","params":"d=12,trials=200","spec":{"workload":"","rule":"krum","attack":"gaussian(sigma=200)","schedule":"","n":13,"f":3,"rounds":0,"batch_size":0,"seed":13934464819154148243},"result":{"Attack":"gaussian(sigma=200)","Rule":"krum","ByzSelectedRate":0}}
{"key":"sha256:8b5ec8e466d45c3e4cebab1cdea4e8e1e174a27ddc994edd69b1a6d30654947d","version":"krum-store-v2","kernel":"fma4","kind":"table1","params":"d=12,trials=200","spec":{"workload":"","rule":"krum","attack":"gaussian(sigma=200)","schedule":"","n":13,"f":3,"rounds":0,"batch_size":0,"seed":13934464819154148243},"result":{"Attack":"gaussian(sigma=200)","Rule":"krum","ByzSelectedRate":0}}
`

// TestLegacyAuxRecordsStayDead: a store directory still holding
// auxiliary Monte-Carlo records opens cleanly. A partial spec has no
// identity, so neither record re-derives its key, and both stay dead
// (checkDeadLines).
func TestLegacyAuxRecordsStayDead(t *testing.T) { checkDeadLines(t, legacyAuxLines) }

// pair2Line is a store line the last commit with two kernel orders
// wrote under KRUM_KERNEL_TIER=go (krum-experiments -config with
// -store, one gmm cell): its key is salted with the retired "pair2"
// order.
func pair2Line(t *testing.T) string {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "pair2_record.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestPair2RecordsStayDead: a record written under the retired pair2
// order is intact, but its key re-derives under no salt this code
// uses, so no process can serve it — not even for its own spec, which
// recomputes. It stays dead (checkDeadLines).
func TestPair2RecordsStayDead(t *testing.T) { checkDeadLines(t, pair2Line(t)) }

// checkDeadLines writes lines, records no process may serve, to a store
// directory's tail and holds the store to them: it opens cleanly,
// counts each as skipped and tampered, serves none by key or by spec,
// loads a cell saved after them, and compaction drops them from disk.
func checkDeadLines(t *testing.T, lines string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(tailPathOf(dir), []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir over dead records: %v", err)
	}
	fresh := quickSpec()
	if cr := runCell(st, 0, fresh); cr.Err != nil {
		t.Fatal(cr.Err)
	}
	st.Close()

	if st, err = OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	dead := strings.Split(strings.TrimSpace(lines), "\n")
	if stats := st.Stats(); stats.Entries != 1 || stats.SkippedRecords != len(dead) || stats.Tampered != len(dead) {
		t.Errorf("stats = %+v, want 1 entry and %d skipped, tampered records", stats, len(dead))
	}
	var keys []string
	for _, line := range dead {
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, rec.Key)
		if _, _, ok := st.get(rec.Key); ok {
			t.Errorf("dead record %s served", rec.Key)
		}
		if _, ok := st.Lookup(rec.Spec); ok {
			t.Errorf("dead record's spec %+v served", rec.Spec)
		}
	}
	if _, ok := st.Lookup(fresh); !ok {
		t.Error("intact record lost behind the dead lines")
	}

	// The tail seals as it stands, dead lines included; compaction
	// keeps only the cell.
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	segs := st.Segments()
	if len(segs) != 1 {
		t.Fatalf("segments after compaction: %v", segs)
	}
	blob, err := os.ReadFile(filepath.Join(dir, segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		if bytes.Contains(blob, []byte(key)) {
			t.Errorf("compacted segment still holds %s", key)
		}
	}
	if n := bytes.Count(blob, []byte("\n")); n != 1 {
		t.Errorf("compacted segment holds %d lines, want the one cell", n)
	}
	if _, ok := st.Lookup(fresh); !ok {
		t.Error("cell lost by compaction")
	}
}
