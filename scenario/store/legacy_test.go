package store

import (
	"os"
	"testing"

	"krum/scenario"
)

// TestGoldenKeys pins literal content addresses for one dense and one
// asynchronous spec under both order families, and for one auxiliary
// record of each harness kind. The cell literals were computed by the
// commit BEFORE scenario.Spec lost its omitempty "screened" field, the
// aux literals by the commit before the store's own resolvers gave way
// to Spec.Canonical, so they prove that neither change moved a key;
// from here on they pin the whole key recipe (Version salt, order
// salt, canonical form, field order). A change that makes this test
// fail orphans every stored result and needs a Version bump.
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
	// One Monte-Carlo cell of each harness kind, spelled as
	// table1Matrix and RunAblation expand them (labels included).
	table1 := scenario.Spec{Name: "table1: rule=multikrum(m=4) attack=hiddencoord(j=3) f=3 seed=1", N: 13, F: 3, Seed: 1, Rule: "multikrum(m=4)", Attack: "hiddencoord(j=3)"}
	ablation := scenario.Spec{Name: "rule=bulyan attack=hiddencoord(j=7,margin=1) f=2 seed=2", N: 11, F: 2, Seed: 2, Rule: "bulyan", Attack: "hiddencoord(j=7,margin=1)"}
	for _, tc := range []struct {
		name         string
		kind, params string
		spec         scenario.Spec
		order        string
		want         string
	}{
		{"dense/pair2", "", "", dense, "pair2", "sha256:1b7f4beca3f58e4a913065cdcdd7ba62bef10c20cda2b13a1d3dbf4365f185d6"},
		{"async/pair2", "", "", async, "pair2", "sha256:d87cfeae4f3cc6617e62418160c11e6ded4e5b2d9c27b58d830264efc8bd0ac9"},
		{"dense/fma4", "", "", dense, "fma4", "sha256:9dca064980c16a0dc0fd72dbf37276d6627dc13a60395a922cb7c1ff71ad023d"},
		{"async/fma4", "", "", async, "fma4", "sha256:c9351b723602f1f22307de6d630427b1ff667af8ea73c3bdafadcc6efbae4c5f"},
		{"table1/pair2", "table1", "d=12,trials=200", table1, "pair2", "sha256:63154de80d9c0e122c4cf2c2c0a296d4f88c399601fa31f8d7a0b71070a0a747"},
		{"ablation/fma4", "ablation", "d=60,coord=7,trials=300", ablation, "fma4", "sha256:1bf21c2c389835a325785f351176475353cca81bd5944d5c7def710f686c425f"},
	} {
		c, err := tc.spec.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := address(tc.order, tc.kind, tc.params, c)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: key %s, golden %s", tc.name, got, tc.want)
		}
	}
}

// legacyScreenedLines are store lines written by the last commit that
// had screened selection, for a spec with "screened": true — one per
// order family.
const legacyScreenedLines = `{"key":"sha256:f56e25add9185c5f2b6fa3b7434a448a23833cb4f9c83984e2d5582a2af58e0f","version":"krum-store-v2","kernel":"fma4","spec":{"workload":"gmm(k=2,dim=2,radius=4,sigma=0.5)","rule":"krum","attack":"none","schedule":"const(gamma=0.1)","n":5,"f":1,"rounds":1,"batch_size":2,"seed":3,"screened":true},"result":{"history":[{"round":0,"train_loss":3.9441252179337503,"update_norm":3.5882118746089153,"learning_rate":0.1,"test_accuracy":0,"test_loss":0}],"final_params_b64":"UPRITDNs4D/LruV938H1P5USyJ6TXv2/rxcvehXj9j9ysWoZJJipv3GxahkkmKk/","final_test_accuracy":"NaN","final_test_loss":"NaN","kernel":"fma4"}}
{"key":"sha256:d821373459329646b493b26dd19eb8fb379d58c2fefa4c3df3d6449bbe38fa3d","version":"krum-store-v2","kernel":"pair2","spec":{"workload":"gmm(k=2,dim=2,radius=4,sigma=0.5)","rule":"krum","attack":"none","schedule":"const(gamma=0.1)","n":5,"f":1,"rounds":1,"batch_size":2,"seed":3,"screened":true},"result":{"history":[{"round":0,"train_loss":3.9441252179337503,"update_norm":3.5882118746089153,"learning_rate":0.1,"test_accuracy":0,"test_loss":0}],"final_params_b64":"UPRITDNs4D/LruV938H1P5USyJ6TXv2/rxcvehXj9j9ysWoZJJipv3GxahkkmKk/","final_test_accuracy":"NaN","final_test_loss":"NaN","kernel":"pair2"}}
`

// TestLegacyScreenedRecordsSkippedOnOpen: a store file still holding
// records of screened cells opens cleanly; those records hashed a field
// the spec no longer has, so their keys cannot re-derive — under either
// order family — and they are counted as tampered and never served,
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
	if cr := scenario.RunCell(st, 0, fresh); cr.Err != nil {
		t.Fatal(cr.Err)
	}
	st.Close()

	st, err = OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if stats := st.Stats(); stats.Entries != 1 || stats.SkippedRecords != 2 || stats.Tampered != 2 || stats.Foreign != 0 {
		t.Errorf("stats = %+v, want 1 entry and 2 skipped, tampered, non-foreign records", stats)
	}
	denseTwin := scenario.Spec{Workload: "gmm(k=2,dim=2)", Rule: "krum", Schedule: "const(gamma=0.1)", N: 5, F: 1, Rounds: 1, BatchSize: 2, Seed: 3}
	if _, ok := st.Lookup(denseTwin); ok {
		t.Error("legacy screened record served to its dense twin")
	}
	if _, ok := st.Lookup(fresh); !ok {
		t.Error("intact record lost behind the legacy lines")
	}
}
