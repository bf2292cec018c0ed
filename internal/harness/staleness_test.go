package harness

import (
	"crypto/sha256"
	"testing"
)

// TestRunStalenessShape runs the E8 sweep at Quick scale: every
// arrival yields a result, the synchronous control learns, bounded
// staleness does not destroy Krum's resilience outright, and the async
// cells actually drove the incremental cache's row-update path.
func TestRunStalenessShape(t *testing.T) {
	h := sha256.New()
	res, err := RunStaleness(h, Quick, 9)
	if err != nil {
		t.Fatal(err)
	}
	checkRendered(t, h, "c942a171f67cba27587ed6da9c6f5360e664393a584b58c35cc4dd11f85013da")
	if len(res.Arrivals) < 4 || res.Arrivals[0] != "sync" {
		t.Fatalf("arrival grid %v, want sync first and at least 4 entries", res.Arrivals)
	}
	if len(res.AvgFinal) != len(res.Arrivals) || len(res.KrumFinal) != len(res.Arrivals) || len(res.KrumByzRate) != len(res.Arrivals) {
		t.Fatalf("ragged sweep: %d arrivals, %d avg, %d krum, %d rates",
			len(res.Arrivals), len(res.AvgFinal), len(res.KrumFinal), len(res.KrumByzRate))
	}
	if res.AvgFinal[0] < 0.5 {
		t.Errorf("synchronous unattacked averaging only reached %v (chance 0.1)", res.AvgFinal[0])
	}
	if res.KrumFinal[0] < 0.5 {
		t.Errorf("synchronous attacked krum only reached %v — resilience failed", res.KrumFinal[0])
	}
	for i, arr := range res.Arrivals {
		if res.KrumFinal[i] < 0.3 {
			t.Errorf("arrival %q: attacked krum collapsed to %v", arr, res.KrumFinal[i])
		}
	}
	if res.RowUpdates == 0 {
		t.Error("async sweep produced zero incremental row updates: cache path not exercised")
	}
	if res.Builds == 0 {
		t.Error("sweep produced zero matrix builds")
	}
}
