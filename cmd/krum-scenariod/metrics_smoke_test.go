package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"krum/scenario"
	"krum/scenario/store"
)

// withTenant wraps a marshaled matrix body in the tenancy envelope.
func withTenant(t *testing.T, body, tenant string, priority int) string {
	t.Helper()
	var envelope map[string]any
	if err := json.Unmarshal([]byte(body), &envelope); err != nil {
		t.Fatal(err)
	}
	envelope["tenant"] = tenant
	if priority != 0 {
		envelope["priority"] = priority
	}
	out, err := json.Marshal(envelope)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// postMatrix POSTs a submission and returns the raw response (the
// caller asserts status and headers — unlike submit, 4xx is a valid
// outcome here).
func postMatrix(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/matrices", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, blob
}

// TestShardMetricsAndBackpressure is the smoke assertion the shard CI
// job runs: per-tenant quotas answer 429 + Retry-After without losing
// any work, and GET /metrics exposes the tenant counters in the
// Prometheus text format.
func TestShardMetricsAndBackpressure(t *testing.T) {
	// A store directory; it is sealed once the backlog drains, so every
	// later hit is served from a sealed segment, which is what
	// cold_reads counts.
	st, err := store.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := NewServer(Options{
		Workers:            1, // serialize cells so the first matrix stays pending
		Store:              st,
		TenantPendingCells: map[string]int{"quota-tenant": 1},
	})
	defer srv.Stop()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Cells slow enough (hundreds of ms each, serialized on a 1-wide
	// pool) that the first matrix is reliably still pending when the
	// second submission arrives.
	slow := scenario.Matrix{
		Base: scenario.Spec{
			Workload:  "mnist(size=8,hidden=12)",
			Rule:      "krum",
			Schedule:  "const(gamma=0.05)",
			N:         9,
			F:         2,
			Rounds:    250,
			BatchSize: 4,
			Seed:      77,
		},
		Rules: []string{"krum", "average", "coordmedian"},
		Seeds: []uint64{77, 78},
	}
	blob, err := json.Marshal(slow)
	if err != nil {
		t.Fatal(err)
	}
	body := withTenant(t, string(blob), "quota-tenant", 3)

	// First submission: the tenant has nothing outstanding, so the
	// quota (1 pending cell) cannot refuse it — admission caps existing
	// backlog, not matrix size.
	resp, first := postMatrix(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d: %s", resp.StatusCode, first)
	}
	var sub submitResponse
	if err := json.Unmarshal(first, &sub); err != nil {
		t.Fatal(err)
	}
	var status statusJSON
	getJSON(t, ts, "/matrices/"+sub.ID, &status)
	if status.Tenant != "quota-tenant" || status.Priority != 3 {
		t.Fatalf("status tenant %q priority %d, want quota-tenant/3", status.Tenant, status.Priority)
	}

	// Second submission while the first is pending: over quota → 429
	// with a parseable Retry-After.
	resp, msg := postMatrix(t, ts, body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d: %s, want 429", resp.StatusCode, msg)
	}
	retryAfter := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(retryAfter); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q: want a positive integer of seconds", retryAfter)
	}
	if !strings.Contains(string(msg), "quota") {
		t.Fatalf("429 body %q does not explain the quota", msg)
	}

	// Another tenant is unaffected by quota-tenant's backpressure.
	resp, msg = postMatrix(t, ts, withTenant(t, string(blob), "other-tenant", 0))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant: status %d: %s", resp.StatusCode, msg)
	}
	var subOther submitResponse
	if err := json.Unmarshal(msg, &subOther); err != nil {
		t.Fatal(err)
	}

	// The metrics page reports the rejection, the backlog and the store.
	// quota-tenant's matrix still has unstarted cells on the 1-wide
	// pool, and the queue-depth family counts them with no worker
	// joined.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := mresp.Header.Get("Content-Type"); ct != metricsContentType {
		t.Fatalf("metrics content type %q, want %q", ct, metricsContentType)
	}
	for _, want := range []string{
		`krum_scenariod_rejected_total{tenant="quota-tenant"} 1`,
		`krum_scenariod_pending_cells{tenant="quota-tenant"}`,
		`# TYPE krum_scenariod_queue_depth gauge`,
		`krum_scenariod_queue_depth{priority="3",tenant="quota-tenant"} `,
		`krum_scenariod_fleet_workers 0`,
		`krum_scenariod_store_entries`,
		`krum_scenariod_store_hits_total`,
		`# TYPE krum_scenariod_store_cold_reads_total counter`,
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("metrics page missing %q", want)
		}
	}

	// Nothing was lost to backpressure: once the backlog drains, the
	// refused matrix resubmits cleanly and its cells replay from the
	// store — the work the 429 deferred, not destroyed.
	waitFinished(t, ts, sub.ID)
	waitFinished(t, ts, subOther.ID)
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	var sealed map[string]int
	getJSON(t, ts, "/store", &sealed)
	resp, msg = postMatrix(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit after drain: status %d: %s", resp.StatusCode, msg)
	}
	var subRetry submitResponse
	if err := json.Unmarshal(msg, &subRetry); err != nil {
		t.Fatal(err)
	}
	final := waitFinished(t, ts, subRetry.ID)
	if final.Failed != 0 || final.Completed != final.Total {
		t.Fatalf("resubmitted matrix: %d/%d completed, %d failed", final.Completed, final.Total, final.Failed)
	}
	if final.Cached != final.Total {
		t.Errorf("resubmitted matrix recomputed %d cells — the deferred work was lost from the store", final.Total-final.Cached)
	}

	// Those replays were read back from sealed segments, and /store says
	// so next to hits.
	var stats map[string]int
	getJSON(t, ts, "/store", &stats)
	cold, hits := stats["cold_reads"]-sealed["cold_reads"], stats["hits"]-sealed["hits"]
	if cold < final.Total || cold != hits || stats["tampered"] != 0 {
		t.Errorf("/store = %v after the seal's %v, want every hit since (at least %d) to be a cold read", stats, sealed, final.Total)
	}
}
