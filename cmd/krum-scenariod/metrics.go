package main

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
)

// Prometheus-style text exposition (GET /metrics): every gauge and
// counter an operator needs to see multi-tenant scheduling working —
// per-tenant×priority backlogs of unstarted cells, per-tenant
// dispatch/requeue counters, admission gauges (pending cells, active
// matrices, 429s),
// fleet membership, the shared store's counters and the journal lag.
// The format is the Prometheus text exposition format version 0.0.4
// (HELP/TYPE comment lines, one sample per line, label values escaped)
// emitted with stdlib only, with tenants sorted so scrapes are
// byte-stable for tests and diffs.

// metricsContentType is the exposition-format content type scrapers
// negotiate for.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// escapeLabel escapes a label value per the exposition format
// (backslash, double quote and newline).
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// metricsWriter accumulates exposition lines.
type metricsWriter struct {
	b strings.Builder
}

// header emits the HELP/TYPE preamble for a metric family.
func (m *metricsWriter) header(name, help, typ string) {
	fmt.Fprintf(&m.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample emits one sample line; labels alternate name, value and must
// come pre-sorted by the caller (label VALUES are escaped here).
func (m *metricsWriter) sample(name string, value int, labels ...string) {
	m.b.WriteString(name)
	if len(labels) > 0 {
		m.b.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				m.b.WriteByte(',')
			}
			fmt.Fprintf(&m.b, `%s="%s"`, labels[i], escapeLabel(labels[i+1]))
		}
		m.b.WriteByte('}')
	}
	fmt.Fprintf(&m.b, " %d\n", value)
}

// tenantAdmissionJSON is one tenant's admission-control gauges, for
// /metrics.
type tenantAdmissionJSON struct {
	// Tenant is the tenant name.
	Tenant string
	// Pending counts the tenant's outstanding (not-yet-completed)
	// cells across its live matrices.
	Pending int
	// Active counts the tenant's live (non-terminal) matrices.
	Active int
	// Rejected counts the tenant's quota rejections (429s) since the
	// coordinator started.
	Rejected int
}

// admissionMetrics snapshots per-tenant admission gauges, sorted by
// tenant name. A tenant appears once it has ever submitted or been
// rejected.
func (s *Server) admissionMetrics() []tenantAdmissionJSON {
	s.mu.Lock()
	names := make(map[string]struct{})
	for _, run := range s.matrices {
		names[run.tenant] = struct{}{}
	}
	for tenant := range s.rejected {
		names[tenant] = struct{}{}
	}
	out := make([]tenantAdmissionJSON, 0, len(names))
	for tenant := range names {
		pending, active := s.pendingCellsLocked(tenant)
		out = append(out, tenantAdmissionJSON{
			Tenant:   tenant,
			Pending:  pending,
			Active:   active,
			Rejected: s.rejected[tenant],
		})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// handleMetrics serves the exposition page (GET /metrics).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var m metricsWriter

	m.header("krum_scenariod_queue_depth", "Unstarted cells per tenant and priority.", "gauge")
	for _, q := range s.backlog() {
		m.sample("krum_scenariod_queue_depth", q.cells,
			"priority", fmt.Sprintf("%d", q.priority), "tenant", q.tenant)
	}

	fs := s.fleet.status()
	m.header("krum_scenariod_tenant_inflight", "Fleet tasks currently leased to workers, per tenant.", "gauge")
	for _, t := range fs.Tenants {
		m.sample("krum_scenariod_tenant_inflight", t.InFlight, "tenant", t.Tenant)
	}
	m.header("krum_scenariod_dispatches_total", "Task assignments to workers, per tenant.", "counter")
	for _, t := range fs.Tenants {
		m.sample("krum_scenariod_dispatches_total", t.Dispatches, "tenant", t.Tenant)
	}
	m.header("krum_scenariod_requeues_total", "Tasks taken back from workers (lease or deadline expiry, bad payloads), per tenant.", "counter")
	for _, t := range fs.Tenants {
		m.sample("krum_scenariod_requeues_total", t.Requeues, "tenant", t.Tenant)
	}

	adm := s.admissionMetrics()
	m.header("krum_scenariod_pending_cells", "Outstanding (not-yet-completed) cells per tenant.", "gauge")
	for _, t := range adm {
		m.sample("krum_scenariod_pending_cells", t.Pending, "tenant", t.Tenant)
	}
	m.header("krum_scenariod_active_matrices", "Live (non-terminal) matrices per tenant.", "gauge")
	for _, t := range adm {
		m.sample("krum_scenariod_active_matrices", t.Active, "tenant", t.Tenant)
	}
	m.header("krum_scenariod_rejected_total", "Submissions refused with 429 (quota backpressure), per tenant.", "counter")
	for _, t := range adm {
		m.sample("krum_scenariod_rejected_total", t.Rejected, "tenant", t.Tenant)
	}

	m.header("krum_scenariod_fleet_workers", "Live fleet members.", "gauge")
	m.sample("krum_scenariod_fleet_workers", len(fs.Workers))
	m.header("krum_scenariod_fleet_queued", "Queued fleet tasks across all tenants.", "gauge")
	m.sample("krum_scenariod_fleet_queued", fs.Queued)
	m.header("krum_scenariod_fleet_assigned", "Fleet tasks currently leased to workers.", "gauge")
	m.sample("krum_scenariod_fleet_assigned", fs.Assigned)
	m.header("krum_scenariod_local_fallbacks_total", "Cells computed in-process on the coordinator (no live workers, or exhausted attempts).", "counter")
	m.sample("krum_scenariod_local_fallbacks_total", fs.LocalFallbacks)

	stats := s.store.Stats()
	for _, row := range []struct {
		name, help, typ string
		value           int
	}{
		{"krum_scenariod_store_entries", "Result-store entries resident.", "gauge", stats.Entries},
		{"krum_scenariod_store_hits_total", "Result-store lookup hits.", "counter", stats.Hits},
		{"krum_scenariod_store_cold_reads_total", "Result-store hits served from a sealed segment rather than from memory.", "counter", stats.ColdReads},
		{"krum_scenariod_store_misses_total", "Result-store lookup misses.", "counter", stats.Misses},
		{"krum_scenariod_store_flight_waits_total", "Lookups that waited on an identical in-flight computation.", "counter", stats.FlightWaits},
		{"krum_scenariod_store_saves_total", "Result-store writes.", "counter", stats.Saves},
		{"krum_scenariod_store_segments", "Persistent store segments.", "gauge", stats.Segments},
		{"krum_scenariod_store_seals_total", "Segment seals.", "counter", stats.Seals},
		{"krum_scenariod_store_compactions_total", "Segment compactions.", "counter", stats.Compactions},
	} {
		m.header(row.name, row.help, row.typ)
		m.sample(row.name, row.value)
	}

	if s.journal != nil {
		m.header("krum_scenariod_journal_lag", "Journal events since the last checkpoint (replay cost of a crash right now).", "gauge")
		m.sample("krum_scenariod_journal_lag", s.journal.Lag())
	}

	w.Header().Set("Content-Type", metricsContentType)
	_, _ = w.Write([]byte(m.b.String()))
}
