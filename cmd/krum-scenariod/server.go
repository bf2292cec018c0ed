package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"krum/internal/vec"
	"krum/scenario"
	"krum/scenario/store"
)

// Server is the multi-matrix scenario coordinator: it accepts JSON
// matrix submissions over HTTP, fans their cells out across ONE shared
// bounded pool (so concurrent matrices share capacity fairly instead
// of each spawning its own), serves per-matrix progress and streaming
// results, and runs every cell through a shared store's bytes-level
// single-flight (DoCellRaw) — a stored cell is a hit, an in-flight
// identical cell is waited on, and only genuinely new work executes. A
// result travels as its canonical bytes the whole way: a worker's
// report is verified once where it arrives (fleet.complete) and the
// same json.RawMessage is what the store indexes, the matrix run holds
// and the stream and results encoders embed — the coordinator never
// decodes a result. Execution itself goes through the fleet
// (fleet.go): cells dispatch to joined workers when any are live and
// run in-process otherwise, with identical bytes either way. Because
// cells are pure functions of their spec and every computed cell is
// written through to the store, a service restart loses no work:
// resubmitting an interrupted matrix replays its completed prefix as
// store hits and only computes the remainder.
//
// Completed matrices stay in memory (results included) until a client
// deletes them (DELETE /matrices/{id}); consumers of many grids should
// delete what they have read — the persisted cells remain in the
// store either way.
type Server struct {
	store cellStore
	// fleet is the coordinator's dispatch queue + membership table (see
	// fleet.go). With no joined workers every cell runs locally, so a
	// fleetless coordinator behaves exactly like the single-process
	// service.
	fleet *fleet
	// sem is the shared pool: one slot per concurrently-running cell
	// OR concurrently-dispatched cell, across ALL matrices.
	sem chan struct{}
	// ctx is cancelled by Stop; cells never start after cancellation.
	ctx    context.Context
	cancel context.CancelFunc
	// wg tracks in-flight matrix executors (not individual cells).
	wg  sync.WaitGroup
	mux *http.ServeMux

	// journal, when non-nil (UseJournal), records matrix lifecycle
	// events so a restarted coordinator resumes unfinished matrices
	// (journal.go). It is set before serving starts and never mutated
	// after, so reads need no lock.
	journal *journal

	// maxPending, maxActive and tenantQuota are the admission limits
	// (see Options); immutable after construction.
	maxPending  int
	maxActive   int
	tenantQuota map[string]int

	mu       sync.Mutex
	matrices map[string]*matrixRun
	seq      int
	// rejected counts quota rejections (429s) per tenant, for /metrics.
	rejected map[string]int
	// stopped flips under mu before ctx is cancelled, so handleSubmit
	// can refuse new work without racing wg.Add against Stop's
	// wg.Wait.
	stopped bool
}

// matrixRun is the execution state of one submitted matrix.
type matrixRun struct {
	id    string
	cells []scenario.Spec
	// tenant and priority come from the submission envelope and are
	// immutable after registration: they place every one of the run's
	// cells in the fleet's dispatch queues and attribute the run in
	// admission control and /metrics.
	tenant   string
	priority int

	mu sync.Mutex
	// results is indexed by cell position (results[i] answers cells[i])
	// and holds each cell's wire form, built once when it completes;
	// entries are nil until then — the same positional guarantee
	// scenario.Runner.RunCells documents.
	results []*cellJSON
	// order lists completed cell indices in completion order, which is
	// what the streaming endpoint replays.
	order []int
	// changed, when non-nil, is closed by the next record or finish: the
	// wake-up a stream handler that has caught up waits on (see
	// changedLocked), so a line leaves when its cell completes.
	changed   chan struct{}
	cached    int
	failed    int
	storeErrs int
	// finished and aborted are mutually exclusive terminal states:
	// finished means every cell completed; aborted means shutdown cut
	// the matrix short after its completed cells persisted. Exactly one
	// of them is eventually set.
	finished bool
	aborted  bool
}

// defaultTenant attributes submissions that name no tenant; admission,
// dispatch and metrics treat it like any explicitly-named tenant.
const defaultTenant = "default"

// maxPriority bounds submission priorities to [-maxPriority,
// maxPriority] — a small closed range so "most urgent" is a knowable
// number, not an arms race.
const maxPriority = 9

// Default admission limits (see Options).
const (
	defaultMaxPendingCells   = 200_000
	defaultMaxActiveMatrices = 1024
)

// cellStore is what the coordinator needs of its shared result store:
// the bytes-level single-flight every cell runs through, and the
// counters /store and /metrics report. *store.Store satisfies it.
type cellStore interface {
	scenario.RawSingleFlighter
	Stats() store.Stats
}

// Options configures NewServer. Every zero field takes a
// sensible default (NumCPU pool, 10s fleet lease, default admission
// limits) except Store, which the caller must always supply.
type Options struct {
	// Workers is the shared cell pool width (0 means runtime.NumCPU()).
	Workers int
	// Store is the shared result store (use store.NewMemory() for a
	// non-persistent service).
	Store cellStore
	// Lease is the fleet liveness lease (0 means 10s).
	Lease time.Duration
	// MaxPendingCells caps one tenant's outstanding (not-yet-completed)
	// cells: a submission from a tenant already at or past the cap is
	// answered 429 with a Retry-After hint. The cap is checked against
	// EXISTING pending work, so a tenant with nothing outstanding can
	// always submit one matrix (growth stays bounded by cap + the
	// per-submission cell limit). 0 means the default; negative
	// disables the cap.
	MaxPendingCells int
	// MaxActiveMatrices caps one tenant's concurrently-live
	// (non-terminal) matrices, same 429 semantics as MaxPendingCells.
	// 0 means the default; negative disables the cap.
	MaxActiveMatrices int
	// TenantPendingCells overrides MaxPendingCells for specific
	// tenants; a non-positive value disables the cap for that tenant.
	TenantPendingCells map[string]int
}

// NewServer builds a Server from its options.
func NewServer(opts Options) *Server {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	maxPending := opts.MaxPendingCells
	if maxPending == 0 {
		maxPending = defaultMaxPendingCells
	}
	maxActive := opts.MaxActiveMatrices
	if maxActive == 0 {
		maxActive = defaultMaxActiveMatrices
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		store:       opts.Store,
		fleet:       newFleet(opts.Lease),
		sem:         make(chan struct{}, workers),
		ctx:         ctx,
		cancel:      cancel,
		mux:         http.NewServeMux(),
		maxPending:  maxPending,
		maxActive:   maxActive,
		tenantQuota: opts.TenantPendingCells,
		matrices:    make(map[string]*matrixRun),
		rejected:    make(map[string]int),
	}
	s.mux.HandleFunc("POST /matrices", s.handleSubmit)
	s.mux.HandleFunc("GET /matrices", s.handleList)
	s.mux.HandleFunc("GET /matrices/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /matrices/{id}", s.handleDelete)
	s.mux.HandleFunc("GET /matrices/{id}/results", s.handleResults)
	s.mux.HandleFunc("GET /matrices/{id}/stream", s.handleStream)
	s.mux.HandleFunc("POST /fleet/join", s.handleFleetJoin)
	s.mux.HandleFunc("POST /fleet/poll", s.handleFleetPoll)
	s.mux.HandleFunc("POST /fleet/heartbeat", s.handleFleetHeartbeat)
	s.mux.HandleFunc("POST /fleet/result", s.handleFleetResult)
	s.mux.HandleFunc("GET /fleet", s.handleFleetStatus)
	s.mux.HandleFunc("GET /store", s.handleStore)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	go s.sweepFleet()
	return s
}

// sweepFleet periodically expires dead fleet members, requeueing their
// tasks; it exits when Stop cancels the server context (fleet.close
// then resolves whatever remains).
func (s *Server) sweepFleet() {
	interval := s.fleet.lease / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case now := <-ticker.C:
			s.fleet.sweep(now)
		}
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Stop refuses further submissions, cancels cell scheduling, and
// waits for in-flight cells to finish and persist. Cells that never
// started simply never run — their matrices report aborted, and
// resubmitting them after a restart replays the completed prefix from
// the store.
func (s *Server) Stop() {
	// Flip stopped under the same lock handleSubmit takes before its
	// wg.Add: after this critical section no new executor can register,
	// so wg.Wait cannot race an Add from a submission in flight.
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	s.cancel()
	// Resolve every dispatched task to the local fallback so in-flight
	// cells still finish and persist (the shutdown contract) even when
	// their workers never answer.
	s.fleet.close()
	s.wg.Wait()
	// Final checkpoint (the graceful-shutdown contract): every matrix
	// is terminal by now, so the checkpoint pins just the id sequences
	// — a clean, zero-lag journal for the next incarnation. Only a
	// crash leaves live matrices behind for recovery to resume.
	if s.journal != nil {
		_ = s.journal.rewrite(s.snapshot)
		s.journal.close()
	}
}

// UseJournal attaches a checkpoint/journal (journal.go) to the
// server, replaying path first: matrices that were live when the
// previous coordinator died are resurrected under their original ids
// and re-executed — their completed cells replay as store hits, so
// recovery costs only the genuinely unfinished work — and the id
// sequences resume past everything ever granted, so recovered and new
// ids never collide. Worker identities are deliberately NOT restored:
// a restarted coordinator must not trust tokens it cannot verify, so
// the live fleet re-adopts itself through the existing 410/rejoin
// path within one poll round-trip.
//
// Call it after NewServer and before serving requests or submitting
// matrices; it returns the number of resurrected matrices.
func (s *Server) UseJournal(path string) (resumed int, err error) {
	j, state, err := openJournal(path)
	if err != nil {
		return 0, err
	}
	s.journal = j
	s.fleet.restoreWseq(state.wseq)

	// Resurrect live matrices exactly the way handleSubmit registers
	// fresh ones: registration + wg.Add in one critical section, then
	// the executor goroutine.
	s.mu.Lock()
	if state.seq > s.seq {
		s.seq = state.seq
	}
	var runs []*matrixRun
	for _, cm := range state.matrices {
		tenant := cm.Tenant
		if tenant == "" {
			// Journals written before the tenancy fields carry no tenant;
			// normalizing here keeps dispatch and quotas uniform.
			tenant = defaultTenant
		}
		run := &matrixRun{
			id:       cm.ID,
			cells:    cm.Cells,
			tenant:   tenant,
			priority: cm.Priority,
			results:  make([]*cellJSON, len(cm.Cells)),
		}
		s.matrices[run.id] = run
		s.wg.Add(1)
		runs = append(runs, run)
	}
	s.mu.Unlock()
	for _, run := range runs {
		go s.execute(run)
	}

	// Start the new journal from a checkpoint: replay gets instant and
	// whatever damage the old file carried is left behind.
	if err := j.rewrite(s.snapshot); err != nil {
		return len(runs), fmt.Errorf("initial checkpoint: %w", err)
	}
	return len(runs), nil
}

// journalAppend records one event and triggers the automatic
// checkpoint rewrite when the lag crosses the threshold. Journal
// failures are deliberately non-fatal: the coordinator's first duty is
// finishing matrices, and every result byte is already durable in the
// store — only resume-without-resubmission degrades.
func (s *Server) journalAppend(ev journalEvent) {
	if s.journal == nil {
		return
	}
	lag, err := s.journal.append(ev)
	if err != nil {
		return
	}
	if lag >= s.journal.every {
		_ = s.journal.rewrite(s.snapshot)
	}
}

// snapshot builds a checkpoint of the live (non-terminal) matrices and
// id sequences. It is handed to journal.rewrite, which calls it under
// the journal lock — see rewrite for why that ordering makes the
// rewrite lossless.
func (s *Server) snapshot() checkpoint {
	s.mu.Lock()
	cp := checkpoint{Seq: s.seq, Wseq: s.fleet.currentWseq()}
	runs := make([]*matrixRun, 0, len(s.matrices))
	for _, run := range s.matrices {
		runs = append(runs, run)
	}
	s.mu.Unlock()
	for _, run := range runs {
		run.mu.Lock()
		if run.terminal() {
			run.mu.Unlock()
			continue
		}
		cp.Matrices = append(cp.Matrices, checkpointMatrix{
			ID:       run.id,
			Cells:    run.cells,
			Tenant:   run.tenant,
			Priority: run.priority,
		})
		run.mu.Unlock()
	}
	// Deterministic checkpoint bytes: ids are m1, m2, ... so
	// length-then-lex is numeric order.
	sort.Slice(cp.Matrices, func(i, j int) bool {
		a, b := cp.Matrices[i].ID, cp.Matrices[j].ID
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return cp
}

// maxCells bounds one submission's cartesian expansion — large enough
// for any grid the pool could plausibly chew through, small enough
// that the expanded spec slice cannot threaten the process.
const maxCells = 100_000

// submitRequest is the POST /matrices body: a scenario.Matrix plus the
// optional multi-tenancy envelope. The Matrix embeds, so its fields
// stay top-level and every pre-tenancy submission body parses
// unchanged.
type submitRequest struct {
	scenario.Matrix
	// Tenant attributes the submission for fair-share dispatch,
	// admission quotas and metrics; empty means defaultTenant. Allowed:
	// up to 64 characters of [A-Za-z0-9._-].
	Tenant string `json:"tenant,omitempty"`
	// Priority places the matrix's cells in a dispatch tier (higher
	// dispatches first; range -9..9, default 0). Fair share applies
	// within a tier, strict precedence across tiers.
	Priority int `json:"priority,omitempty"`
}

// parseSubmit decodes a submission envelope, rejecting unknown fields
// and trailing content like scenario.ParseMatrixJSON does for bare
// matrices.
func parseSubmit(body []byte) (submitRequest, error) {
	var req submitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return submitRequest{}, fmt.Errorf("decoding matrix submission: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return submitRequest{}, errors.New("decoding matrix submission: trailing content after the JSON value")
	}
	return req, nil
}

// canonTenant normalizes and validates a submission's tenant name.
func canonTenant(tenant string) (string, error) {
	tenant = strings.TrimSpace(tenant)
	if tenant == "" {
		return defaultTenant, nil
	}
	if len(tenant) > 64 {
		return "", fmt.Errorf("tenant name longer than 64 characters")
	}
	for i := 0; i < len(tenant); i++ {
		c := tenant[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return "", fmt.Errorf("tenant name %q: only [A-Za-z0-9._-] allowed", tenant)
		}
	}
	return tenant, nil
}

// pendingCellsLocked counts a tenant's outstanding cells and live
// matrices — the quantities admission control caps. Callers hold s.mu
// (run.tenant is immutable; the per-run progress needs run.mu, which
// nests inside s.mu here and nowhere nests the other way).
func (s *Server) pendingCellsLocked(tenant string) (pending, active int) {
	for _, run := range s.matrices {
		if run.tenant != tenant {
			continue
		}
		run.mu.Lock()
		if !run.terminal() {
			active++
			pending += len(run.cells) - len(run.order)
		}
		run.mu.Unlock()
	}
	return pending, active
}

// retrySeconds turns a backlog size into a Retry-After hint: one
// second per thousand pending cells, clamped to [1, 30] — honest
// enough to spread retries, small enough that clients re-probe soon.
func retrySeconds(pending int) int {
	secs := pending / 1000
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// admitLocked applies the tenant's admission limits to a new
// submission; on rejection it returns the Retry-After hint and the 429
// body. Callers hold s.mu.
func (s *Server) admitLocked(tenant string) (retryAfter int, reason string, ok bool) {
	pending, active := s.pendingCellsLocked(tenant)
	if s.maxActive > 0 && active >= s.maxActive {
		return retrySeconds(pending),
			fmt.Sprintf("tenant %q has %d active matrices (limit %d); retry later", tenant, active, s.maxActive),
			false
	}
	quota := s.maxPending
	if q, has := s.tenantQuota[tenant]; has {
		quota = q
	}
	if quota > 0 && pending >= quota {
		return retrySeconds(pending),
			fmt.Sprintf("tenant %q has %d pending cells (quota %d); retry later", tenant, pending, quota),
			false
	}
	return 0, "", true
}

// submitResponse is the POST /matrices reply.
type submitResponse struct {
	// ID names the accepted matrix in every other endpoint.
	ID string `json:"id"`
	// Cells is the expanded grid size.
	Cells int `json:"cells"`
	// StatusURL and ResultsURL and StreamURL are the matrix's
	// endpoints, spelled out so clients need no URL templating.
	StatusURL  string `json:"status_url"`
	ResultsURL string `json:"results_url"`
	StreamURL  string `json:"stream_url"`
}

// statusJSON is the GET /matrices/{id} reply (and the per-matrix entry
// of GET /matrices).
type statusJSON struct {
	// ID is the matrix id.
	ID string `json:"id"`
	// Tenant attributes the matrix for dispatch and quotas.
	Tenant string `json:"tenant,omitempty"`
	// Priority is the matrix's dispatch tier.
	Priority int `json:"priority,omitempty"`
	// Total is the number of cells in the matrix.
	Total int `json:"total"`
	// Completed counts finished cells (cached + computed + failed).
	Completed int `json:"completed"`
	// Cached counts cells served from the result store.
	Cached int `json:"cached"`
	// Failed counts cells that returned an error.
	Failed int `json:"failed"`
	// StoreErrors counts cells whose result computed fine but failed to
	// persist to the shared store (CellResult.StoreErr). Non-zero means
	// the resume-by-resubmission guarantee is compromised for those
	// cells — they will recompute after a restart.
	StoreErrors int `json:"store_errors"`
	// Finished reports that every cell completed.
	Finished bool `json:"finished"`
	// Aborted reports the matrix was cut short by shutdown; resubmit it
	// to resume (completed cells replay from the store).
	Aborted bool `json:"aborted"`
}

// cellJSON is the wire form of one completed cell, used by both the
// results and stream endpoints.
type cellJSON struct {
	// Index is the cell's position in the matrix expansion order.
	Index int `json:"index"`
	// Spec is the cell that ran.
	Spec scenario.Spec `json:"spec"`
	// Cached reports a store hit.
	Cached bool `json:"cached,omitempty"`
	// Error is the cell's failure, if any.
	Error string `json:"error,omitempty"`
	// StoreError is a failed write-through to the result store; the
	// Result is still the valid computed outcome, only its persistence
	// failed.
	StoreError string `json:"store_error,omitempty"`
	// Result is the training outcome (absent when Error is set) in
	// distsgd.Result's stable JSON encoding — the cell's canonical
	// bytes, embedded as they are.
	Result json.RawMessage `json:"result,omitempty"`
}

// resultsJSON is the GET /matrices/{id}/results reply: the status plus
// the positional results array (null entries for cells still pending).
type resultsJSON struct {
	statusJSON
	// Results is indexed by cell position; entry i is null until cell i
	// completes, so partial reads are unambiguous.
	Results []*cellJSON `json:"results"`
}

// handleSubmit validates and enqueues a matrix.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		http.Error(w, fmt.Sprintf("reading body: %v", err), http.StatusBadRequest)
		return
	}
	req, err := parseSubmit(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	m := req.Matrix
	tenant, err := canonTenant(req.Tenant)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Priority < -maxPriority || req.Priority > maxPriority {
		http.Error(w, fmt.Sprintf("priority %d out of range [%d, %d]", req.Priority, -maxPriority, maxPriority), http.StatusBadRequest)
		return
	}
	// Bound the grid BEFORE expanding it: a few KB of JSON can declare
	// a cartesian product of billions of cells, and materializing it
	// would take the whole service down. Size saturates instead of
	// wrapping, so oversized (even int-overflowing) axis combinations
	// are rejected without allocating anything.
	if m.Size() > maxCells {
		http.Error(w, fmt.Sprintf("matrix expands to more than %d cells", maxCells), http.StatusBadRequest)
		return
	}
	// Expand once and validate the cells directly (Matrix.Validate
	// would expand a second time).
	cells := m.Cells()
	if len(cells) == 0 {
		http.Error(w, "empty matrix", http.StatusBadRequest)
		return
	}
	for i, cell := range cells {
		if err := cell.Validate(); err != nil {
			http.Error(w, fmt.Sprintf("cell %d (%s): %v", i, cell.Label(), err), http.StatusBadRequest)
			return
		}
	}

	// Registration and wg.Add happen in one critical section with the
	// stopped check: once Stop has flipped the flag, no executor can
	// slip in behind its wg.Wait.
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		http.Error(w, "server is shutting down", http.StatusServiceUnavailable)
		return
	}
	// Admission backpressure: a tenant at its quota is told to retry,
	// and NOTHING of the submission registers — the client resubmits
	// the identical matrix later and completed cells replay from the
	// store, so backpressure never loses work.
	if retry, reason, ok := s.admitLocked(tenant); !ok {
		s.rejected[tenant]++
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		http.Error(w, reason, http.StatusTooManyRequests)
		return
	}
	s.seq++
	run := &matrixRun{
		id:       fmt.Sprintf("m%d", s.seq),
		cells:    cells,
		tenant:   tenant,
		priority: req.Priority,
		results:  make([]*cellJSON, len(cells)),
	}
	s.matrices[run.id] = run
	s.wg.Add(1)
	s.mu.Unlock()

	// The registration above is the state mutation; the event follows
	// it — the ordering every checkpoint snapshot's completeness
	// argument rests on (see journal.rewrite).
	s.journalAppend(journalEvent{Type: "submit", Matrix: run.id, Cells: cells, Tenant: tenant, Priority: req.Priority})

	go s.execute(run)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, submitResponse{
		ID:         run.id,
		Cells:      len(cells),
		StatusURL:  "/matrices/" + run.id,
		ResultsURL: "/matrices/" + run.id + "/results",
		StreamURL:  "/matrices/" + run.id + "/stream",
	})
}

// execute fans one matrix's cells into the shared pool and marks the
// run finished (or aborted) when they drain.
func (s *Server) execute(run *matrixRun) {
	defer s.wg.Done()
	var cellWG sync.WaitGroup
	aborted := false
loop:
	for i := range run.cells {
		// Non-blocking cancellation check first: when both a pool slot
		// and cancellation are available, the select below picks at
		// random, which would let new cells start after Stop.
		if s.ctx.Err() != nil {
			aborted = true
			break loop
		}
		select {
		case <-s.ctx.Done():
			aborted = true
			break loop
		case s.sem <- struct{}{}:
		}
		cellWG.Add(1)
		go func(i int) {
			defer func() {
				<-s.sem
				cellWG.Done()
			}()
			run.record(s.executeCell(i, run.cells[i], run.tenant, run.priority))
		}(i)
	}
	// The terminal flag is only set AFTER the in-flight cells drain:
	// until then the matrix is still executing — streams must keep
	// delivering late completions and DELETE must keep refusing.
	cellWG.Wait()
	run.finish(aborted)
	s.journalAppend(journalEvent{Type: "done", Matrix: run.id, Aborted: aborted})
}

// executeCell runs one cell through the shared store's single-flight
// (identical concurrent cells — across matrices and across the fleet —
// collapse to one execution) with the fleet as the compute path: cells
// dispatch to workers when any are live and run locally otherwise.
// tenant and priority place the dispatch in its fleet queue; when the
// single-flight collapses identical cells across tenants, the first
// caller's attribution wins (the others wait on its result). It
// returns the cell's wire form, which embeds the store's bytes as they
// are.
func (s *Server) executeCell(i int, cell scenario.Spec, tenant string, priority int) *cellJSON {
	raw, cached, storeErr, err := s.store.DoCellRaw(cell, func() (json.RawMessage, error) {
		return s.fleet.execute(cell, tenant, priority)
	})
	c := &cellJSON{Index: i, Spec: cell, Cached: cached, Result: raw}
	if err != nil {
		c.Error = err.Error()
	}
	if storeErr != nil {
		c.StoreError = storeErr.Error()
	}
	return c
}

// record stores one completed cell and wakes the run's streams.
func (r *matrixRun) record(c *cellJSON) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.results[c.Index] = c
	r.order = append(r.order, c.Index)
	r.wakeLocked()
	if c.Cached {
		r.cached++
	}
	if c.Error != "" {
		r.failed++
	}
	if c.StoreError != "" {
		r.storeErrs++
	}
}

// finish marks the run terminal once every scheduled cell has drained:
// aborted when shutdown cut the grid short, finished (strictly "every
// cell completed") otherwise. The two flags stay mutually exclusive,
// so clients may key on either alone.
func (r *matrixRun) finish(aborted bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if aborted {
		r.aborted = true
	} else {
		r.finished = true
	}
	r.wakeLocked()
}

// changedLocked returns the channel the next record or finish closes;
// callers hold r.mu. A stream handler takes it in the same critical
// section in which it read order and terminal(), so no completion can
// fall between what it saw and what it waits for.
func (r *matrixRun) changedLocked() <-chan struct{} {
	if r.changed == nil {
		r.changed = make(chan struct{})
	}
	return r.changed
}

// wakeLocked releases every handler waiting on changedLocked's channel;
// callers hold r.mu. Costs nothing while nobody streams.
func (r *matrixRun) wakeLocked() {
	if r.changed != nil {
		close(r.changed)
		r.changed = nil
	}
}

// terminal reports that no further cells will complete. Callers hold
// r.mu.
func (r *matrixRun) terminal() bool { return r.finished || r.aborted }

// status snapshots the run's progress.
func (r *matrixRun) status() statusJSON {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.statusLocked()
}

// statusLocked builds the progress snapshot; callers hold r.mu. It
// exists so handleResults can take the status and the results array
// under ONE critical section — a finished:true header must never
// accompany a results array with pending nulls.
func (r *matrixRun) statusLocked() statusJSON {
	return statusJSON{
		ID:          r.id,
		Tenant:      r.tenant,
		Priority:    r.priority,
		Total:       len(r.cells),
		Completed:   len(r.order),
		Cached:      r.cached,
		Failed:      r.failed,
		StoreErrors: r.storeErrs,
		Finished:    r.finished,
		Aborted:     r.aborted,
	}
}

// lookup resolves a matrix id from the request path.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *matrixRun {
	s.mu.Lock()
	run, ok := s.matrices[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		http.Error(w, "unknown matrix id", http.StatusNotFound)
		return nil
	}
	return run
}

// handleList reports every submitted matrix's status.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	runs := make([]*matrixRun, 0, len(s.matrices))
	for _, run := range s.matrices {
		runs = append(runs, run)
	}
	s.mu.Unlock()
	out := make([]statusJSON, 0, len(runs))
	for _, run := range runs {
		out = append(out, run.status())
	}
	// Deterministic order: ids are m1, m2, ..., so length-then-lex is
	// numeric order.
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].ID, out[j].ID
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, out)
}

// handleStatus reports one matrix's progress.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	run := s.lookup(w, r)
	if run == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, run.status())
}

// handleDelete evicts a terminal matrix's in-memory results (the store
// keeps the persisted cells). Matrices are retained in memory until
// deleted, so long-running deployments should delete grids they have
// consumed; a matrix still executing cannot be deleted.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	run := s.lookup(w, r)
	if run == nil {
		return
	}
	run.mu.Lock()
	done := run.terminal()
	run.mu.Unlock()
	if !done {
		http.Error(w, "matrix is still executing; delete it once finished or aborted", http.StatusConflict)
		return
	}
	s.mu.Lock()
	delete(s.matrices, run.id)
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// handleResults returns the positional results array (nulls for
// pending cells) plus the progress header.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	run := s.lookup(w, r)
	if run == nil {
		return
	}
	run.mu.Lock()
	out := resultsJSON{Results: append([]*cellJSON(nil), run.results...)}
	out.statusJSON = run.statusLocked()
	run.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, out)
}

// handleStream writes completed cells as NDJSON in completion order,
// flushing each batch of lines as its cells complete, and returns when
// the matrix turns terminal (or the client goes away). A client that
// connects late first replays everything already completed. There is
// no polling: a handler that has caught up sleeps on the run's changed
// channel, which record and finish close.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	run := s.lookup(w, r)
	if run == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	cursor := 0
	for {
		run.mu.Lock()
		pending := run.order[cursor:]
		batch := make([]*cellJSON, len(pending))
		for i, idx := range pending {
			batch[i] = run.results[idx]
		}
		cursor += len(pending)
		done := run.terminal()
		var changed <-chan struct{}
		if !done {
			changed = run.changedLocked()
		}
		run.mu.Unlock()

		for _, c := range batch {
			if err := enc.Encode(c); err != nil {
				return
			}
		}
		if len(batch) > 0 && flusher != nil {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-changed:
		}
	}
}

// handleStore reports the shared store's counters.
func (s *Server) handleStore(w http.ResponseWriter, _ *http.Request) {
	stats := s.store.Stats()
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, map[string]int{
		"entries":            stats.Entries,
		"hits":               stats.Hits,
		"cold_reads":         stats.ColdReads,
		"misses":             stats.Misses,
		"flight_waits":       stats.FlightWaits,
		"saves":              stats.Saves,
		"skipped_records":    stats.SkippedRecords,
		"dropped_tail_bytes": stats.DroppedTailBytes,
		"superseded":         stats.Superseded,
		"tampered":           stats.Tampered,
		"foreign":            stats.Foreign,
		"segments":           stats.Segments,
		"seals":              stats.Seals,
		"compactions":        stats.Compactions,
	})
}

// healthJSON is the GET /healthz reply.
type healthJSON struct {
	// Status is "ok" whenever the server answers at all.
	Status string `json:"status"`
	// JournalLag counts journal events since the last checkpoint —
	// the replay cost a crash right now would pay. Present only when a
	// journal is attached.
	JournalLag *int `json:"journal_lag,omitempty"`
	// KernelTier is the active kernel tier name (vec.KernelTier — "go",
	// "sse2", "avx2") and KernelOrder its accumulation-order family
	// ("pair2", "fma4") — the value the fleet join handshake pins.
	// Operators diagnosing a worker's 409 look here first.
	KernelTier string `json:"kernel_tier"`
	// KernelOrder is the accumulation-order family of KernelTier.
	KernelOrder string `json:"kernel_order"`
}

// handleHealthz is the liveness probe; with a journal attached it also
// reports the journal lag.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	out := healthJSON{
		Status:      "ok",
		KernelTier:  vec.KernelTier().String(),
		KernelOrder: vec.KernelOrder(),
	}
	if s.journal != nil {
		lag := s.journal.Lag()
		out.JournalLag = &lag
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, out)
}

// writeJSON encodes v, ignoring write errors (the client went away).
func writeJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
