// Command krum-scenariod is the scenario-execution service (see
// EXPERIMENTS.md and ARCHITECTURE.md at the repository root). It runs
// in one of two roles:
//
// The coordinator (default) is a long-running HTTP service that
// accepts JSON matrix submissions — the same schema krum-experiments
// -config accepts under "matrix" — expands them, and executes their
// cells against a shared content-addressed result store with
// store-level single-flight: concurrent identical cells, across
// matrices and across callers, collapse to one execution. The -workers
// slots are the one bounded pool every cell holds while it executes —
// a store hit, a cell computed in-process, or one dispatched to a
// worker alike. With no workers joined the slots compute cells
// themselves; once workers join, they dispatch them to the fleet
// instead, so fleet slots beyond the coordinator's -workers stay idle.
//
//	krum-scenariod -addr :8080 -workers 8 -store-dir ./cells
//
// -store-dir is the segmented result store (a live tail plus sealed,
// hashed segments); without it results live in memory only. A durable
// coordinator adds a checkpoint/journal; killed mid-matrix — SIGKILL,
// OOM, a pulled plug — and restarted on the same state, it replays the
// journal, resumes unfinished matrices under their original ids
// (completed cells replay as store hits), and re-adopts the live worker
// fleet through the 410/rejoin path:
//
//	krum-scenariod -addr :8080 -store-dir ./cells -journal ./coordinator.journal
//
// A worker joins a coordinator's fleet and contributes capacity:
//
//	krum-scenariod -worker -join http://coordinator:8080 -workers 4
//
// Workers long-poll for cells, execute them locally, heartbeat while a
// cell trains, and report stable-JSON results back; the coordinator
// requeues the tasks of workers whose lease lapses, so killing a
// worker mid-cell only moves its cells elsewhere. Results are
// byte-identical whatever the topology — zero workers, one, many, or
// many minus the ones that died — because every cell is a pure
// function of its spec.
//
// The coordinator is multi-tenant: a submission may carry optional
// "tenant" and "priority" fields alongside the matrix. Slots go to
// cells by priority tier with fair share inside each tier (two
// equal-priority tenants each hold about half the slots however
// lopsided their backlogs are), and per-tenant admission quotas answer
// an over-quota submission with HTTP 429 plus a Retry-After hint — the
// client resubmits later and loses nothing, because completed cells
// replay from the store. Tenancy is journaled, so a recovered backlog
// keeps its attribution.
//
// Coordinator endpoints:
//
//	POST /matrices               submit a scenario.Matrix (JSON, optional "tenant"/"priority");
//	                             202 {id, cells, ...urls} or 429 + Retry-After over quota
//	GET  /matrices               status of every submitted matrix
//	GET  /matrices/{id}          progress: {tenant, priority, total, completed, cached, failed, ...}
//	GET  /matrices/{id}/results  positional results array (null for pending cells)
//	GET  /matrices/{id}/stream   NDJSON of cells in completion order, live until finished
//	DELETE /matrices/{id}        evict a finished/aborted matrix from memory (store keeps its cells)
//	POST /fleet/join             worker → coordinator: join the fleet (scenario/shardproto schema)
//	POST /fleet/poll             worker → coordinator: long-poll for cell tasks (batched via max_tasks)
//	POST /fleet/heartbeat        worker → coordinator: liveness, batched task deadline refresh
//	POST /fleet/result           worker → coordinator: report a finished task
//	GET  /fleet                  fleet membership, queue depth, per-tenant dispatch counters
//	GET  /store                  result-store counters (hits, misses, superseded, tampered, ...)
//	GET  /metrics                Prometheus text exposition: backlogs, tenants, 429s, store, journal lag
//	GET  /healthz                liveness probe; reports journal lag when -journal is set
//
// Shutdown (SIGINT/SIGTERM) is graceful mid-matrix in both roles: a
// coordinator finishes and persists in-flight cells (dispatched cells
// fall back to local execution), unstarted cells never run, the
// affected matrices report "aborted", and with -journal a final
// checkpoint is written before exit — resume is resubmitting the same
// matrix after restart, replaying the completed prefix as store hits.
// (Only a crash leaves live matrices in the journal; those resume
// automatically, no resubmission needed.) A dying worker simply stops
// heartbeating; its cells are reassigned.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"krum/scenario/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main (exit-once rule).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("krum-scenariod", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addrFlag := fs.String("addr", ":8080", "coordinator listen address")
	workersFlag := fs.Int("workers", 0, "coordinator: cell slots shared by all matrices; every cell (store hit, local or dispatched) holds one, so fleet slots beyond this stay idle; worker: concurrent cell slots (0 = GOMAXPROCS)")
	storeDirFlag := fs.String("store-dir", "", "coordinator: segmented result store directory (live tail + sealed, hashed segments; empty = in-memory only)")
	journalFlag := fs.String("journal", "", "coordinator checkpoint/journal path: a restarted coordinator replays it and resumes unfinished matrices")
	leaseFlag := fs.Duration("lease", 10*time.Second, "coordinator: worker liveness lease (a worker silent this long is presumed dead)")
	maxPendingFlag := fs.Int("max-pending-cells", 0, "coordinator: per-tenant cap on outstanding cells; over-quota submissions get 429 + Retry-After (0 = default, negative = unlimited)")
	maxActiveFlag := fs.Int("max-active-matrices", 0, "coordinator: per-tenant cap on live matrices (0 = default, negative = unlimited)")
	workerFlag := fs.Bool("worker", false, "run as a fleet worker instead of a coordinator")
	joinFlag := fs.String("join", "", "worker: coordinator base URL to join, e.g. http://host:8080")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag package already printed the error and usage
	}

	if *workerFlag && *journalFlag != "" {
		fmt.Fprintln(stderr, "-journal is a coordinator flag (workers keep no matrix state)")
		return 2
	}
	if *workerFlag && *storeDirFlag != "" {
		fmt.Fprintln(stderr, "-store-dir is a coordinator flag (workers keep no results)")
		return 2
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if *workerFlag {
		return runWorker(ctx, stdout, stderr, *joinFlag, *workersFlag)
	}

	var st *store.Store
	if *storeDirFlag != "" {
		dirStore, err := store.OpenDir(*storeDirFlag)
		if err != nil {
			fmt.Fprintf(stderr, "store: %v\n", err)
			return 2
		}
		defer dirStore.Close()
		fmt.Fprintf(stdout, "store %s (segmented): %s\n", *storeDirFlag, dirStore.Stats())
		st = dirStore
	} else {
		st = store.NewMemory()
		fmt.Fprintln(stdout, "store: in-memory (pass -store-dir to persist results across restarts)")
	}
	opts := Options{
		Workers:           *workersFlag,
		Store:             st,
		Lease:             *leaseFlag,
		MaxPendingCells:   *maxPendingFlag,
		MaxActiveMatrices: *maxActiveFlag,
	}
	return runCoordinator(ctx, stdout, stderr, *addrFlag, opts, *journalFlag)
}

// runWorker is the -worker role: join the fleet and execute dispatched
// cells until interrupted.
func runWorker(ctx context.Context, stdout, stderr io.Writer, join string, slots int) int {
	if join == "" {
		fmt.Fprintln(stderr, "-worker requires -join <coordinator URL>")
		return 2
	}
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	w := &Worker{
		Coordinator: join,
		Slots:       slots,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stdout, "worker: "+format+"\n", args...)
		},
	}
	fmt.Fprintf(stdout, "krum-scenariod worker: %d slots, joining %s\n", slots, join)
	if err := w.Run(ctx); err != nil {
		fmt.Fprintf(stderr, "worker: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "bye (in-flight cells were abandoned; the coordinator reassigns them)")
	return 0
}

// runCoordinator is the default role: bind addr, resume journaled
// matrices when a journal is configured, then serve matrices and the
// fleet. The address is bound before anything else so a taken port
// fails before the journal is touched, and the "listening" line
// reports the address actually held (":0" prints the kernel's pick).
func runCoordinator(ctx context.Context, stdout, stderr io.Writer, addr string, opts Options, journalPath string) int {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(stderr, "listen: %v\n", err)
		return 1
	}
	srv := NewServer(opts)
	if journalPath != "" {
		resumed, err := srv.UseJournal(journalPath)
		if err != nil {
			ln.Close()
			fmt.Fprintf(stderr, "journal: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "journal %s: %d unfinished matrices resumed\n", journalPath, resumed)
	}
	httpSrv := &http.Server{Handler: srv}
	fmt.Fprintf(stdout, "krum-scenariod listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "shutting down: waiting for in-flight cells to finish and persist...")
	srv.Stop() // stop scheduling, drain in-flight cells into the store
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelShutdown()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "shutdown: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "bye (interrupted matrices resume by resubmission — the store holds their completed cells)")
	return 0
}
