package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"krum/scenario"
)

// Grid shape of service_overlap: 3 rules × 2 attacks × gridSeeds seeds
// of the grid_small cell. A client's k-th grid starts gridStride seeds
// after its (k−1)-th, so consecutive grids share gridSeeds−gridStride
// of their seeds: 36 of 48 cells are store hits, 12 are dispatched.
const (
	gridSeeds  = 8
	gridStride = 2
	// clientSpan separates the clients' seed ranges.
	clientSpan = 1_000_000
	// warmupClient is a seed range no measuring client uses.
	warmupClient = 99
	warmupGrids  = 4
)

// gridCells is the number of cells of one submitted grid.
var gridCells = len(smallRules) * len(smallAttacks) * gridSeeds

// overlapGrid is client's k-th grid.
func overlapGrid(base uint64, client, k int) scenario.Matrix {
	first := base + uint64(client)*clientSpan + gridStride*uint64(k) + 1
	seeds := make([]uint64, gridSeeds)
	for i := range seeds {
		seeds[i] = first + uint64(i)
	}
	return scenario.Matrix{Base: smallCell, Rules: smallRules, Attacks: smallAttacks, Seeds: seeds}
}

// proc is a krum-scenariod subprocess.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait returned
}

// startProc launches the binary with its output in logPath and
// registers it for cleanup on every exit path.
func startProc(bin, logPath string, args ...string) (*proc, error) {
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is read from ProcessState in stop
		close(p.done)
	}()
	cleanups.add(p, func() { p.stop() })
	return p, nil
}

// stop interrupts the process, kills it if it lingers, waits for it and
// returns its peak RSS in MB.
func (p *proc) stop() float64 {
	cleanups.remove(p)
	_ = p.cmd.Process.Signal(os.Interrupt) // already exited is fine
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return maxRSSMB(ru)
	}
	return 0
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// freeAddr asks the kernel for an unused loopback port. The port is
// released before the coordinator binds it, so startCoordinator retries
// on the rare collision; krum-scenariod prints its -addr flag rather
// than the bound address, so ":0" cannot be read back.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// service is one coordinator (+ optionally one real worker) with the
// state directory they share.
type service struct {
	dir    string
	url    string
	coord  *proc
	worker *proc
	http   *http.Client
}

// startService starts a durable coordinator on a fresh state directory
// under tmp and waits for /healthz; with realWorker it also starts a
// worker subprocess and waits until the fleet lists it.
func startService(e env, realWorker bool) (*service, error) {
	if _, err := os.Stat(e.scenariod); err != nil {
		return nil, fmt.Errorf("no krum-scenariod binary (-scenariod; run.sh builds it): %w", err)
	}
	dir, err := os.MkdirTemp(e.tmp, "service-")
	if err != nil {
		return nil, err
	}
	s := &service{dir: dir, http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}}
	for attempt := 0; s.coord == nil; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		coord, err := startProc(e.scenariod, filepath.Join(dir, "coordinator.log"),
			"-addr", addr, "-workers", strconv.Itoa(workers),
			"-store-dir", filepath.Join(dir, "cells"), "-journal", filepath.Join(dir, "journal"))
		if err != nil {
			return nil, err
		}
		s.url = "http://" + addr
		if err := s.waitFor(coord, func() bool { return s.getJSON("/healthz", &struct{}{}) == nil }); err != nil {
			coord.stop()
			if attempt == 2 {
				return nil, fmt.Errorf("coordinator: %w (see %s)", err, filepath.Join(dir, "coordinator.log"))
			}
			continue
		}
		s.coord = coord
	}
	if realWorker {
		s.worker, err = startProc(e.scenariod, filepath.Join(dir, "worker.log"),
			"-worker", "-join", s.url, "-workers", strconv.Itoa(workers))
		if err != nil {
			s.stop()
			return nil, err
		}
		joined := func() bool {
			var fleet fleetStatus
			return s.getJSON("/fleet", &fleet) == nil && len(fleet.Workers) == 1
		}
		if err := s.waitFor(s.worker, joined); err != nil {
			s.stop()
			return nil, fmt.Errorf("worker: %w (see %s)", err, filepath.Join(dir, "worker.log"))
		}
	}
	return s, nil
}

// waitFor polls ready until it holds, the process dies, or 20 s pass.
func (s *service) waitFor(p *proc, ready func() bool) error {
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if ready() {
			return nil
		}
		if p.exited() {
			return errors.New("process exited during start-up")
		}
	}
	return errors.New("not ready after 20 s")
}

// stop ends the worker, then the coordinator, and returns their summed
// peak RSS in MB.
func (s *service) stop() (rssMB float64) {
	if s.worker != nil {
		rssMB += s.worker.stop()
		s.worker = nil
	}
	if s.coord != nil {
		rssMB += s.coord.stop()
		s.coord = nil
	}
	s.http.CloseIdleConnections()
	return rssMB
}

func (s *service) getJSON(path string, v any) error {
	resp, err := s.http.Get(s.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// fleetStatus and storeStatus are the fields of GET /fleet and GET
// /store the benchmark reads.
type fleetStatus struct {
	Workers []struct {
		ID string `json:"id"`
	} `json:"workers"`
	Tenants []struct {
		Dispatches int `json:"dispatches"`
		Requeues   int `json:"requeues"`
	} `json:"tenants"`
	LocalFallbacks int `json:"local_fallbacks"`
}

func (f fleetStatus) dispatches() (n int) {
	for _, t := range f.Tenants {
		n += t.Dispatches
	}
	return n
}

func (f fleetStatus) requeues() (n int) {
	for _, t := range f.Tenants {
		n += t.Requeues
	}
	return n
}

type storeStatus struct {
	Hits     int `json:"hits"`
	Saves    int `json:"saves"`
	Seals    int `json:"seals"`
	Tampered int `json:"tampered"`
}

// counters is one reading of the coordinator's exact counts.
type counters struct {
	store storeStatus
	fleet fleetStatus
}

func (s *service) counters() (c counters, err error) {
	if err = s.getJSON("/store", &c.store); err == nil {
		err = s.getJSON("/fleet", &c.fleet)
	}
	return c, err
}

// gridTiming is what a client saw of one grid, as offsets from the
// POST being sent.
type gridTiming struct {
	ack, first, eof time.Duration
	status          int
	body            []byte
}

// submitGrid runs one grid through the coordinator the way a client
// does: POST /matrices, read the NDJSON stream to EOF, DELETE.
func (s *service) submitGrid(m scenario.Matrix) (gridTiming, error) {
	var g gridTiming
	blob, err := json.Marshal(m)
	if err != nil {
		return g, err
	}
	t0 := time.Now()
	resp, err := s.http.Post(s.url+"/matrices", "application/json", bytes.NewReader(blob))
	if err != nil {
		return g, err
	}
	var ack struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	g.ack, g.status = time.Since(t0), resp.StatusCode
	if resp.StatusCode != http.StatusAccepted {
		return g, nil // the caller counts a refused grid as failed ops
	}
	if err != nil {
		return g, fmt.Errorf("decoding submit reply: %w", err)
	}

	stream, err := s.http.Get(s.url + "/matrices/" + ack.ID + "/stream")
	if err != nil {
		return g, err
	}
	r := bufio.NewReader(stream.Body)
	line, err := r.ReadBytes('\n')
	g.first = time.Since(t0)
	if err == nil {
		var rest []byte
		rest, err = io.ReadAll(r)
		g.body = append(line, rest...)
	}
	stream.Body.Close()
	g.eof, g.status = time.Since(t0), stream.StatusCode
	if err != nil && !errors.Is(err, io.EOF) {
		return g, fmt.Errorf("reading stream: %w", err)
	}

	req, err := http.NewRequest(http.MethodDelete, s.url+"/matrices/"+ack.ID, nil)
	if err != nil {
		return g, err
	}
	del, err := s.http.Do(req)
	if err != nil {
		return g, err
	}
	del.Body.Close()
	if del.StatusCode != http.StatusNoContent {
		g.status = del.StatusCode
	}
	return g, nil
}

// overlap is the service_overlap instance.
type overlap struct {
	e    env
	base uint64
	svc  *service
	// before is the counter reading taken when setup ended.
	before counters

	mu sync.Mutex
	// bodies holds every served stream, by client, for check.
	bodies  [clients][][]byte
	timings []gridTiming
	grids   int
	// transport records a client's first transport error.
	transport error

	// check leaves these for layers: what the streams served, and the
	// counter reading taken after the last window.
	served harvested
	after  counters
}

// clients is the number of closed-loop service clients.
const clients = workers

func setupServiceOverlap(e env) (*instance, error) {
	o := &overlap{e: e, base: seedBase(e.seed)}
	var err error
	if o.svc, err = startService(e, true); err != nil {
		return nil, err
	}
	// A few untimed grids: connection set-up, first segment file, first
	// workload compile on the worker, first store hits. Several, so that
	// the stream's 25 ms tick does not quantise setup_s into two values.
	for k := 0; k < warmupGrids && err == nil; k++ {
		var g gridTiming
		g, err = o.svc.submitGrid(overlapGrid(o.base, warmupClient, k))
		if served := bytes.Count(g.body, []byte("\n")); err == nil && served != gridCells {
			err = fmt.Errorf("status %d, %d of %d cells", g.status, served, gridCells)
		}
	}
	if err == nil {
		o.before, err = o.svc.counters()
	}
	if err != nil {
		o.svc.stop()
		return nil, fmt.Errorf("warm-up grid: %w", err)
	}
	return &instance{
		clients: clients,
		do:      o.request,
		check:   o.check,
		layers:  o.layers,
		close:   func() float64 { return o.svc.stop() },
	}, nil
}

// request submits client's k-th grid. Cells the stream did not carry
// count as failed here; cells it carried wrong are found by check.
func (o *overlap) request(client, k int, tr *tracer) (ops, failed int) {
	op := int64(k*clients + client)
	root := tr.begin("scenariod.matrix", -1, op)
	g, err := o.svc.submitGrid(overlapGrid(o.base, client, k))
	tr.sub(root, "scenariod.submit", op, 0, g.ack)
	tr.sub(root, "scenariod.first_result", op, g.ack, g.first)
	tr.sub(root, "scenariod.stream", op, g.first, g.eof)
	tr.end(root)
	served := bytes.Count(g.body, []byte("\n"))
	if err != nil || g.status != http.StatusOK {
		served = 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if err != nil && o.transport == nil {
		o.transport = err
	}
	o.bodies[client] = append(o.bodies[client], g.body)
	o.grids++
	if tr != nil {
		o.timings = append(o.timings, g)
	}
	return gridCells, gridCells - min(served, gridCells)
}

// streamLine is one NDJSON line of GET /matrices/{id}/stream.
type streamLine struct {
	Spec   scenario.Spec   `json:"spec"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// checkEvery-th served cells are recomputed in-process.
const checkEvery = 16

// check parses every served stream, recomputes every 16th cell with
// scenario.ComputeCell and compares stable JSON byte for byte, then
// holds the coordinator's counters to the exact values the overlap
// pattern implies.
func (o *overlap) check() (failed int, err error) {
	if o.transport != nil {
		return 0, fmt.Errorf("transport: %w", o.transport)
	}
	o.served = harvested{results: make(map[cellID]json.RawMessage), grids: len(o.bodies[0])}
	seen := 0
	for _, bodies := range o.bodies {
		o.served.grids = min(o.served.grids, len(bodies))
		for _, body := range bodies {
			for _, raw := range bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n")) {
				var line streamLine
				if json.Unmarshal(raw, &line) != nil || line.Error != "" || len(line.Result) == 0 {
					failed++
					continue
				}
				if _, dup := o.served.results[idOf(line.Spec)]; !dup {
					o.served.results[idOf(line.Spec)] = line.Result
					o.served.cells = append(o.served.cells, servedCell{line.Spec, line.Result})
				}
				if seen++; seen%checkEvery != 0 {
					continue
				}
				want, err := computeCellJSON(line.Spec)
				if err != nil {
					return failed, err
				}
				if !bytes.Equal(want, line.Result) {
					failed++
				}
			}
		}
	}
	after, err := o.svc.counters()
	if err != nil {
		return failed, err
	}
	o.after = after
	// Every grid after a client's first shares 36 cells with its
	// predecessor; everything else is dispatched and saved exactly once.
	wantHits := (gridCells - gridStride*len(smallRules)*len(smallAttacks)) * (o.grids - clients)
	wantMisses := gridCells*o.grids - wantHits
	hits := after.store.Hits - o.before.store.Hits
	saves := after.store.Saves - o.before.store.Saves
	dispatches := after.fleet.dispatches() - o.before.fleet.dispatches()
	switch {
	case failed > 0:
		return failed, nil
	case after.store.Tampered != 0:
		return 0, fmt.Errorf("/store reports %d tampered records", after.store.Tampered)
	case after.fleet.requeues() != 0 || after.fleet.LocalFallbacks != 0:
		return 0, fmt.Errorf("/fleet reports %d requeues, %d local fallbacks", after.fleet.requeues(), after.fleet.LocalFallbacks)
	case hits != wantHits || saves != wantMisses || dispatches != wantMisses:
		return 0, fmt.Errorf("%d grids: %d hits / %d saves / %d dispatches, want %d / %d / %d",
			o.grids, hits, saves, dispatches, wantHits, wantMisses, wantMisses)
	}
	return 0, nil
}

// layers runs after check. It reports what the clients saw of each phase of a grid and the
// coordinator's exact counts, then runs the stand-alone probes: the
// codecs on real messages, a second coordinator fed by the stub
// worker, and — ending the measured service — its store directory
// re-opened.
func (o *overlap) layers(lc *layerContext) error {
	out := lc.out
	var ack, first, eof []float64
	for _, g := range o.timings {
		ack = append(ack, ms(g.ack))
		first = append(first, ms(g.first))
		eof = append(eof, ms(g.eof))
	}
	out["scenariod.submit_ack_ms_p50"] = median(ack)
	out["scenariod.first_result_ms_p50"] = median(first)
	out["scenariod.matrix_latency_p50_ms"] = median(eof)
	out["scenariod.matrix_latency_p90_ms"] = percentile(eof, 90)
	out["scenariod.matrix_latency_p99_ms"] = percentile(eof, 99)

	after := o.after
	var health struct {
		JournalLag int `json:"journal_lag"`
	}
	if err := o.svc.getJSON("/healthz", &health); err != nil {
		return err
	}
	out["scenariod.grids"] = float64(o.grids)
	out["store.hits"] = float64(after.store.Hits - o.before.store.Hits)
	out["store.saves"] = float64(after.store.Saves - o.before.store.Saves)
	out["store.seals"] = float64(after.store.Seals - o.before.store.Seals)
	out["scenariod.dispatches"] = float64(after.fleet.dispatches() - o.before.fleet.dispatches())
	out["scenariod.requeues"] = float64(after.fleet.requeues())
	out["scenariod.local_fallbacks"] = float64(after.fleet.LocalFallbacks)
	out["scenariod.journal_lag"] = float64(health.JournalLag)
	if info, err := os.Stat(filepath.Join(o.svc.dir, "journal")); err == nil {
		out["scenariod.journal_bytes"] = float64(info.Size())
	}

	harvest := o.served
	if len(harvest.cells) == 0 {
		return errors.New("no served cell to probe with")
	}
	// A few hundred real cells are enough for the stand-alone probes.
	harvest.cells = harvest.cells[:min(len(harvest.cells), 512)]
	probeResultCodec(harvest.cells, out)
	probeShardproto(harvest.cells, out)
	if err := o.probeDispatchOnly(harvest, lc.seconds, out); err != nil {
		return fmt.Errorf("dispatch-only probe: %w", err)
	}
	return o.probeStore(harvest.cells, out)
}

// harvested is what the measured windows served, gathered by check
// for the probes.
type harvested struct {
	cells []servedCell
	// results maps a cell's identity to its stable JSON, for the stub.
	results map[cellID]json.RawMessage
	// grids is how many grids each client completed.
	grids int
}

// cellID identifies a cell of the fixed grid shape.
type cellID struct {
	rule, attack string
	seed         uint64
}

func idOf(s scenario.Spec) cellID { return cellID{s.Rule, s.Attack, s.Seed} }

// probeDispatchOnly replays the measured grids against a second, empty
// coordinator whose only worker is the stub: compute is zero, so what
// remains is queue → poll → canonical-form check → store append →
// journal → stream.
func (o *overlap) probeDispatchOnly(h harvested, seconds float64, out map[string]float64) error {
	svc, err := startService(o.e, false)
	if err != nil {
		return err
	}
	defer svc.stop()
	stub := &stubWorker{coordinator: svc.url, slots: workers, results: h.results, client: svc.http}
	ctx, cancel := context.WithCancel(context.Background())
	stubDone := make(chan error, 1)
	if err := stub.join(ctx); err != nil {
		cancel()
		return err
	}
	go func() { stubDone <- stub.run(ctx) }()

	inst := &instance{clients: clients, do: func(client, k int, _ *tracer) (int, int) {
		if k >= h.grids {
			time.Sleep(time.Millisecond) // replay exhausted: idle out the window
			return 0, 0
		}
		g, err := svc.submitGrid(overlapGrid(o.base, client, k))
		served := bytes.Count(g.body, []byte("\n"))
		if err != nil || served != gridCells {
			return gridCells, gridCells
		}
		return gridCells, 0
	}}
	reqs, _ := newDriver(inst).window(seconds, nil)
	cancel()
	if err := <-stubDone; err != nil {
		return err
	}
	var done []request
	for _, r := range reqs {
		if r.ops > 0 {
			done = append(done, r)
		}
	}
	if _, failed := countOps(done); failed > 0 || stub.unknown > 0 {
		return fmt.Errorf("%d cells failed, %d tasks the stub had no result for", failed, stub.unknown)
	}
	out["scenariod.dispatch_only_cells_per_s"] = median(segmentRates(done, clients, segments))
	out["scenariod.poll_rtt_ms_p50"] = median(stub.pollMs)
	out["scenariod.result_ack_ms_p50"] = median(stub.resultMs)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
