package main

// Stream coverage, causal rather than timed: every cell in these tests
// is released by the test itself — a hand-driven fleet member reports a
// canned result when told to, or a pre-seeded store answers at once —
// so "cell k's line is out before cell k+1 exists" is an ordering the
// test constructs, not a race it hopes to win; the only clocks are
// deadlock detectors on reads that must not block. The golden files
// under testdata/ were written by the parent commit's coordinator for
// the same grid and are never regenerated: they pin /stream and
// /results byte for byte across the move from decoded results to
// carried bytes.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"krum/distsgd"
	"krum/scenario"
	"krum/scenario/shardproto"
	"krum/scenario/store"
)

// goldenGrid is the grid behind testdata/golden_*: a six-cell matrix
// whose labels need HTML escaping, with one canned result per cell
// that exercises every corner of the stable encoding (non-finite
// floats, signed zero and NaN parameter bits, omitted-when-zero fields,
// a kernel string with <, &, > and U+2028).
func goldenGrid(t *testing.T) (body string, cells []scenario.Spec, results []*distsgd.Result) {
	t.Helper()
	m := scenario.Matrix{
		Base: scenario.Spec{
			Name:      "html <b>&</b>",
			Workload:  "gmm(k=3,dim=6,radius=4,sigma=0.5)",
			Rule:      "krum",
			Schedule:  "inverset(gamma=0.5,power=0.75,t0=50)",
			N:         9,
			F:         2,
			Rounds:    8,
			BatchSize: 8,
			EvalEvery: 4,
			EvalBatch: 64,
		},
		Rules: []string{"krum", "average"},
		Seeds: []uint64{1, 2, 3},
	}
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	cells = m.Cells()
	results = make([]*distsgd.Result, len(cells))
	for i := range cells {
		x := float64(i)
		results[i] = &distsgd.Result{
			History: []distsgd.RoundStats{
				{Round: 0, TrainLoss: x + 0.5, UpdateNorm: 1e-7 * x, LearningRate: 0.5, Evaluated: true, TestAccuracy: 0.25, TestLoss: math.Inf(1)},
				{Round: 4, TrainLoss: math.NaN(), UpdateNorm: 3, LearningRate: 0.125, ByzantineChosen: i%2 == 1},
			},
			FinalParams:             []float64{x, -0.0, math.NaN(), 1e300},
			Diverged:                i == 2,
			DivergedRound:           i,
			ByzantineSelectedRounds: i,
			SelectionTrackedRounds:  2 * i,
			FinalTestAccuracy:       0.75,
			FinalTestLoss:           x / 7,
			Kernel:                  "k<&>\u2028",
		}
	}
	return string(blob), cells, results
}

// getBody fetches one endpoint's whole body.
func getBody(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
	}
	return blob
}

// manualWorker is a fleet member the test drives one message at a
// time: it holds whatever it polled until told to report.
type manualWorker struct {
	t     *testing.T
	ts    *httptest.Server
	grant shardproto.JoinResponse
}

// poll asks for one task, re-polling through idle windows.
func (w manualWorker) poll() shardproto.Task {
	w.t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		resp, err := w.ts.Client().Post(w.ts.URL+"/fleet/poll", "application/json",
			jsonBody(`{"worker_id": "`+w.grant.WorkerID+`", "token": "`+w.grant.Token+`", "max_tasks": 1}`))
		if err != nil {
			w.t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			w.t.Fatal(err)
		}
		poll, err := shardproto.DecodePollResponse(body)
		if err != nil {
			w.t.Fatal(err)
		}
		if len(poll.Tasks) > 0 {
			return poll.Tasks[0]
		}
	}
	w.t.Fatal("never received a task")
	return shardproto.Task{}
}

// report answers a task with a result.
func (w manualWorker) report(task shardproto.Task, res *distsgd.Result) {
	w.t.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		w.t.Fatal(err)
	}
	msg, err := json.Marshal(shardproto.ResultRequest{WorkerID: w.grant.WorkerID, Token: w.grant.Token, TaskID: task.ID, Result: raw})
	if err != nil {
		w.t.Fatal(err)
	}
	resp, err := w.ts.Client().Post(w.ts.URL+"/fleet/result", "application/json", bytes.NewReader(msg))
	if err != nil {
		w.t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack shardproto.ResultResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil || !ack.Accepted {
		w.t.Fatalf("report of %s: accepted=%v err=%v", task.ID, ack.Accepted, err)
	}
}

// lineReader hands out a stream's lines with a deadlock detector: a
// line that should already be on the wire must arrive, a stream that
// should have ended must end.
type lineReader struct {
	t     *testing.T
	lines chan []byte // closed at EOF
}

// openStream connects to a stream endpoint and reads it line by line
// in the background. The response headers only leave with the first
// line, so the GET itself may block for as long as every cell is held.
func openStream(ctx context.Context, t *testing.T, url string) lineReader {
	lr := lineReader{t: t, lines: make(chan []byte, 64)}
	go func() {
		defer close(lr.lines)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return // the test hung up
		}
		defer resp.Body.Close()
		r := bufio.NewReader(resp.Body)
		for {
			line, err := r.ReadBytes('\n')
			if err != nil {
				return
			}
			lr.lines <- line
		}
	}()
	return lr
}

// next returns the next line, or nil at EOF.
func (lr lineReader) next() []byte {
	lr.t.Helper()
	select {
	case line := <-lr.lines:
		return line
	case <-time.After(20 * time.Second):
		lr.t.Fatal("the stream neither delivered a line nor ended")
		return nil
	}
}

// streamHandlers counts the goroutines currently inside handleStream.
func streamHandlers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "(*Server).handleStream(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// waitStreamHandlers waits until exactly want handlers are running.
func waitStreamHandlers(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if streamHandlers() == want {
			return
		}
	}
	t.Fatalf("%d stream handlers running, want %d", streamHandlers(), want)
}

// TestStreamLineLeavesWhenItsCellCompletes: with every cell held by the
// test, cell k's line is read off /stream before cell k+1 is released —
// nothing but the cell's own completion puts it on the wire. The
// handler then returns because the matrix finished, and a client that
// connects afterwards replays the same bytes.
func TestStreamLineLeavesWhenItsCellCompletes(t *testing.T) {
	srv := NewServer(Options{Workers: 1, Store: store.NewMemory(), Lease: time.Minute})
	defer srv.Stop()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	worker := manualWorker{t, ts, joinFleet(t, ts)}

	body, cells, results := goldenGrid(t)
	sub := submit(t, ts, body)
	stream := openStream(context.Background(), t, ts.URL+sub.StreamURL)
	waitStreamHandlers(t, 1)

	var live []byte
	for k := range cells {
		// The pool is one wide, so cell k is the only cell in existence.
		task := worker.poll()
		if task.Spec.Seed != cells[k].Seed || task.Spec.Rule != cells[k].Rule {
			t.Fatalf("task %d is %s, want %s", k, task.Spec.Label(), cells[k].Label())
		}
		worker.report(task, results[k])
		line := stream.next()
		var c cellJSON
		if err := json.Unmarshal(line, &c); err != nil || c.Index != k {
			t.Fatalf("after releasing cell %d the stream delivered %q (err %v)", k, line, err)
		}
		live = append(live, line...)
	}
	if line := stream.next(); line != nil {
		t.Fatalf("line after the last cell: %q", line)
	}
	waitStreamHandlers(t, 0)

	if late := getBody(t, ts, sub.StreamURL); !bytes.Equal(late, live) {
		t.Errorf("a late client replayed\n%s\nthe live client read\n%s", late, live)
	}
	// The same grid through a worker's report differs from the golden
	// (served from a store) in the cached flag and nothing else.
	golden, err := os.ReadFile("testdata/golden_stream.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	if want := bytes.ReplaceAll(golden, []byte(`,"cached":true`), nil); !bytes.Equal(live, want) {
		t.Errorf("stream of reported cells:\n%s\nwant the golden minus its cached flags:\n%s", live, want)
	}
}

// TestStreamHandlerReturns: the handler of a matrix that will never
// finish on its own returns when its client goes away, and — for a
// second client — when Stop aborts the matrix, after delivering the
// cell Stop drained. No handler goroutine is left either way.
func TestStreamHandlerReturns(t *testing.T) {
	srv := NewServer(Options{Workers: 1, Store: store.NewMemory(), Lease: time.Minute})
	stopped := false
	defer func() {
		if !stopped {
			srv.Stop()
		}
	}()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	worker := manualWorker{t, ts, joinFleet(t, ts)}

	sub := submit(t, ts, matrixBody(t, 5, "krum", "average", "coordmedian"))
	worker.poll() // cell 0 is now held by a worker that will never report

	ctx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	gone := openStream(ctx, t, ts.URL+sub.StreamURL)
	waitStreamHandlers(t, 1)
	hangUp()
	waitStreamHandlers(t, 0)
	if line := gone.next(); line != nil {
		t.Fatalf("a held matrix streamed %q", line)
	}
	var st statusJSON
	getJSON(t, ts, "/matrices/"+sub.ID, &st)
	if st.Completed != 0 || st.Finished || st.Aborted {
		t.Fatalf("the matrix moved while its only cell was held: %+v", st)
	}

	stream := openStream(context.Background(), t, ts.URL+sub.StreamURL)
	waitStreamHandlers(t, 1)
	srv.Stop() // drains cell 0 to the local fallback, aborts cells 1 and 2
	stopped = true
	var c cellJSON
	if line := stream.next(); json.Unmarshal(line, &c) != nil || c.Index != 0 || c.Error != "" {
		t.Fatalf("the drained cell's line: %q", line)
	}
	if line := stream.next(); line != nil {
		t.Fatalf("line after the abort: %q", line)
	}
	waitStreamHandlers(t, 0)
	getJSON(t, ts, "/matrices/"+sub.ID, &st)
	if !st.Aborted || st.Finished || st.Completed != 1 {
		t.Fatalf("after Stop: %+v, want aborted with one completed cell", st)
	}
}

// TestStreamGoldenBytes pins /stream and /results for goldenGrid,
// served from a pre-seeded store, to the bytes the parent commit's
// coordinator produced — HTML escaping and compaction included — with
// the store's own bytes handed through as they are.
func TestStreamGoldenBytes(t *testing.T) {
	body, cells, results := goldenGrid(t)
	st := store.NewMemory()
	for i, cell := range cells {
		if err := st.Save(cell, results[i]); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(Options{Workers: 1, Store: st})
	defer srv.Stop()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	sub := submit(t, ts, body)
	waitFinished(t, ts, sub.ID)
	for path, file := range map[string]string{sub.StreamURL: "golden_stream.ndjson", sub.ResultsURL: "golden_results.json"} {
		want, err := os.ReadFile("testdata/" + file)
		if err != nil {
			t.Fatal(err)
		}
		if got := getBody(t, ts, path); !bytes.Equal(got, want) {
			t.Errorf("%s differs from the parent's bytes\n got %s\nwant %s", path, got, want)
		}
	}
	if hits := st.Stats().Hits; hits != len(cells) {
		t.Errorf("the store served %d hits, want %d", hits, len(cells))
	}
}
